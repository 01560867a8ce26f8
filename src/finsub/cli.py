"""Command-line surface.

Subcommands: ``homology`` (build a space and compute its homology),
``verify`` (run a named claim from the verification matrix), ``groupcoh``
(symmetric group cohomology), ``page`` (spectral-sequence pages of a
filtration), ``cache`` (boundary-matrix cache management).  A job picks
its model from the space alone: ``homology`` and ``page`` on a sphere
read its Fox-Neuwirth cells (``finsub.fncells``), and on the torus or a
space file its keyed chains (``finsub.subsetspace``); for ``verify``
see ``finsub.claims``.

Exit codes: 0 on success / all-match, 1 on any mismatch, 2 on usage
errors and resource refusals.  A usage error prints a ``Usage:`` line and
an ``Error:`` line to stderr.  Only bad arguments, an unreadable space
file and a :class:`~finsub.claims.ParameterError` count as one; any
other exception, a ``ValueError`` included, is an engine fault and
propagates.  JSON outputs are byte-identical across runs for identical
inputs; timing information only appears in the human-readable log
lines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import __version__
from . import cache as cache_mod
from .claims import DEFAULT_BUDGET_ND, ParameterError, run_claim
from .groupcoh import CoefficientAction, duality_cochains
from .fncells import INFINITY, bar_chains, exp_chains, points, sphere_homology
from .homology import ChainComplex, homology, homology_to_json
from .simplicial import (
    BasedSimplicialSet,
    SpaceFormatError,
    load_space,
    restrict,
    space_hash,
    torus_model,
)
from .spectral import filtered_complex, filtration, pages
from .subsetspace import DEFAULT_CELL_CEILING, BudgetError, keyed_complex

CONSTRUCTIONS = ("expn", "based", "bar", "conf")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors read ``Usage: ...``, ``Error: ...``
    on stderr and exit 2."""

    def error(self, message: str):
        sys.stderr.write(f"Usage: {self.usage % {'prog': self.prog}}\n"
                         f"Try '{self.prog} --help' for help.\n\n"
                         f"Error: {message}\n")
        sys.exit(2)


def _writable_out(out: str) -> None:
    """Refuse an --out path that cannot be written."""
    folder = os.path.dirname(os.path.abspath(out))
    if os.path.isdir(out):
        problem = "is a directory"
    elif not os.path.isdir(folder):
        problem = f"has no directory {folder!r}"
    elif not os.access(out if os.path.exists(out) else folder, os.W_OK):
        problem = "is not writable"
    else:
        return
    raise ParameterError(f"Invalid value for '--out': {out!r} {problem}")


def _usable_cache_dir(cache_dir: str) -> None:
    """Refuse a --cache-dir (or $FINSUB_CACHE_DIR) path that names a
    file or lies under one, where the cache could not make its
    directory."""
    path = os.path.abspath(cache_dir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if os.path.isdir(path):
        return
    problem = ("is not a directory" if path == os.path.abspath(cache_dir)
               else f"lies under the file {path!r}")
    raise ParameterError(f"Invalid value for '--cache-dir': {cache_dir!r} {problem}")


def _emit(data: dict, out: Optional[str]) -> None:
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _no_trusted_degree(trunc: int) -> ParameterError:
    return ParameterError(f"truncation level {trunc} leaves no trusted "
                          "degree; --trunc must be >= 1")


def _sphere_front(d: Optional[int], n: int, trunc: Optional[int]
                  ) -> tuple[int, str, int]:
    """Returns (truncation level, tag, dimension) of a sphere job, the
    level n*d+1 unless ``trunc`` is given, refusing a sphere without a
    dimension or of dimension below 1.  The Fox-Neuwirth cells need no
    truncation: it only picks the degrees reported."""
    if d is None:
        raise ParameterError("--space sphere needs --d")
    if d < 1:
        raise ParameterError("--d must be >= 1")
    return n * d + 1 if trunc is None else trunc, "sphere", d


def _resolve_space(space: str, d: Optional[int], n: int, trunc: Optional[int]
                   ) -> tuple[BasedSimplicialSet, str, Optional[int]]:
    """Returns (based space, tag, dimension-if-known) of the torus or a
    space file, refusing a space file whose truncation leaves no trusted
    degree and a ``d`` that is not the space's dimension.  The torus
    model is truncated at 2n+1 unless ``trunc`` is given."""
    if space == "torus":
        if d is not None and d != 2:
            raise ParameterError(f"--space torus has dimension 2, not --d {d}")
        return torus_model(trunc if trunc is not None else 2 * n + 1), "torus", 2
    if not space.startswith("file:"):
        raise ParameterError(
            f"unknown space {space!r}: use sphere, torus or file:PATH")
    if d is not None:
        raise ParameterError("--d applies to --space sphere and torus, "
                             "not to a space file")
    path = space[5:]
    try:
        loaded = load_space(path)
    except (OSError, SpaceFormatError) as exc:
        raise ParameterError(f"cannot load space file: {exc}")
    if not isinstance(loaded, BasedSimplicialSet):
        raise ParameterError(
            "space file has no basepoint; subset constructions need one")
    if loaded.trunc < 1:
        raise _no_trusted_degree(loaded.trunc)
    if trunc is not None and trunc > loaded.trunc:
        raise ParameterError(f"--trunc {trunc} exceeds the space file's "
                             f"truncation {loaded.trunc}")
    if trunc is not None and trunc < loaded.trunc:
        loaded = restrict(loaded, [range(m) for m in loaded.levels[:trunc + 1]])[0]
    return loaded, f"file:{path}", None


def _cached_complex(cache: cache_mod.BoundaryCache, key: str, top: int,
                    reduced: bool) -> Optional[ChainComplex]:
    """The complex stored under ``key``, or None when a degree is missing
    or the stored matrices do not form a chain complex."""
    mats = []
    for k in range(top + 1):
        m = cache.get(key, k)
        if m is None:
            return None
        mats.append(m)
    try:
        complex_ = ChainComplex([m.cols for m in mats], mats, reduced=reduced)
    except ValueError:
        return None
    return None if complex_.validate() else complex_


def cmd_homology(space, d, n, construction, model, coeffs, max_degree, trunc,
                 out, cache_dir, ceiling):
    """Homology of a subset-space construction over a base space."""
    if n < 1:
        raise ParameterError("--n must be >= 1")
    if max_degree is not None and max_degree < 0:
        raise ParameterError("--max-degree must be >= 0")
    reduced = construction in ("bar", "conf")
    if space == "sphere":
        top, tag, dim = _sphere_front(d, n, trunc)
        trusted = top - 1  # degree trunc is never trusted
        upto = trusted if max_degree is None else min(max_degree, trusted)
        # both --model choices of conf are the one space of the cells
        groups = sphere_homology(n, d, construction, ceiling, coeffs, upto)
    else:
        base, tag, dim = _resolve_space(space, d, n, trunc)
        complex_ = _keyed_chains(base, n, construction, model, reduced,
                                 cache_dir, ceiling)
        trusted = complex_.top_degree - 1  # degree trunc is never trusted
        upto = trusted if max_degree is None else min(max_degree, trusted)
        groups = homology(complex_, coeffs, through=upto)
    payload = homology_to_json(
        groups, space=tag, construction=construction, n=n, d=dim,
        reduced=reduced, coeffs=coeffs)
    if construction == "conf":
        payload["model"] = model
    _emit(payload, out)


def _keyed_chains(base: BasedSimplicialSet, n: int, construction: str,
                  model: str, reduced: bool, cache_dir: Optional[str],
                  ceiling: int) -> ChainComplex:
    """The keyed chains of a torus or space-file construction, read from
    and written to the boundary cache when ``cache_dir`` is given."""
    cache = key = complex_ = None
    if cache_dir:  # only a cache hashes, so other jobs never load hashlib
        cache = cache_mod.BoundaryCache(cache_dir)
        key = cache_mod.descriptor_key({
            "base": space_hash(base), "construction": construction, "n": n,
            "model": model if construction == "conf" else None,
            "trunc": base.trunc, "reduced": reduced,
            "format": cache_mod.FORMAT,
        })
        complex_ = _cached_complex(cache, key, base.trunc, reduced)
    if complex_ is None:
        variant = {"expn": "exp", "conf": f"conf-{model}"}.get(
            construction, construction)
        complex_ = keyed_complex(base, n, variant, reduced=reduced,
                                 ceiling=ceiling)
        if cache:
            for k, m in enumerate(complex_.boundary):
                cache.put(key, k, m)
    return complex_


def cmd_verify(claim, n, d, space, budget_nd, ceiling, out):
    """Run one claim of the verification matrix.

    Exit 0 when every check matches (adjudicated reports never fail),
    exit 1 on any mismatch.
    """
    reports = run_claim(claim, n, d, ceiling=ceiling, budget_nd=budget_nd,
                        space=space)
    for rep in reports:
        print(rep)
        print()
    payload = {"claim": claim,
               "reports": [r.to_json() for r in reports]}
    if out:
        _emit(payload, out)
    if any(r.verdict == "mismatch" for r in reports):
        return 1


def cmd_groupcoh(n, action, max_degree, ceiling, out):
    """Cohomology of S_n with trivial or sign integral coefficients."""
    if n < 1:
        raise ParameterError("-n must be >= 1")
    if max_degree < 0:
        raise ParameterError("--max-degree must be >= 0")
    c = duality_cochains(n, CoefficientAction(action), max_degree,
                         ceiling=ceiling)
    # codimension max_degree + 1 lacks its outgoing differential
    payload = homology_to_json(homology(c, through=max_degree), group=f"S_{n}",
                               action=action, coeffs="Z", cohomology=True)
    _emit(payload, out)


def cmd_page(space, d, n, variant, trunc, ceiling, out):
    """Spectral-sequence pages of the points-count filtration."""
    if n < 1:
        raise ParameterError("--n must be >= 1")
    if space == "sphere":
        # pages of degrees 0..top, as the keyed chains of
        # sphere_model(d, top) gave them, whose degree nd + 1 is empty;
        # bar has no basepoint cell, and based is relative to {inf}
        top, tag, dim = _sphere_front(d, n, trunc)
        chains = (bar_chains(n, d, ceiling) if variant == "bar" else
                  exp_chains(n, d, ceiling, based=variant == "based"))
        f = filtration(chains, points, n,
                       INFINITY if variant == "based" else None)
    else:
        base, tag, dim = _resolve_space(space, d, n, trunc)
        f = filtered_complex(base, n, variant, ceiling=ceiling)
        top = f.top_degree
    seq = pages(f)
    totals = seq[-1].total_dims()
    payload = {
        "space": tag, "d": dim, "n": n, "variant": variant,
        "pages": [_through(p.to_json(), top) for p in seq],
        "einfty_totals": [totals.get(m, 0) for m in range(top + 1)],
    }
    _emit(payload, out)


def _through(page: dict, top: int) -> dict:
    """A page's JSON with the entries, and the differentials leaving
    them, of total degree at most ``top``."""
    page["entries"] = [e for e in page["entries"] if e["p"] + e["q"] <= top]
    page["differentials"] = [x for x in page["differentials"]
                             if sum(x["from"]) <= top]
    return page


def cmd_cache(action, cache_dir):
    """Inspect or clear the boundary-matrix cache."""
    if not cache_dir:
        raise ParameterError(f"give --cache-dir or set ${cache_mod.ENV_VAR}")
    cache = cache_mod.BoundaryCache(cache_dir)
    if action == "stats":
        _emit(cache.stats().to_json(), None)
    else:
        removed = cache.clear()
        _emit({"removed": removed}, None)


def _parser(prog: str) -> tuple[_Parser, dict[str, _Parser]]:
    """The top-level parser and one parser per subcommand."""
    top = _Parser(prog=prog, usage="%(prog)s [OPTIONS] COMMAND [ARGS]...",
                  description="Exact homology of finite subset spaces of "
                  "spheres and friends.", add_help=False, allow_abbrev=False)
    top.add_argument("--version", action="version",
                     version=f"finsub, version {__version__}",
                     help="Show the version and exit.")
    top.add_argument("--help", action="help",
                     help="Show this message and exit.")
    subs = top.add_subparsers(dest="command", prog=prog, metavar="COMMAND")
    commands = {}

    def command(fn, name, usage="[OPTIONS]"):
        doc = fn.__doc__ or ""  # None under python -OO
        sub = subs.add_parser(name, help=doc.split("\n")[0], description=doc,
                              usage=f"%(prog)s {usage}", add_help=False,
                              allow_abbrev=False)
        sub.set_defaults(run=fn)
        sub.add_argument("--help", action="help",
                         help="Show this message and exit.")
        commands[name] = sub
        return sub.add_argument

    def out(option):
        option("--out", metavar="PATH", help="write JSON here")

    def ceiling(option):
        option("--ceiling", type=int, default=DEFAULT_CELL_CEILING,
               help="non-degenerate cells allowed in any one degree, a "
               "Fox-Neuwirth cell counting once per separator (at least "
               "once); groupcoh and configuration spaces of spheres count "
               "all their codimensions together [default: %(default)s]")

    def cache_dir(option, help=None):
        option("--cache-dir", metavar="PATH",
               default=cache_mod.default_cache_dir(), help=help)

    option = command(cmd_homology, "homology")
    option("--space", default="sphere",
           help="sphere, torus or file:PATH [default: %(default)s]")
    option("--d", type=int, help="sphere dimension")
    option("--n", type=int, required=True,
           help="maximum number of points [required]")
    option("--construction", choices=CONSTRUCTIONS, default="expn",
           help="[default: %(default)s]")
    option("--model", choices=("based", "bar"), default="based",
           help="model for --construction conf [default: %(default)s]")
    option("--coeffs", choices=("Z", "Q"), default="Z",
           help="[default: %(default)s]")
    option("--max-degree", type=int,
           help="report homology through this degree (default: trusted range)")
    option("--trunc", type=int,
           help="truncation level of the base space, which on a sphere "
           "only picks the degrees reported, those below it (default n*d+1)")
    out(option)
    cache_dir(option, "boundary-matrix cache of the keyed chains of torus "
              f"and file: spaces (or ${cache_mod.ENV_VAR}); sphere jobs read "
              "Fox-Neuwirth cells and never use it")
    ceiling(option)

    option = command(cmd_verify, "verify", "[OPTIONS] CLAIM")
    option("claim", metavar="CLAIM")
    option("-n", type=int, help="number of points")
    option("-d", type=int, help="sphere dimension")
    option("--space", default="sphere", help="sphere, or torus for lemma-quo "
           "and generaltwo [default: %(default)s]")
    option("--budget-nd", type=int, default=DEFAULT_BUDGET_ND,
           help="refuse runs with n*d above this [default: %(default)s]")
    ceiling(option)
    out(option)

    option = command(cmd_groupcoh, "groupcoh")
    option("-n", type=int, required=True,
           help="symmetric group degree [required]")
    option("--action", choices=("trivial", "sign"), default="trivial",
           help="[default: %(default)s]")
    option("--max-degree", type=int, default=2, help="[default: %(default)s]")
    ceiling(option)
    out(option)

    option = command(cmd_page, "page")
    option("--space", default="sphere", help="[default: %(default)s]")
    option("--d", type=int)
    option("--n", type=int, required=True, help="[required]")
    option("--variant", choices=("exp", "based", "bar"), default="bar",
           help="[default: %(default)s]")
    option("--trunc", type=int)
    ceiling(option)
    out(option)

    option = command(cmd_cache, "cache", "[OPTIONS] {stats|clear}")
    option("action", choices=("stats", "clear"))
    cache_dir(option)
    return top, commands


def main(argv: Optional[list[str]] = None,
         prog_name: Optional[str] = None) -> None:
    """Runs one command.  Returns on success; otherwise exits with the
    command's code (1 on a verify mismatch, 2 on a usage or resource
    error)."""
    top, commands = _parser(prog_name or "finsub")
    args, extra = top.parse_known_args(sys.argv[1:] if argv is None else argv)
    if args.command is None:
        top.error("Missing command.")
    sub = commands[args.command]
    if extra:
        sub.error(f"unrecognized arguments: {' '.join(extra)}")
    kwargs = vars(args)
    del kwargs["command"]
    run = kwargs.pop("run")
    try:
        if kwargs.get("ceiling", 0) < 0:
            raise ParameterError("--ceiling must be >= 0")
        trunc = kwargs.get("trunc")
        if trunc is not None and trunc < 1:  # degree trunc is never trusted
            raise _no_trusted_degree(trunc)
        if kwargs.get("out") is not None:
            _writable_out(kwargs["out"])
        if kwargs.get("cache_dir"):
            _usable_cache_dir(kwargs["cache_dir"])
        code = run(**kwargs)
    except ParameterError as exc:
        sub.error(str(exc))
    except BudgetError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        sys.exit(2)
    if code:
        sys.exit(code)


if __name__ == "__main__":
    main()
