"""Command-line surface.

Subcommands: ``homology`` (build a space and compute its homology),
``verify`` (run a named claim from the verification matrix), ``groupcoh``
(symmetric group cohomology), ``page`` (spectral-sequence pages of a
filtration), ``cache`` (boundary-matrix cache management).

Exit codes: 0 on success / all-match, 1 on any mismatch or resource
failure during computation, 2 on usage errors.  JSON outputs are
byte-identical across runs for identical inputs; timing information
only appears in the human-readable log lines.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Optional

import click

from . import __version__
from . import cache as cache_mod
from .claims import DEFAULT_BUDGET_ND, run_claim
from .groupcoh import (
    DEFAULT_BASIS_CEILING,
    CoefficientAction,
    ResourceError,
    bar_cochain_complex,
)
from .homology import ChainComplex, homology, homology_to_json
from .simplicial import (
    BasedSimplicialSet,
    SpaceFormatError,
    load_space,
    space_hash,
    sphere_model,
    torus_model,
)
from .spectral import filtered_complex, pages
from .subsetspace import DEFAULT_CELL_CEILING, BudgetError, keyed_complex

CONSTRUCTIONS = ("expn", "based", "bar", "conf")
CEILING_HELP = "non-degenerate cells allowed in any one degree"


def _writable_out(ctx: click.Context, param: click.Parameter,
                  out: Optional[str]) -> Optional[str]:
    """Refuse an --out path that cannot be written, before any work."""
    if out is None:
        return out
    folder = os.path.dirname(os.path.abspath(out))
    if os.path.isdir(out):
        problem = "is a directory"
    elif not os.path.isdir(folder):
        problem = f"has no directory {folder!r}"
    elif not os.access(out if os.path.exists(out) else folder, os.W_OK):
        problem = "is not writable"
    else:
        return out
    raise click.BadParameter(f"{out!r} {problem}", ctx, param)


OUT_OPTION = click.option("--out", type=click.Path(), default=None,
                          callback=_writable_out, help="write JSON here")


def _emit(data: dict, out: Optional[str]) -> None:
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_space(space: str, d: Optional[int], trunc: Optional[int],
                   default_trunc: int) -> tuple[BasedSimplicialSet, str, Optional[int]]:
    """Returns (based space, tag, dimension-if-known), refusing a space
    whose truncation leaves no trusted degree."""
    if space == "sphere":
        if d is None:
            raise click.UsageError("--space sphere needs --d")
        t = trunc if trunc is not None else default_trunc
        base, tag, dim = sphere_model(d, t), "sphere", d
    elif space == "torus":
        t = trunc if trunc is not None else default_trunc
        base, tag, dim = torus_model(t), "torus", 2
    elif space.startswith("file:"):
        path = space[5:]
        try:
            loaded = load_space(path)
        except (OSError, SpaceFormatError) as exc:
            raise click.UsageError(f"cannot load space file: {exc}")
        if not isinstance(loaded, BasedSimplicialSet):
            raise click.UsageError(
                "space file has no basepoint; subset constructions need one")
        if trunc is not None and trunc < loaded.trunc:
            from .simplicial import SimplicialSet, SimplexRef
            xs = loaded.space
            cut = SimplicialSet(
                trunc, xs.levels[:trunc + 1],
                [xs.faces[k] if k <= trunc else None for k in range(trunc + 1)],
                [xs.degeneracies[k] if k < trunc else None
                 for k in range(trunc + 1)],
                xs.labels[:trunc + 1] if xs.labels else None)
            loaded = BasedSimplicialSet(cut, SimplexRef(0, loaded.basepoint.index))
        base, tag, dim = loaded, f"file:{path}", None
    else:
        raise click.UsageError(
            f"unknown space {space!r}: use sphere, torus or file:PATH")
    if base.trunc < 1:  # degree trunc is never trusted
        raise click.UsageError(
            f"truncation level {base.trunc} leaves no trusted degree; "
            "--trunc must be >= 1")
    return base, tag, dim


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


@click.group()
@click.version_option(version=__version__, prog_name="finsub")
def main() -> None:
    """Exact homology of finite subset spaces of spheres and friends."""


@main.command(name="homology")
@click.option("--space", default="sphere", show_default=True,
              help="sphere, torus or file:PATH")
@click.option("--d", type=int, default=None, help="sphere dimension")
@click.option("--n", type=int, required=True, help="maximum number of points")
@click.option("--construction", type=click.Choice(CONSTRUCTIONS), default="expn",
              show_default=True)
@click.option("--model", type=click.Choice(("based", "bar")), default="based",
              show_default=True, help="model for --construction conf")
@click.option("--coeffs", type=click.Choice(("Z", "Q")), default="Z",
              show_default=True)
@click.option("--max-degree", type=int, default=None,
              help="report homology through this degree (default: trusted range)")
@click.option("--trunc", type=int, default=None,
              help="truncation level of the base space (default n*d+1)")
@OUT_OPTION
@click.option("--cache-dir", type=click.Path(), default=None,
              envvar=cache_mod.ENV_VAR,
              help=f"boundary-matrix cache (or ${cache_mod.ENV_VAR})")
@click.option("--ceiling", type=int, default=DEFAULT_CELL_CEILING,
              show_default=True, help=CEILING_HELP)
def cmd_homology(space, d, n, construction, model, coeffs, max_degree, trunc,
                 out, cache_dir, ceiling):
    """Homology of a subset-space construction over a base space."""
    if n < 1:
        raise click.UsageError("--n must be >= 1")
    if max_degree is not None and max_degree < 0:
        raise click.UsageError("--max-degree must be >= 0")
    if ceiling < 0:
        raise click.UsageError("--ceiling must be >= 0")
    dim_guess = d if space == "sphere" else 2
    default_trunc = n * dim_guess + 1 if dim_guess else None
    try:
        base, tag, dim = _resolve_space(space, d, trunc, default_trunc)
        reduced = construction in ("bar", "conf")
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
        trusted = complex_.top_degree - 1  # degree trunc is never trusted
        upto = trusted if max_degree is None else min(max_degree, trusted)
        payload = homology_to_json(
            homology(complex_, coeffs, through=upto), space=tag,
            construction=construction, n=n, d=dim, reduced=reduced,
            coeffs=coeffs)
        if construction == "conf":
            payload["model"] = model
        _emit(payload, out)
    except (BudgetError, ResourceError) as exc:
        click.echo(f"resource error: {exc}", err=True)
        sys.exit(2)
    except ValueError as exc:
        raise click.UsageError(str(exc))


@main.command(name="verify")
@click.argument("claim")
@click.option("-n", type=int, default=None, help="number of points")
@click.option("-d", type=int, default=None, help="sphere dimension")
@click.option("--space", default="sphere", show_default=True,
              help="sphere or torus (claims that support it)")
@click.option("--budget-nd", type=int, default=DEFAULT_BUDGET_ND,
              show_default=True, help="refuse runs with n*d above this")
@click.option("--ceiling", type=int, default=DEFAULT_CELL_CEILING,
              show_default=True, help=CEILING_HELP)
@OUT_OPTION
def cmd_verify(claim, n, d, space, budget_nd, ceiling, out):
    """Run one claim of the verification matrix.

    Exit 0 when every check matches (adjudicated reports never fail),
    exit 1 on any mismatch.
    """
    if budget_nd < 0:
        raise click.UsageError("--budget-nd must be >= 0")
    if ceiling < 0:
        raise click.UsageError("--ceiling must be >= 0")
    try:
        reports = run_claim(claim, n, d, ceiling=ceiling, budget_nd=budget_nd,
                            space=space)
    except (BudgetError, ResourceError) as exc:
        click.echo(f"resource error: {exc}", err=True)
        sys.exit(2)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    for rep in reports:
        click.echo(str(rep))
        click.echo("")
    payload = {"claim": claim,
               "reports": [r.to_json(include_timing=False) for r in reports]}
    if out:
        _emit(payload, out)
    if any(r.verdict == "mismatch" for r in reports):
        sys.exit(1)


@main.command(name="groupcoh")
@click.option("-n", type=int, required=True, help="symmetric group degree")
@click.option("--action", type=click.Choice(("trivial", "sign")),
              default="trivial", show_default=True)
@click.option("--max-degree", type=int, default=2, show_default=True)
@click.option("--ceiling", type=int, default=DEFAULT_BASIS_CEILING,
              show_default=True, help="bar-resolution basis budget")
@OUT_OPTION
def cmd_groupcoh(n, action, max_degree, ceiling, out):
    """Cohomology of S_n with trivial or sign integral coefficients."""
    if n < 1:
        raise click.UsageError("-n must be >= 1")
    if max_degree < 0:
        raise click.UsageError("--max-degree must be >= 0")
    if ceiling < 0:
        raise click.UsageError("--ceiling must be >= 0")
    try:
        c = bar_cochain_complex(n, CoefficientAction(action), max_degree,
                                ceiling=ceiling)
    except ResourceError as exc:
        click.echo(f"resource error: {exc}", err=True)
        sys.exit(2)
    # degree max_degree + 1 lacks its outgoing coboundary
    payload = homology_to_json(homology(c, through=max_degree), group=f"S_{n}",
                               action=action, coeffs="Z", cohomology=True)
    _emit(payload, out)


@main.command(name="page")
@click.option("--space", default="sphere", show_default=True)
@click.option("--d", type=int, default=None)
@click.option("--n", type=int, required=True)
@click.option("--variant", type=click.Choice(("exp", "based", "bar")),
              default="bar", show_default=True)
@click.option("--trunc", type=int, default=None)
@click.option("--ceiling", type=int, default=DEFAULT_CELL_CEILING,
              show_default=True, help=CEILING_HELP)
@OUT_OPTION
def cmd_page(space, d, n, variant, trunc, ceiling, out):
    """Spectral-sequence pages of the points-count filtration."""
    if n < 1:
        raise click.UsageError("--n must be >= 1")
    if ceiling < 0:
        raise click.UsageError("--ceiling must be >= 0")
    dim_guess = d if space == "sphere" else 2
    default_trunc = n * dim_guess + 1 if dim_guess else None
    try:
        base, tag, dim = _resolve_space(space, d, trunc, default_trunc)
        f = filtered_complex(base, n, variant, ceiling=ceiling)
        seq = pages(f)
        totals = seq[-1].total_dims()
        payload = {
            "space": tag, "d": dim, "n": n, "variant": variant,
            "pages": [p.to_json() for p in seq],
            "einfty_totals": [totals.get(m, 0) for m in range(f.top_degree + 1)],
        }
        _emit(payload, out)
    except BudgetError as exc:
        click.echo(f"resource error: {exc}", err=True)
        sys.exit(2)
    except ValueError as exc:
        raise click.UsageError(str(exc))


@main.command(name="cache")
@click.argument("action", type=click.Choice(("stats", "clear")))
@click.option("--cache-dir", type=click.Path(), default=None,
              envvar=cache_mod.ENV_VAR, required=False)
def cmd_cache(action, cache_dir):
    """Inspect or clear the boundary-matrix cache."""
    if not cache_dir:
        raise click.UsageError(
            f"give --cache-dir or set ${cache_mod.ENV_VAR}")
    cache = cache_mod.BoundaryCache(cache_dir)
    if action == "stats":
        _emit(cache.stats().to_json(), None)
    else:
        removed = cache.clear()
        _emit({"removed": removed}, None)


if __name__ == "__main__":
    main()
