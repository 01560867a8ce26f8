"""Verification matrix: named claims about subset spaces of spheres.

Every claim computes something with the engine and compares it against
an expectation derived from an independent source (closed-form sphere
homology, the bar-resolution cohomology of symmetric groups, duality
with compactified configuration spaces, or a second model of the same
space).  Claims whose expectations conflict internally are adjudicated:
the report carries both candidate predictions and the computed truth,
and never fails the run.

A claim on S^d computes from its Fox-Neuwirth cells (``finsub.fncells``)
unless the keyed model of ``finsub.subsetspace`` is its subject:
``fn-conf``, ``fn-bar`` and ``fn-exp`` compare it with the cells, and
``lemma-quo`` compares its two quotient models.  The torus is keyed.

:data:`CLAIMS` is the matrix: each claim with the n, d and space it
admits.  :func:`run_claim` checks them, and the n*d budget, before any
claim runs.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from .fncells import bar_chains, exp_chains, points, sphere_homology
from .groupcoh import CoefficientAction, bar_cochain_complex
from .homology import (
    HomologyGroup,
    _restrict,
    _submatrix,
    homology,
    zigzag_free_index,
    zigzag_map,
)
from .simplicial import BasedSimplicialSet, sphere_model, torus_model
from .spectral import filtration, pages
from .subsetspace import BudgetError, keyed_complex

DEFAULT_BUDGET_ND = 8

MATCH = "match"
MISMATCH = "mismatch"
ADJUDICATED = "adjudicated"


class ParameterError(ValueError):
    """A claim or command parameter outside the range it accepts."""


class VerificationReport:
    def __init__(self, claim: str, params: dict, statement: str,
                 provenance: str, expected: object, computed: object,
                 verdict: str, wall_time: float = 0.0,
                 detail: Optional[str] = None):
        self.claim = claim
        self.params = params
        self.statement = statement
        self.provenance = provenance
        self.expected = expected
        self.computed = computed
        self.verdict = verdict
        self.wall_time = wall_time
        self.detail = detail

    def to_json(self) -> dict:
        out = {
            "claim": self.claim,
            "params": self.params,
            "statement": self.statement,
            "provenance": self.provenance,
            "expected": self.expected,
            "computed": self.computed,
            "verdict": self.verdict,
        }
        if self.detail is not None:
            out["detail"] = self.detail
        return out

    def __str__(self) -> str:
        mark = {"match": "ok", "mismatch": "FAIL", "adjudicated": "adjudicated"}
        line = (f"[{mark[self.verdict]}] {self.claim} {self.params}: "
                f"{self.statement}\n    expected {self.expected} "
                f"({self.provenance})\n    computed {self.computed}"
                f"  [{self.wall_time:.2f}s]")
        if self.detail:
            line += f"\n    {self.detail}"
        return line


def _strs(groups: list[HomologyGroup]) -> list[str]:
    return [str(g) for g in groups]


def _sphere_groups(m: int, through: int) -> list[HomologyGroup]:
    """Integral homology of S^m listed in degrees 0..through."""
    out = [HomologyGroup(0)] * (through + 1)
    out[0] = HomologyGroup(1)
    if m <= through:
        out[m] = HomologyGroup(out[m].rank + 1)
    return out


def _groups(x: BasedSimplicialSet, n: int, variant: str, opts: dict,
            reduced: bool = False) -> list[HomologyGroup]:
    """Homology of a subset-space variant in its trusted degrees (below
    the truncation of x), from the keyed chains: the torus, ``lemma-quo``
    and the keyed side of the ``fn-*`` claims."""
    c = keyed_complex(x, n, variant, reduced=reduced, ceiling=opts["ceiling"])
    return homology(c, through=max(c.top_degree - 1, 0))


def _verdict(expected, computed) -> str:
    return MATCH if expected == computed else MISMATCH


def _base(n: int, d: int, opts: dict) -> tuple[BasedSimplicialSet, str]:
    """(base, tag) of a keyed claim that takes a space: the torus (d = 2)
    or S^d, truncated at n*d + 1."""
    if opts["space"] == "torus":
        return torus_model(n * d + 1), "torus"
    return sphere_model(d, n * d + 1), f"S^{d}"


# ----------------------------------------------------------------------
# claims
# ----------------------------------------------------------------------

def claim_circle(n: int, d: int, opts: dict) -> list[VerificationReport]:
    m = n if n % 2 else n - 1
    computed = sphere_homology(n, 1, "expn", opts["ceiling"])
    expected = _sphere_groups(m, n)
    return [VerificationReport(
        "circle", {"n": n, "d": 1},
        f"subset space of <= {n} points on the circle has the integral "
        f"homology of S^{m}",
        "closed-form sphere homology",
        _strs(expected), _strs(computed), _verdict(expected, computed))]


def claim_tuffley_s2(n: int, d: int, opts: dict) -> list[VerificationReport]:
    computed = sphere_homology(n, 2, "expn", opts["ceiling"])
    expected = [HomologyGroup(0)] * (2 * n + 1)
    expected[0] = HomologyGroup(1)
    expected[2 * n] = HomologyGroup(1)
    torsion = (n - 1,) if n >= 3 else ()
    expected[2 * n - 2] = HomologyGroup(1, torsion)
    tops = (2 * n, 2 * n - 1, 2 * n - 2)
    reports = [VerificationReport(
        "tuffley-s2", {"n": n, "d": 2},
        f"top three homology groups of the subset space of <= {n} points on "
        f"S^2: Z, 0, Z + Z/{n - 1}",
        "surface subset-space homology table",
        {str(k): str(expected[k]) for k in tops},
        {str(k): str(computed[k]) for k in tops},
        _verdict(expected[2 * n - 2:], computed[2 * n - 2:2 * n + 1]))]
    other = {k: computed[k].rank for k in range(1, 2 * n)
             if k not in (2 * n - 2, 2 * n - 1)}
    reports.append(VerificationReport(
        "tuffley-s2", {"n": n, "d": 2},
        "rational Betti numbers vanish in all other positive degrees",
        "rational equivalence with a wedge of two spheres",
        {str(k): 0 for k in other},
        {str(k): r for k, r in other.items()},
        MATCH if all(r == 0 for r in other.values()) else MISMATCH))
    return reports


def _thm1_expected(n: int, d: int) -> list[int]:
    betti = [0] * (n * d + 1)
    betti[0] = 1
    if d % 2 == 0:
        betti[n * d] += 1
        betti[(n - 1) * d] += 1
    else:
        m = ((n + 1) // 2) * (d + 1) - 1
        betti[m] += 1
    return betti


def claim_thm1(n: int, d: int, opts: dict) -> list[VerificationReport]:
    computed = [g.rank for g in sphere_homology(n, d, "expn", opts["ceiling"],
                                                "Q")]
    expected = _thm1_expected(n, d)
    shape = (f"S^{n * d} v S^{(n - 1) * d}" if d % 2 == 0
             else f"S^{((n + 1) // 2) * (d + 1) - 1}")
    return [VerificationReport(
        "thm1", {"n": n, "d": d},
        f"the subset space of <= {n} points on S^{d} has the rational "
        f"homology of {shape}",
        "wedge-of-spheres Betti table",
        expected, computed, _verdict(expected, computed))]


def _adjudicate(claim: str, params: dict, statement: str, provenance: str,
                correspondence: HomologyGroup,
                computed: HomologyGroup) -> VerificationReport:
    """The report on H_(nd-r) for n = 2, odd d and r = d-1, where the
    top-degree correspondence and the rational wedge shape disagree:
    the computed group settles it, and the report never fails."""
    n, d = params["n"], params["d"]
    rational_rank = _thm1_expected(n, d)[n * d - params["r"]]
    return VerificationReport(
        claim, params, statement, provenance,
        {"correspondence": str(correspondence),
         "rational rank": rational_rank},
        str(computed), ADJUDICATED, detail=(
            "two internal predictions disagree here: the top-degree "
            f"correspondence gives {correspondence}, the rational wedge shape "
            f"forces rank {rational_rank}; computed truth is {computed}, "
            "which settles the group"))


def claim_thm2(n: int, d: int, opts: dict) -> list[VerificationReport]:
    action = CoefficientAction("trivial" if d % 2 == 0 else "sign")
    computed_all = sphere_homology(n, d, "expn", opts["ceiling"])
    cohomology = homology(bar_cochain_complex(n, action, d - 1,
                                              opts["ceiling"]), through=d - 1)
    reports = []
    for r in range(d):
        computed = computed_all[n * d - r]
        coh = cohomology[r]
        plus_z = HomologyGroup(coh.rank + 1, coh.torsion)
        top = d % 2 == 1 and r == d - 1  # the exceptional top degree
        statement = (f"H_{n * d - r} of the subset space of <= {n} points on "
                     f"S^{d} equals H^{r}(S_{n}, {action.kind})")
        if top and n == 2:
            reports.append(_adjudicate(
                "thm2", {"n": n, "d": d, "r": r}, statement,
                "adjudicated between the sign-coefficient correspondence and "
                "the rational shape", plus_z, computed))
            continue
        expected, prov = coh, f"bar-resolution H^{r}(S_{n}, {action.kind})"
        if top and n == 3:
            expected = plus_z
            prov += " plus one free summand (exceptional top-degree case)"
        reports.append(VerificationReport(
            "thm2", {"n": n, "d": d, "r": r}, statement, prov,
            str(expected), str(computed), _verdict(expected, computed)))
    return reports


def claim_thm2a_partial(n: int, d: int, opts: dict) -> list[VerificationReport]:
    deg = n * d - d
    h = sphere_homology(n, d, "expn", opts["ceiling"])[deg]
    hc = sphere_homology(n, d, "conf", opts["ceiling"])[deg]
    if d % 2 == 0:
        ok = (h.rank == hc.rank + 1 and
              h.torsion_order() == (n - 1) * hc.torsion_order())
        expected = (f"extension of {hc} by Z + Z/{n - 1}: rank {hc.rank + 1}, "
                    f"torsion order {(n - 1) * hc.torsion_order()}")
        computed = f"{h}: rank {h.rank}, torsion order {h.torsion_order()}"
        statement = (f"H_{deg} of the subset space is an extension of the "
                     f"codimension-{d} compactified configuration homology by "
                     f"Z + Z/{n - 1}")
    else:
        index_ok = (hc.rank == h.rank and h.torsion_order() and
                    hc.torsion_order() % h.torsion_order() == 0 and
                    hc.torsion_order() // h.torsion_order() in (1, 2, 4))
        ok = index_ok
        expected = f"subgroup of {hc} of index 1, 2 or 4"
        computed = str(h)
        statement = (f"H_{deg} of the subset space embeds in the twisted "
                     f"codimension-{d} configuration cohomology with index at most 4")
    return [VerificationReport(
        "thm2a-partial", {"n": n, "d": d}, statement,
        "duality with the one-point compactified configuration space",
        expected, computed, MATCH if ok else MISMATCH)]


def claim_lemma_quo(n: int, d: int, opts: dict) -> list[VerificationReport]:
    base, tag = _base(n, d, opts)
    ha = _groups(base, n, "conf-based", opts, reduced=True)
    hb = _groups(base, n, "conf-bar", opts, reduced=True)
    return [VerificationReport(
        "lemma-quo", {"n": n, "d": d, "space": tag},
        f"the two quotient models of the compactified {n}-point configuration "
        f"space of {tag} minus a point have identical reduced homology",
        "independent construction of the same space",
        _strs(ha), _strs(hb), _verdict(ha, hb))]


def claim_connectivity(n: int, d: int, opts: dict) -> list[VerificationReport]:
    bound = n + d - 3  # (m + n - 2)-connected with m = d - 1; below nd
    groups = sphere_homology(n, d, "expn", opts["ceiling"])
    groups[0] = HomologyGroup(groups[0].rank - 1)  # reduced: H_0 is free
    checked = {k: str(groups[k]) for k in range(bound + 1)}
    ok = all(groups[k].trivial for k in range(bound + 1))
    return [VerificationReport(
        "connectivity", {"n": n, "d": d},
        f"reduced homology of the subset space of <= {n} points on S^{d} "
        f"vanishes in degrees <= {bound}",
        "connectivity of subset spaces of an (d-1)-connected complex",
        {str(k): "0" for k in checked}, checked,
        MATCH if ok else MISMATCH)]


def claim_connecting(n: int, d: int, opts: dict) -> list[VerificationReport]:
    if d % 2:
        raise ParameterError("the connecting claim concerns even d")
    k = n * d - d + 1
    bar = bar_chains(n, d, opts["ceiling"])
    # the cells of n points span bar_n / bar_(n-1), those of n-1 points
    # bar_(n-1) / bar_(n-2), and the block joins them
    cols, rows = ([[i for i, cell in enumerate(basis) if points(cell) == p]
                   for basis in bar.basis] for p in (n, n - 1))
    src, tgt = _restrict(bar, cols), _restrict(bar, rows)
    block = _submatrix(bar.boundary[k], rows[k - 1], cols[k])
    if n <= 3:
        desc = zigzag_map(src, tgt, block, k)
        computed = abs(desc.free_matrix[0][0]) if desc.free_matrix else 0
        method = "full generator zigzag"
    else:
        computed = zigzag_free_index(src, tgt, block, k)
        method = "rank-1 image-index fast path"
    return [VerificationReport(
        "connecting", {"n": n, "d": d},
        f"the connecting map H_{k} of the compactified {n}-point space into "
        f"H_{k - 1} of the {n - 1}-point space is multiplication by {n - 1} "
        f"on free parts",
        f"chain-level zigzag ({method})",
        n - 1, computed,
        MATCH if computed == n - 1 else MISMATCH)]


def claim_e1_collapse(n: int, d: int, opts: dict) -> list[VerificationReport]:
    bar = bar_chains(n, d, opts["ceiling"])
    seq = pages(filtration(bar, points, n))
    p1, pinf = seq[0], seq[-1]
    reports = []
    e1_expected = {}
    for p in range(1, n + 1):
        betti = [g.rank for g in sphere_homology(p, d, "conf", opts["ceiling"],
                                                 "Q")]
        for m, r in enumerate(betti):
            if r:
                e1_expected[f"({p},{m - p})"] = r
    e1_computed = {f"({p},{q})": dim for (p, q), dim in sorted(p1.dims.items())}
    reports.append(VerificationReport(
        "e1-collapse", {"n": n, "d": d},
        "first-page dimensions equal the reduced rational homology of the "
        "compactified configuration spaces, independently computed",
        "quotient-model homology of each graded piece",
        e1_expected, e1_computed,
        _verdict(e1_expected, e1_computed)))
    if d % 2 == 0:
        expected_inf = {f"({n},{n * (d - 1)})": 1}
    elif n % 2 == 0:
        expected_inf = {}
    else:
        m = ((n + 1) * (d + 1)) // 2 - 1
        expected_inf = {f"({n},{m - n})": 1}
    computed_inf = {f"({p},{q})": dim for (p, q), dim in sorted(pinf.dims.items())}
    reports.append(VerificationReport(
        "e1-collapse", {"n": n, "d": d},
        "the limit page is concentrated where the rational shape demands",
        "rational equivalence of the quotient filtration's top stage",
        expected_inf, computed_inf,
        _verdict(expected_inf, computed_inf)))
    pinf_totals = pinf.total_dims()
    betti_top = [g.rank for g in homology(bar, "Q")]  # every degree 0..nd
    totals = [pinf_totals.get(m, 0) for m in range(len(betti_top))]
    reports.append(VerificationReport(
        "e1-collapse", {"n": n, "d": d},
        "limit-page totals equal the reduced rational Betti numbers of the "
        "top filtration stage",
        "direct homology of the top stage",
        betti_top, totals, _verdict(betti_top, totals)))
    return reports


def claim_groupcoh_xcheck(n: int, d: int, opts: dict) -> list[VerificationReport]:
    h = sphere_homology(n, 3, "conf", opts["ceiling"])
    cohomology = homology(bar_cochain_complex(n, CoefficientAction("sign"), 2,
                                              opts["ceiling"]), through=2)
    reports = []
    for r in range(3):
        coh = cohomology[r]
        if r == d - 1:
            expected = HomologyGroup(coh.rank + 1, coh.torsion)
            prov = (f"bar-resolution H^{r}(S_{n}, sign) plus one free summand "
                    f"(n in {{2,3}} exceptional case)")
        else:
            expected = coh
            prov = f"bar-resolution H^{r}(S_{n}, sign)"
        computed = h[3 * n - r]
        reports.append(VerificationReport(
            "groupcoh-xcheck", {"n": n, "d": 3, "r": r},
            f"H_{3 * n - r} of the compactified {n}-point configuration space "
            f"of R^3 equals the degree-{r} sign cohomology of S_{n}"
            + (" plus Z" if r == d - 1 else ""),
            prov, str(expected), str(computed),
            _verdict(expected, computed)))
    return reports


def claim_generaltwo(n: int, d: int, opts: dict) -> list[VerificationReport]:
    if opts["space"] == "torus":
        base, tag = _base(n, d, opts)
        h_exp = _groups(base, n, "exp", opts)
        h_cn = _groups(base, n, "conf-bar", opts, reduced=True)
    else:
        tag = f"S^{d}"
        h_exp = sphere_homology(n, d, "expn", opts["ceiling"])
        h_cn = sphere_homology(n, d, "conf", opts["ceiling"])
    # codimension d-1 for odd d is checked too, except at n = 2, where
    # thm2 adjudicates it: H_(d+1) of SP^2(S^d) is 0 and the
    # configuration side has a Z.  d starts at 2: on the circle that
    # codimension is 0, where exp_n(S^1) is S^(n-1) for even n, and
    # claim circle covers d = 1
    odd_top = d % 2 == 1 and n != 2
    rs = range(d if odd_top else d - 1)
    expected = {str(n * d - r): str(h_cn[n * d - r]) for r in rs}
    computed = {str(n * d - r): str(h_exp[n * d - r]) for r in rs}
    reports = [VerificationReport(
        "generaltwo", {"n": n, "d": d, "space": tag},
        f"top homology of the subset space of {tag} agrees with the "
        f"compactified configuration space in codimension < {d - 1}"
        + (" and dim-1" if odd_top else ""),
        "quotient-model configuration homology",
        expected, computed, _verdict(expected, computed))]
    if d % 2 == 1 and n == 2:
        reports.append(_adjudicate(
            "generaltwo", {"n": n, "d": d, "space": tag, "r": d - 1},
            f"H_{d + 1} of the subset space of {tag} equals that of the "
            "compactified configuration space",
            "adjudicated between the configuration-space correspondence and "
            "the rational shape", h_cn[d + 1], h_exp[d + 1]))
    return reports


def _fn_reports(claim: str, n: int, d: int, keyed: list[HomologyGroup],
                fn, statement: Callable[[int], str], provenance: str
                ) -> list[VerificationReport]:
    """One report per degree k of the keyed groups: the Fox-Neuwirth
    group fn[k] against keyed[k]."""
    return [VerificationReport(
        claim, {"n": n, "d": d, "degree": k}, statement(k), provenance,
        str(expected), str(fn[k]), _verdict(expected, fn[k]))
        for k, expected in enumerate(keyed)]


def claim_fn_conf(n: int, d: int, opts: dict) -> list[VerificationReport]:
    keyed = _groups(sphere_model(d, n * d + 1), n, "conf-bar", opts,
                    reduced=True)
    cells = d ** (n - 1)
    return _fn_reports(
        "fn-conf", n, d, keyed, sphere_homology(n, d, "conf", opts["ceiling"]),
        lambda k: f"reduced H_{k} of the compactified {n}-point "
        f"configuration space of R^{d} from its {cells} Fox-Neuwirth "
        f"cells equals the keyed conf-bar model's",
        f"keyed conf-bar chains of S^{d}, reduced")


def claim_fn_bar(n: int, d: int, opts: dict) -> list[VerificationReport]:
    keyed = _groups(sphere_model(d, n * d + 1), n, "bar", opts, reduced=True)
    chains = bar_chains(n, d, opts["ceiling"])
    return _fn_reports(
        "fn-bar", n, d, keyed, homology(chains),
        lambda k: f"reduced H_{k} of the space of at most {n} points of "
        f"R^{d}, compactified, from its {sum(chains.dims)} Fox-Neuwirth "
        f"cells equals the keyed bar model's",
        f"keyed bar chains of S^{d}, reduced")


def claim_fn_exp(n: int, d: int, opts: dict) -> list[VerificationReport]:
    keyed = _groups(sphere_model(d, n * d + 1), n, "exp", opts)
    chains = exp_chains(n, d, opts["ceiling"])
    return _fn_reports(
        "fn-exp", n, d, keyed, homology(chains),
        lambda k: f"H_{k} of the space of at most {n} points of S^{d} from "
        f"its {sum(chains.dims)} Fox-Neuwirth cells equals the keyed exp "
        f"model's",
        f"keyed exp chains of S^{d}")


class Claim:
    """A claim of the verification matrix and its domain.

    ``n`` and ``d`` are (least, most) pairs, most None for no upper end.
    ``default_d`` is taken when -d is left out; None makes -d required.
    ``torus`` admits ``--space torus``, whose dimension 2 is then the
    only d.  ``run(n, d, opts)`` gets the admitted n and d and the
    options ``ceiling`` and ``space``.
    """

    def __init__(self,
                 run: Callable[[int, int, dict], list[VerificationReport]],
                 n: tuple[int, Optional[int]], d: tuple[int, Optional[int]],
                 default_d: Optional[int] = None, torus: bool = False):
        self.run = run
        self.n = n
        self.d = d
        self.default_d = default_d
        self.torus = torus


CLAIMS: dict[str, Claim] = {
    "thm1": Claim(claim_thm1, (2, None), (2, None)),
    "thm2": Claim(claim_thm2, (2, None), (2, None)),
    "thm2a-partial": Claim(claim_thm2a_partial, (3, None), (2, None)),
    "tuffley-s2": Claim(claim_tuffley_s2, (2, None), (2, 2), 2),
    "circle": Claim(claim_circle, (2, None), (1, 1), 1),
    "lemma-quo": Claim(claim_lemma_quo, (1, None), (1, None), torus=True),
    "connectivity": Claim(claim_connectivity, (1, None), (1, None)),
    "connecting": Claim(claim_connecting, (2, None), (2, None), 2),
    "e1-collapse": Claim(claim_e1_collapse, (1, None), (1, None)),
    "groupcoh-xcheck": Claim(claim_groupcoh_xcheck, (2, 3), (3, 3), 3),
    "generaltwo": Claim(claim_generaltwo, (1, None), (2, None), torus=True),
    "fn-conf": Claim(claim_fn_conf, (1, None), (1, None)),
    "fn-bar": Claim(claim_fn_bar, (1, None), (1, None)),
    "fn-exp": Claim(claim_fn_exp, (1, None), (1, None)),
}


def _admit(claim: str, flag: str, value: int,
           domain: tuple[int, Optional[int]]) -> None:
    """Refuses a value of ``flag`` outside a (least, most) domain."""
    least, most = domain
    if least <= value <= (value if most is None else most):
        return
    span = (f">= {least}" if most is None else
            str(least) if least == most else f"from {least} to {most}")
    raise ParameterError(f"claim {claim!r}: {flag} must be {span}")


def run_claim(claim: str, n: Optional[int], d: Optional[int], *,
              ceiling: int, budget_nd: int = DEFAULT_BUDGET_ND,
              space: str = "sphere") -> list[VerificationReport]:
    """Runs a claim of :data:`CLAIMS` once n, d and the space are in its
    domain and n times the space's dimension is within ``budget_nd``;
    each report carries an equal share of the wall time."""
    if budget_nd < 0:
        raise ParameterError("--budget-nd must be >= 0")
    if claim not in CLAIMS:
        raise ParameterError(f"unknown claim {claim!r}; choose from "
                             f"{', '.join(sorted(CLAIMS))}")
    entry = CLAIMS[claim]
    if space not in ("sphere", "torus"):
        raise ParameterError(f"unknown space {space!r}: use sphere or torus")
    if space == "torus" and not entry.torus:
        takers = " and ".join(k for k, c in CLAIMS.items() if c.torus)
        raise ParameterError(f"claim {claim!r} runs on spheres only; --space "
                             f"torus is for {takers}")
    if n is None:
        raise ParameterError(f"claim {claim!r} needs -n")
    _admit(claim, "-n", n, entry.n)
    if space == "torus":
        if d not in (None, 2):
            raise ParameterError(f"--space torus has dimension 2, not -d {d}")
        d = 2
    elif d is None:
        if entry.default_d is None:
            raise ParameterError(f"claim {claim!r} needs -d")
        d = entry.default_d
    else:
        _admit(claim, "-d", d, entry.d)
    if n * d > budget_nd:
        raise BudgetError(
            f"n*d = {n * d} exceeds the budget of {budget_nd}; "
            f"re-run with a higher --budget-nd if you mean it")
    t0 = time.perf_counter()
    reports = entry.run(n, d, {"ceiling": ceiling, "space": space})
    elapsed = time.perf_counter() - t0
    for rep in reports:
        rep.wall_time = elapsed / len(reports)
    return reports
