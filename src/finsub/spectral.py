"""Rational spectral sequence of a filtered chain complex.

Pages and differential ranks are computed from the rank function of the
filtration: with rho_m(c, s) the rank of the block of the degree-m
boundary with columns of filtration <= c and rows of filtration > s,

  dim E^r_{p,q} = f_m(p) - f_m(p-1) - rho_m(p, p-r) + rho_m(p-1, p-r)
                  + rho_{m+1}(p+r-1, p) - rho_{m+1}(p+r-1, p-1)

  rank d_r at (p,q) = rho_m(p, p-r-1) - rho_m(p, p-r)
                      - rho_m(p-1, p-r-1) + rho_m(p-1, p-r)

for m = p + q.  All ranks are exact integer computations; no floating
point is involved anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from .simplicial import BasedSimplicialSet
from .snf import SparseIntMatrix, rank
from .subsetspace import DEFAULT_CELL_CEILING, keyed_complex


@dataclass
class FilteredComplex:
    """Chain complex over Q (stored integrally) with a filtration level
    attached to every basis element; boundaries never raise the level."""

    dims: list[int]
    boundary: list[SparseIntMatrix]
    filt: list[list[int]]
    n: int

    def __post_init__(self):
        self._rank_cache: dict[tuple[int, int, int], int] = {}
        self._cum: list[list[int]] = []
        for m, levels in enumerate(self.filt):
            counts = [0] * (self.n + 2)
            for p in levels:
                counts[p + 1] += 1
            for i in range(1, self.n + 2):
                counts[i] += counts[i - 1]
            self._cum.append(counts)

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def monotonicity_violations(self) -> list[tuple[int, int, int]]:
        """Boundary entries that raise filtration, as (m, row, col)."""
        bad = []
        for m in range(1, len(self.dims)):
            fm, fm1 = self.filt[m], self.filt[m - 1]
            for r, c, _ in self.boundary[m].entries():
                if fm1[r] > fm[c]:
                    bad.append((m, r, c))
        return bad

    def f(self, m: int, p: int) -> int:
        """Number of degree-m basis elements of filtration <= p."""
        if not 0 <= m <= self.top_degree:
            return 0
        p = min(p, self.n)
        if p < 0:
            return 0
        return self._cum[m][p + 1]

    def rho(self, m: int, c: int, s: int) -> int:
        """Rank of the degree-m boundary block: columns <= c, rows > s."""
        if not 1 <= m <= self.top_degree:
            return 0
        c = min(c, self.n)
        s = max(s, -1)
        if c < 0 or s >= self.n:
            return 0
        key = (m, c, s)
        if key not in self._rank_cache:
            fm, fm1 = self.filt[m], self.filt[m - 1]
            rows_keep = {}
            cols_keep = {}
            sub = SparseIntMatrix(
                sum(1 for lv in fm1 if lv > s),
                sum(1 for lv in fm if lv <= c))
            ri = ci = 0
            for r, lv in enumerate(fm1):
                if lv > s:
                    rows_keep[r] = ri
                    ri += 1
            for col, lv in enumerate(fm):
                if lv <= c:
                    cols_keep[col] = ci
                    ci += 1
            for r, col, v in self.boundary[m].entries():
                if r in rows_keep and col in cols_keep:
                    sub.set(rows_keep[r], cols_keep[col], v)
            self._rank_cache[key] = rank(sub)
        return self._rank_cache[key]

    def dim_e(self, r: int, p: int, q: int) -> int:
        m = p + q
        if not 0 <= m <= self.top_degree or not 0 <= p <= self.n:
            return 0
        return (self.f(m, p) - self.f(m, p - 1)
                - self.rho(m, p, p - r) + self.rho(m, p - 1, p - r)
                + self.rho(m + 1, p + r - 1, p) - self.rho(m + 1, p + r - 1, p - 1))

    def rank_d(self, r: int, p: int, q: int) -> int:
        m = p + q
        if not 0 <= m <= self.top_degree or not 0 <= p <= self.n:
            return 0
        return (self.rho(m, p, p - r - 1) - self.rho(m, p, p - r)
                - self.rho(m, p - 1, p - r - 1) + self.rho(m, p - 1, p - r))

    def betti(self) -> list[int]:
        """Rational Betti numbers of the total complex."""
        out = []
        for m in range(self.top_degree + 1):
            rk_out = self.rho(m, self.n, -1)
            rk_in = self.rho(m + 1, self.n, -1)
            out.append(self.dims[m] - rk_out - rk_in)
        return out

    def euler_characteristic(self) -> int:
        return sum((-1) ** m * d for m, d in enumerate(self.dims))


@dataclass
class Page:
    """One page of the spectral sequence: dims and differential ranks.

    d_r maps (p, q) to (p - r, q + r - 1); ``dranks`` records the rank
    of the differential leaving each node (nonzero entries only).
    """

    r: int
    dims: dict[tuple[int, int], int] = field(default_factory=dict)
    dranks: dict[tuple[int, int], int] = field(default_factory=dict)

    def dim(self, p: int, q: int) -> int:
        return self.dims.get((p, q), 0)

    def entries(self) -> list[tuple[int, int, int]]:
        return sorted((p, q, d) for (p, q), d in self.dims.items())

    def total_dims(self) -> dict[int, int]:
        totals: dict[int, int] = {}
        for (p, q), d in self.dims.items():
            totals[p + q] = totals.get(p + q, 0) + d
        return totals

    def euler_characteristic(self) -> int:
        return sum((-1) ** m * d for m, d in self.total_dims().items())

    def is_stable(self) -> bool:
        return not self.dranks

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "entries": [{"p": p, "q": q, "dim": d} for p, q, d in self.entries()],
            "differentials": [
                {"from": [p, q], "rank": rk}
                for (p, q), rk in sorted(self.dranks.items())],
        }


def _page(f: FilteredComplex, r: int) -> Page:
    page = Page(r)
    for m in range(f.top_degree + 1):
        for p in range(f.n + 1):
            q = m - p
            d = f.dim_e(r, p, q)
            if d < 0:
                raise AssertionError(f"negative dim at E^{r}_{p},{q}")
            if d:
                page.dims[(p, q)] = d
    for (p, q) in page.dims:
        rk = f.rank_d(r, p, q)
        if rk:
            page.dranks[(p, q)] = rk
    return page


def e1_page(f: FilteredComplex) -> Page:
    """First page: homology of the associated graded complex, with the
    induced differential's ranks."""
    return _page(f, 1)


def advance(page: Page, f: FilteredComplex) -> Page:
    """Next page: homology of the current one at every node.

    The new dimensions are current dims minus the ranks of the
    differentials leaving and entering each node; the closed-form rank
    expression is asserted against this as an internal consistency
    check.
    """
    r = page.r
    nxt = Page(r + 1)
    nodes = set(page.dims)
    for (p, q) in nodes:
        out_rk = page.dranks.get((p, q), 0)
        in_rk = page.dranks.get((p + r, q - r + 1), 0)
        d = page.dims[(p, q)] - out_rk - in_rk
        if d < 0:
            raise AssertionError(f"negative dim advancing E^{r} at ({p},{q})")
        want = f.dim_e(r + 1, p, q)
        if d != want:
            raise AssertionError(
                f"page advance inconsistent at ({p},{q}): {d} vs {want}")
        if d:
            nxt.dims[(p, q)] = d
    for (p, q) in nxt.dims:
        rk = f.rank_d(r + 1, p, q)
        if rk:
            nxt.dranks[(p, q)] = rk
    return nxt


def limit_page(f: FilteredComplex) -> Page:
    """E^infinity: advance until no differential can move (r > n)."""
    page = e1_page(f)
    while page.r <= f.n:
        page = advance(page, f)
    return page


def einfty_totals(f: FilteredComplex) -> list[int]:
    """Total-degree dimensions of the limit page; these must equal the
    rational Betti numbers of the filtered complex."""
    totals = limit_page(f).total_dims()
    return [totals.get(m, 0) for m in range(f.top_degree + 1)]


def filtered_complex(x: BasedSimplicialSet, n: int, variant: str = "bar", *,
                     ceiling: int = DEFAULT_CELL_CEILING) -> FilteredComplex:
    """The points-count filtration of a subset-space variant's chains.

    A basis key's level is its size.  For the quotient variants ("bar"
    and "based") the chains are taken relative to the basepoint, so the
    total homology is the reduced homology of the top stage.
    """
    if variant not in ("exp", "based", "bar"):
        raise ValueError(f"unknown filtration variant {variant!r}")
    complex_ = keyed_complex(x, n, variant, relative=variant != "exp",
                             ceiling=ceiling)
    filt = [[len(key) for key in keys] for keys in complex_.basis]
    f = FilteredComplex(complex_.dims, complex_.boundary, filt, n)
    bad = f.monotonicity_violations()
    if bad:
        raise AssertionError(f"filtration not respected by boundary: {bad[:3]}")
    return f
