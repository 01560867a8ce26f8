"""Rational spectral sequence of a filtered chain complex.

Pages and differential ranks are computed from the rank function of the
filtration: with rho_m(c, s) the rank of the block of the degree-m
boundary with columns of filtration <= c and rows of filtration > s,

  dim E^r_{p,q} = f_m(p) - f_m(p-1) - rho_m(p, p-r) + rho_m(p-1, p-r)
                  + rho_{m+1}(p+r-1, p) - rho_{m+1}(p+r-1, p-1)

  rank d_r at (p,q) = rho_m(p, p-r-1) - rho_m(p, p-r)
                      - rho_m(p-1, p-r-1) + rho_m(p-1, p-r)

for m = p + q.  The rank function comes from one fraction-free column
reduction per degree: by the pairing lemma of Cohen-Steiner,
Edelsbrunner and Morozov ("Vines and vineyards by updating persistence
in linear time", SoCG 2006) rho_m(c, s) counts the reduced columns of
level <= c whose lowest row has level > s.  Degrees are reduced from
the top down with the "twist" of Chen and Kerber ("Persistent homology
computation with a twist", EuroCG 2011), which skips the columns known
to reduce to zero.  Columns are only scaled by nonzero integers and
divided by their content, so every rank is exact over Q; no modular or
floating-point step is involved anywhere (argument at
:meth:`FilteredComplex.rho`).
"""

from __future__ import annotations

from collections import Counter
from math import gcd
from typing import Callable, Optional

from .homology import ChainComplex, _restrict
from .simplicial import BasedSimplicialSet
from .snf import SparseIntMatrix, _addmul
from .subsetspace import DEFAULT_CELL_CEILING, keyed_complex


class FilteredComplex:
    """Chain complex over Q (stored integrally) with a filtration level
    attached to every basis element; boundaries never raise the level."""

    def __init__(self, dims: list[int], boundary: list[SparseIntMatrix],
                 filt: list[list[int]], n: int):
        self.dims = dims
        self.boundary = boundary
        self.filt = filt
        self.n = n
        # rho_m(c, s) at [m][c][s + 1], filled on the first rho call
        self._rho_tables: Optional[dict[int, list[list[int]]]] = None
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
        """Rank of the degree-m boundary block: columns <= c, rows > s.

        The first call reduces every degree, from the top down (see
        :meth:`_reduce`); each call then counts the pivots whose column
        has level <= c and whose lowest row has level > s.

        Pairing lemma (Cohen-Steiner-Edelsbrunner-Morozov 2006).  Order
        both bases by (level, index).  The columns of level <= c are a
        prefix of that order and the rows of level > s a suffix.  Adding
        a multiple of an earlier column to a later one keeps the span of
        every prefix of columns, so it keeps the rank of every such
        block.  Once no two nonzero columns share a lowest row, the
        nonzero columns of the block with their lowest row inside it are
        independent there (their lowest rows differ), and the others
        are zero on those rows: the rank is their count.

        Exact over Q.  A column changes only to a*col - b*other with
        nonzero integers a, b and other earlier, or to col / content.
        Over Q that is an earlier-to-later column operation followed by
        a nonzero scaling, and scaling a column changes no span, so the
        count equals the rank that rational elimination of the block
        gives.  Every value stays an integer.

        Twist (Chen-Kerber 2011).  Let z be a reduced column of the
        degree-(m+1) boundary with lowest row j.  It is a boundary, so
        the degree-m boundary kills it, and as z_j != 0 column j of that
        boundary is a rational combination of the columns before j.
        Subtracting that combination zeroes column j with one more
        column operation of the kind above, so skipping column j leaves
        every pair and every rank unchanged.
        """
        if not 1 <= m <= self.top_degree:
            return 0
        c = min(c, self.n)
        s = max(s, -1)
        if c < 0 or s >= self.n:
            return 0
        if self._rho_tables is None:
            self._rho_tables = {}
            cleared: set[int] = set()
            for k in range(self.top_degree, 0, -1):
                pairs, cleared = self._reduce(k, cleared)
                counts = Counter(pairs)
                self._rho_tables[k] = [
                    [sum(w for (cl, ll), w in counts.items() if cl <= cc and ll > ss)
                     for ss in range(-1, self.n)]
                    for cc in range(self.n + 1)]
        return self._rho_tables[m][c][s + 1]

    def _reduce(self, m: int, cleared: set[int]
                ) -> tuple[list[tuple[int, int]], set[int]]:
        """Reduce the degree-m boundary left to right; return the level
        pairs (column level, lowest-row level) of its pivots and the
        degree-(m-1) cells that are lowest rows, which the reduction of
        degree m-1 skips.

        Both bases are ordered by (level, index).  A column whose
        lowest row is already some reduced column's is replaced by
        a*col - b*other with a, b nonzero integers that cancel that row,
        until its lowest row is new or it is zero; a new pivot column is
        divided by its content and stored with a positive lowest entry,
        so a is 1 whenever that entry divides the column's.  Columns in
        ``cleared`` (the lowest rows of the reduced degree-(m+1)
        boundary) are left out: they would reduce to zero.
        """
        levels, row_levels = self.filt[m], self.filt[m - 1]
        rows = sorted(range(len(row_levels)), key=row_levels.__getitem__)
        pos = {r: p for p, r in enumerate(rows)}
        bd = self.boundary[m]
        reduced: dict[int, dict[int, int]] = {}  # lowest row -> column
        pairs: list[tuple[int, int]] = []
        for j in sorted(range(len(levels)), key=levels.__getitem__):
            if j in cleared:
                continue
            col = {pos[r]: v for r, v in bd.column(j).items()}
            while col:
                low = max(col)
                other = reduced.get(low)
                if other is None:
                    content = gcd(*col.values())
                    if col[low] < 0:
                        content = -content
                    if content != 1:
                        col = {r: v // content for r, v in col.items()}
                    reduced[low] = col
                    pairs.append((levels[j], row_levels[rows[low]]))
                    break
                a, b = other[low], col[low]
                g = gcd(a, b)
                if g != a:
                    col = {r: (a // g) * v for r, v in col.items()}
                _addmul(col, other, -(b // g))
        return pairs, {rows[low] for low in reduced}

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


class Page:
    """One page of the spectral sequence: dims and differential ranks.

    d_r maps (p, q) to (p - r, q + r - 1); ``dranks`` records the rank
    of the differential leaving each node (nonzero entries only).  Pages
    with the same r, dims and ranks are equal.
    """

    def __init__(self, r: int, dims: Optional[dict[tuple[int, int], int]] = None,
                 dranks: Optional[dict[tuple[int, int], int]] = None):
        self.r = r
        self.dims = {} if dims is None else dims
        self.dranks = {} if dranks is None else dranks

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

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


def pages(f: FilteredComplex) -> list[Page]:
    """E^1 through E^(n+1), the first page no differential leaves."""
    out = [e1_page(f)]
    while out[-1].r <= f.n:
        out.append(advance(out[-1], f))
    return out


def limit_page(f: FilteredComplex) -> Page:
    """E^infinity: the last of :func:`pages`."""
    return pages(f)[-1]


def einfty_totals(f: FilteredComplex) -> list[int]:
    """Total-degree dimensions of the limit page; these must equal the
    rational Betti numbers of the filtered complex."""
    totals = limit_page(f).total_dims()
    return [totals.get(m, 0) for m in range(f.top_degree + 1)]


def filtration(complex_: ChainComplex, points: Callable[[object], int],
               n: int, base: object = None) -> FilteredComplex:
    """``complex_`` filtered by ``points``, the level 0..n of each basis
    entry, and taken relative to its degree-0 entry ``base`` when one is
    given: a key's level is its size (:func:`filtered_complex`), a
    Fox-Neuwirth cell's its points (``finsub.fncells.points``).  No
    boundary entry may raise the level."""
    if base is not None:
        complex_ = _restrict(complex_, [[i for i, e in enumerate(basis)
                                         if k or e != base]
                                        for k, basis in enumerate(complex_.basis)])
    filt = [[points(entry) for entry in basis] for basis in complex_.basis]
    f = FilteredComplex(complex_.dims, complex_.boundary, filt, n)
    bad = f.monotonicity_violations()
    if bad:
        raise AssertionError(f"filtration not respected by boundary: {bad[:3]}")
    return f


def filtered_complex(x: BasedSimplicialSet, n: int, variant: str = "bar", *,
                     ceiling: int = DEFAULT_CELL_CEILING) -> FilteredComplex:
    """The points-count filtration of a subset-space variant's keyed
    chains.

    A basis key's level is its size.  For the quotient variants ("bar"
    and "based") the chains are taken relative to the basepoint, so the
    total homology is the reduced homology of the top stage.
    """
    if variant not in ("exp", "based", "bar"):
        raise ValueError(f"unknown filtration variant {variant!r}")
    base = {"exp": None, "based": (x.basepoint_at(0),), "bar": ()}[variant]
    return filtration(keyed_complex(x, n, variant, ceiling=ceiling), len, n,
                      base)
