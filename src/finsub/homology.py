"""Exact integer chain-complex machinery.

Normalized and relative chain complexes of simplicial sets, homology
groups via sparse Smith normal form, homology generator bases, induced
maps, connecting homomorphisms and long-exact-sequence rank checks.

Conventions: a chain complex stores degrees 0..D with boundary[k]
mapping degree k to k-1; boundary[0] is the augmentation row for
reduced complexes and empty otherwise.  Cochain complexes reuse the
same container with boundary[k] mapping degree k-1 to k.
"""

from __future__ import annotations

from math import gcd
from typing import Iterator, Optional

from .simplicial import SimplicialMap, SpaceLike, underlying
from .snf import (
    SparseIntMatrix,
    _untracked_diagonal,
    _untracked_rank,
    diagonalize,
    divisor_chain,
    invariant_factors,
    kernel_lattice,
    rank,
)


class HomologyGroup:
    """Finitely generated abelian group: free rank plus invariant-factor
    torsion list (each >= 2, each dividing the next).  A value: equal
    groups hash alike."""

    __slots__ = ("rank", "torsion")

    def __init__(self, rank: int, torsion: tuple[int, ...] = ()):
        if rank < 0:
            raise ValueError("negative rank")
        for t in torsion:
            if t < 2:
                raise ValueError("torsion coefficients must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion must form a divisibility chain")
        self.rank = rank
        self.torsion = torsion

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rank == other.rank and self.torsion == other.torsion

    def __hash__(self) -> int:
        return hash((self.rank, self.torsion))

    def __repr__(self) -> str:
        return f"HomologyGroup(rank={self.rank!r}, torsion={self.torsion!r})"

    @property
    def trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def torsion_order(self) -> int:
        out = 1
        for t in self.torsion:
            out *= t
        return out

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json(self, degree: int) -> dict:
        return {"degree": degree, "rank": self.rank, "torsion": list(self.torsion)}


class ChainComplex:
    """Bounded complex of free Z-modules with sparse integer boundaries.

    ``basis`` optionally records which simplex (or subset key) each
    basis element came from, which chain maps and restrictions need.
    """

    def __init__(self, dims: list[int], boundary: list[SparseIntMatrix],
                 reduced: bool = False, cochain: bool = False,
                 basis: Optional[list[list[int]]] = None):
        if len(boundary) != len(dims):
            raise ValueError("need one boundary matrix per degree")
        self.dims = list(dims)
        self.boundary = boundary
        self.reduced = reduced
        self.cochain = cochain
        self.basis = basis
        for k in range(len(dims)):
            want_cols = dims[k - 1] if (cochain and k) else dims[k]
            if not cochain:
                want_rows = dims[k - 1] if k else (1 if reduced else 0)
            else:
                want_rows = dims[k]
            if k == 0 and cochain:
                want_cols = 0
            b = boundary[k]
            if (b.rows, b.cols) != (want_rows, want_cols):
                raise ValueError(
                    f"boundary[{k}] has shape {b.rows}x{b.cols}, "
                    f"expected {want_rows}x{want_cols}")

    @property
    def top_degree(self) -> int:
        return len(self.dims) - 1

    def out_matrix(self, k: int) -> SparseIntMatrix:
        """Differential leaving degree k."""
        if self.cochain:
            if k + 1 <= self.top_degree:
                return self.boundary[k + 1]
            return SparseIntMatrix(0, self.dims[k])
        return self.boundary[k]

    def in_matrix(self, k: int) -> SparseIntMatrix:
        """Differential arriving at degree k."""
        if self.cochain:
            return self.boundary[k]
        if k + 1 <= self.top_degree:
            return self.boundary[k + 1]
        return SparseIntMatrix(self.dims[k], 0)

    def validate(self) -> list[tuple[int, int]]:
        """Columns where the double differential fails to vanish.

        Each product column is summed into one dense list per degree,
        with the +-1 entries of the inner column added without a
        multiplication, and only the rows it touched are read and reset.
        """
        bad = []
        for k in range(len(self.dims)):
            outer = self.out_matrix(k)
            inner = self.in_matrix(k)
            if outer.rows == 0 or inner.cols == 0:
                continue
            outer_cols = [outer.column(j) for j in range(outer.cols)]
            acc = [0] * outer.rows
            for c in range(inner.cols):
                touched: list[int] = []
                for j, x in inner.column(c).items():
                    col = outer_cols[j]
                    touched.extend(col)
                    if x == 1:
                        for r, v in col.items():
                            acc[r] += v
                    elif x == -1:
                        for r, v in col.items():
                            acc[r] -= v
                    else:
                        for r, v in col.items():
                            acc[r] += v * x
                nonzero = False
                for r in touched:
                    if acc[r]:
                        nonzero = True
                        acc[r] = 0
                if nonzero:
                    bad.append((k, c))
        return bad

    def assert_valid(self) -> None:
        """Raise unless d.d=0 holds on every column."""
        bad = self.validate()
        if bad:
            raise RuntimeError(f"double differential nonzero at {bad[:3]}")

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.dims))


def euler_characteristic(c: ChainComplex) -> int:
    """Alternating sum of basis sizes (augmentation row not counted)."""
    return c.euler_characteristic()


# ----------------------------------------------------------------------
# Complexes of spaces
# ----------------------------------------------------------------------

def normalized_complex(space: SpaceLike, reduced: bool = False,
                       maxdeg: Optional[int] = None) -> ChainComplex:
    """Normalized chains: basis the non-degenerate simplices, boundary the
    alternating face sum with degenerate targets dropped.

    Homology in degree k is trustworthy for k <= maxdeg - 1.
    """
    xs = underlying(space)
    if maxdeg is None:
        maxdeg = xs.trunc
    if maxdeg > xs.trunc:
        raise ValueError(f"maxdeg {maxdeg} exceeds truncation {xs.trunc}")
    basis = [xs.nondegenerate(k) for k in range(maxdeg + 1)]
    dims = [len(b) for b in basis]
    boundary = [SparseIntMatrix(1 if reduced else 0, dims[0])]
    if reduced:
        for j in range(dims[0]):
            boundary[0].set(0, j, 1)
    for k in range(1, maxdeg + 1):
        mat = SparseIntMatrix(dims[k - 1], dims[k])
        fmaps = xs.faces[k]
        idx = {s: i for i, s in enumerate(basis[k - 1])}
        for j, cell in enumerate(basis[k]):
            sign = 1
            for i in range(k + 1):
                t = idx.get(fmaps[i][cell])
                if t is not None:
                    mat.add(t, j, sign)
                sign = -sign
        boundary.append(mat)
    c = ChainComplex(dims, boundary, reduced=reduced, basis=basis)
    c.assert_valid()
    return c


def _submatrix(m: SparseIntMatrix, rows: list[int], cols: list[int]
               ) -> SparseIntMatrix:
    """The entries of ``m`` on the given rows and columns, in their order."""
    pos = {r: i for i, r in enumerate(rows)}
    out = SparseIntMatrix(len(rows), len(cols))
    for j, c in enumerate(cols):
        for r, v in m.column(c).items():
            if r in pos:
                out.set(pos[r], j, v)
    return out


def _restrict(c: ChainComplex, picks: list[list[int]], reduced: bool = False
              ) -> ChainComplex:
    """``c`` on the basis positions ``picks[k]`` of each degree k, in that
    order (a quotient or subquotient complex when the cells left out
    span a subcomplex); ``reduced`` keeps a reduced ``c``'s augmentation."""
    boundary = [_submatrix(c.boundary[0], [0] if reduced else [], picks[0])]
    boundary += [_submatrix(c.boundary[k], picks[k - 1], picks[k])
                 for k in range(1, len(picks))]
    return ChainComplex([len(p) for p in picks], boundary, reduced=reduced,
                        basis=[[cells[i] for i in p]
                               for cells, p in zip(c.basis, picks)])


def _relative(x: SpaceLike, a: Optional[SimplicialMap], maxdeg: Optional[int]
              ) -> tuple[ChainComplex, ChainComplex, list[list[int]]]:
    """The normalized complex of x through ``maxdeg`` (by default the
    lower truncation), its restriction to the cells outside im(a), d.d
    checked, and their positions in it; all of it when ``a`` is None.

    Refuses ``a`` unless it lands in x, is defined through ``maxdeg``,
    is injective and has an image closed under faces and degeneracies.
    """
    if a is None:
        cx = normalized_complex(x, maxdeg=maxdeg)
        return cx, cx, [list(range(n)) for n in cx.dims]
    xs = underlying(x)
    tgt = underlying(a.target)
    if tgt is not xs and tgt != xs:
        raise ValueError("relative_complex: map does not land in the given space")
    if maxdeg is None:
        maxdeg = min(xs.trunc, a.trunc)
    if maxdeg > a.trunc:
        raise ValueError("relative_complex: subspace map truncated below maxdeg")
    if not a.is_injective():
        raise ValueError("relative_complex: subspace map must be injective")
    bad = a.violations()
    if bad:
        raise ValueError(
            f"relative_complex: image not closed under structure maps "
            f"({len(bad)} failures, first {bad[0]})")
    cx = normalized_complex(x, maxdeg=maxdeg)
    picks = [[i for i, s in enumerate(cells) if s not in img]
             for cells, img in zip(cx.basis, map(set, a.maps))]
    rel = _restrict(cx, picks)
    rel.assert_valid()
    return cx, rel, picks


def relative_complex(x: SpaceLike, a: Optional[SimplicialMap],
                     maxdeg: Optional[int] = None) -> ChainComplex:
    """Chains of x with the image of ``a`` (and degenerates) dropped.

    Computes the homology of the quotient x / im(a) in reduced form
    without materializing the quotient space: the normalized complex of
    x restricted to the cells outside im(a).  ``a=None`` degenerates to
    the plain unreduced complex of x.
    """
    return _relative(x, a, maxdeg)[1]


# ----------------------------------------------------------------------
# Homology groups
# ----------------------------------------------------------------------

def homology(c: ChainComplex, coeffs: str = "Z",
             through: Optional[int] = None) -> list[HomologyGroup]:
    """Homology (or cohomology, for cochain complexes) in degrees
    0..``through`` (default: all).

    rank H_k = dim_k - rank(out_k) - rank(in_k); torsion comes from the
    invariant factors of the incoming differential.  Rational mode
    reports ranks only.

    The differentials are eliminated in one pass, each after the one
    whose target is its source: a chain complex from the top degree
    down, a cochain complex from degree 0 up.  Each differential M is
    first streamed into a fully reduced +-1 echelon (see
    ``snf._unit_echelon``).  Let P be the rows it took as pivot rows
    and Q their pivot columns (Q avoids any columns left out of M, so
    M[P, Q] is a block of the full differential).  Every echelon row
    started as a row of M[P, :] and only ever received integer
    multiples of other echelon rows, so the echelon is A . M[P, :] for
    a product A of elementary row operations inside P: A is
    unimodular.  The echelon is a signed identity on Q, so
    M[P, Q] = A^-1 . (signed identity) is unimodular too; no division
    and no modulus is involved, only integer multiples of +-1 pivots.
    For the next differential N, d.d = 0 gives

        N[:, P] = -N[:, P^c] . M[P^c, Q] . M[P, Q]^-1,

    an integer combination of the other columns.  So N is eliminated
    with the columns P left out: its image lattice, rank and invariant
    factors stay the same.  This is the "clearing" of persistence
    (Chen-Kerber 2011; Bauer-Kerber-Reininghaus 2014); unit pivots are
    what make it exact over Z, and rows of the residue are not
    cleared, even where its elimination ends on a unit.

    A differential gets its invariant factors only when ``coeffs`` is
    "Z" and the degree that takes torsion from it -- k for boundary[k]
    of a cochain complex, k-1 for a chain complex -- is at most
    ``through``.  Every other one is eliminated for its rank alone,
    through the same echelon with the same clearing, and its stream
    stops once the rank is fixed (``snf._untracked_rank``):

    * the rows streamed so far are a subset of the rows of M, so their
      rank is a lower bound for rank M;
    * clearing leaves rank M unchanged, as above;
    * the differential N eliminated just before M ends where M starts,
      and M . N = 0 puts the image of N inside the kernel of M, so
      rank M <= M.cols - rank N; once the streamed rows reach that
      bound, rank M is fixed;
    * the echelon at the stop is still A . M[P, :] for its pivot rows
      P and a unimodular A, so M[P, Q] is unimodular as above, and
      clearing the next differential by P stays exact.

    The ranks of every degree are checked against its cell count, the
    unreported ones too.  The pass itself is :func:`_eliminated`;
    :func:`homology_basis` runs its rank-only form up to the
    differential arriving at its degree, for the same d.d bound on the
    differential whose kernel it needs.
    """
    if coeffs not in ("Z", "Q"):
        raise ValueError("coeffs must be 'Z' or 'Q'")
    top = c.top_degree
    if through is None:
        through = top
    elif not 0 <= through <= top:
        raise ValueError(f"through must be in 0..{top}, got {through}")
    ranks: dict[int, int] = {}
    torsion: dict[int, tuple[int, ...]] = {}
    for k, r, t in _eliminated(c, through if coeffs == "Z" else None):
        ranks[k] = r
        torsion[k] = t
    out: list[HomologyGroup] = []
    for k in range(top + 1):
        out_key, in_key = (k + 1, k) if c.cochain else (k, k + 1)
        out_rank = ranks.get(out_key, 0)
        in_rank = ranks.get(in_key, 0)
        r = c.dims[k] - out_rank - in_rank
        if r < 0:
            raise RuntimeError(
                f"degree {k}: {c.dims[k]} cells but differential ranks "
                f"{out_rank} out + {in_rank} in")
        if k <= through:
            out.append(HomologyGroup(r, torsion.get(in_key, ())))
    return out


def _eliminated(c: ChainComplex, torsion_through: Optional[int] = None
                ) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """Eliminate the differentials of ``c`` in :func:`homology`'s order
    and yield ``(k, rank, torsion)`` for each boundary[k] as it is done.

    Torsion is computed for the differentials that give torsion to a
    degree <= ``torsion_through`` (none when it is None); every other
    one is eliminated for its rank alone, stopping at the d.d bound,
    and yields no torsion.  A caller that stops iterating eliminates
    nothing further.
    """
    paired: set[int] = set()
    last_rank = 0
    for k in (range(c.top_degree + 1) if c.cochain
              else range(c.top_degree, -1, -1)):
        m = c.boundary[k]
        if torsion_through is not None and \
                (k if c.cochain else k - 1) <= torsion_through:
            pivot_rows, diagonal = _untracked_diagonal(m, paired)
            factors = divisor_chain(diagonal)
            last_rank = len(factors)
            yield k, last_rank, tuple(f for f in factors if f > 1)
        else:
            pivot_rows, last_rank = _untracked_rank(m, paired,
                                                    m.cols - last_rank)
            yield k, last_rank, ()
        paired = set(pivot_rows)


def _cycle_lattice(c: ChainComplex, k: int
                   ) -> tuple[list[dict[int, int]], int, list[dict[int, int]]]:
    """:func:`~finsub.snf.kernel_lattice` of the differential M leaving
    degree k, whose stream stops at the d.d bound when M has more rows
    than columns.  A degree outside 0..top is refused.

    The image arriving at degree k lies in ker M (d.d = 0), so
    rank M <= dims[k] - rank(in_k).  rank(in_k) comes from
    :func:`_eliminated`, run only until it reaches the incoming
    differential: the rank-only clearing pass of :func:`homology`.
    The bound is taken only when M has more rows than columns.  The
    stream can stop only where M has rows beyond its rank, and the
    shape alone promises rows - cols of them when that is positive:
    the bar coboundary leaving degree 2 for S_4 (12 167 x 529, rank
    506) stops after about 1 700 rows.  A wide M need have no such row.
    The wide differentials of subset spaces have a rank close to their
    row count, so a stop saves little of their stream, while the bound
    costs the rank pass over the differentials before M, and a bounded
    stream runs a rank check of its waiting rows each time its echelon
    grows past the bound.  On them the bounded call was the slower one.
    """
    if not 0 <= k <= c.top_degree:
        raise ValueError(f"degree must be in 0..{c.top_degree}, got {k}")
    m = c.out_matrix(k)
    if m.rows <= m.cols:
        return kernel_lattice(m)
    in_key = k if c.cochain else k + 1
    in_rank = 0 if in_key > c.top_degree else next(
        r for j, r, _ in _eliminated(c) if j == in_key)
    return kernel_lattice(m, m.cols - in_rank)


def betti_numbers(c: ChainComplex) -> list[int]:
    return [g.rank for g in homology(c, "Q")]


def space_homology(space: SpaceLike, reduced: bool = False,
                   maxdeg: Optional[int] = None, coeffs: str = "Z"
                   ) -> list[HomologyGroup]:
    """Homology of a space through its normalized complex.

    Only degrees <= maxdeg - 1 are returned (the trusted range).
    """
    c = normalized_complex(space, reduced=reduced, maxdeg=maxdeg)
    return homology(c, coeffs, through=max(c.top_degree - 1, 0))


# ----------------------------------------------------------------------
# Generator bases
# ----------------------------------------------------------------------

class HomologyBasis:
    """Presentation of one homology group with explicit generator chains.

    Generators are chains in the complex's degree-k basis; ``coords``
    writes an arbitrary cycle in these generators (torsion coordinates
    reduced mod their orders).
    """

    def __init__(self, degree: int, group: HomologyGroup,
                 free_gens: list[dict[int, int]],
                 torsion_gens: list[dict[int, int]], torsion_orders: list[int],
                 _out_matrix: SparseIntMatrix,
                 _vinv_bottom: list[dict[int, int]],
                 _u2_rows: list[dict[int, int]], _b_factors: list[int]):
        self.degree = degree
        self.group = group
        self.free_gens = free_gens
        self.torsion_gens = torsion_gens
        self.torsion_orders = torsion_orders
        self._out_matrix = _out_matrix
        self._vinv_bottom = _vinv_bottom
        self._u2_rows = _u2_rows
        self._b_factors = _b_factors

    def coords(self, cycle: dict[int, int]) -> tuple[list[int], list[int]]:
        """(free coordinates, torsion coordinates) of a cycle's class."""
        if self._out_matrix.mul_col(cycle):
            raise ValueError("chain is not a cycle")
        x = [sum(w * cycle.get(l, 0) for l, w in row.items())
             for row in self._vinv_bottom]
        y = [sum(w * x[j] for j, w in row.items()) for row in self._u2_rows]
        s = len(self._b_factors)
        tors = [y[i] % d for i, d in enumerate(self._b_factors) if d > 1]
        free = y[s:]
        return free, tors


def homology_basis(c: ChainComplex, k: int) -> HomologyBasis:
    """Generators of H_k with the chain-level data to express cycles.

    The kernel lattice of the outgoing differential, with coordinate
    rows for it, is read off its unit echelon
    (:func:`finsub.snf.kernel_lattice`), so only the echelon's residue
    is eliminated with a tracked column transform; on a tall
    differential its row stream stops at the d.d bound
    (:func:`_cycle_lattice`).  The incoming image b is rewritten in
    kernel coordinates and its transpose put in Smith form with a
    tracked column transform: from U.b.V = D follows V^T.b^T.U^T = D^T,
    so the V of b^T is the U^T of b, in the same order of invariant
    factors.  The generators are the kernel combinations given by the
    columns of U^-1 (the rows of that V^-1), and the rows of U (the
    columns of that V) give a cycle's coordinates in them.  A degree
    outside 0..top is refused.
    """
    kernel, _, vinv_bottom = _cycle_lattice(c, k)
    dk = c.out_matrix(k)
    dk1 = c.in_matrix(k)
    z = len(kernel)
    dk1_rows = dk1.row_dicts()
    b = SparseIntMatrix(z, dk1.cols)
    for i, w in enumerate(vinv_bottom):
        acc: dict[int, int] = {}
        for l, wl in w.items():
            for col, v in dk1_rows[l].items():
                nv = acc.get(col, 0) + wl * v
                if nv:
                    acc[col] = nv
                else:
                    del acc[col]
        for col, v in acc.items():
            b.set(i, col, v)
    res2 = diagonalize(b.transpose())
    factors = res2.factors
    s = len(factors)
    uinv_cols = res2.Vinv.row_dicts()
    gens: list[dict[int, int]] = []
    for i in range(z):
        chain: dict[int, int] = {}
        for j, w in uinv_cols[i].items():
            for l, v in kernel[j].items():
                nv = chain.get(l, 0) + w * v
                if nv:
                    chain[l] = nv
                else:
                    del chain[l]
        gens.append(chain)
    torsion_gens = [gens[i] for i in range(s) if factors[i] > 1]
    torsion_orders = [f for f in factors if f > 1]
    free_gens = gens[s:]
    group = HomologyGroup(z - s, tuple(torsion_orders))
    return HomologyBasis(k, group, free_gens, torsion_gens, torsion_orders,
                         dk, vinv_bottom, [res2.V.column(i) for i in range(z)],
                         factors)


# ----------------------------------------------------------------------
# Induced and connecting maps
# ----------------------------------------------------------------------

class HomologyMapDescription:
    """A homology-level map reported on free parts.

    ``free_matrix`` is target-free-rank x source-free-rank in the
    engine's generator bases; ``torsion_images`` gives, per source free
    generator, its coordinates in the target torsion generators (so
    images of infinite-order classes that become torsion stay visible).
    Descriptions with equal fields are equal.
    """

    def __init__(self, degree_source: int, degree_target: int,
                 source: HomologyGroup, target: HomologyGroup,
                 free_matrix: list[list[int]],
                 torsion_images: list[list[int]], kernel_rank: int,
                 cokernel_rank: int):
        self.degree_source = degree_source
        self.degree_target = degree_target
        self.source = source
        self.target = target
        self.free_matrix = free_matrix
        self.torsion_images = torsion_images
        self.kernel_rank = kernel_rank
        self.cokernel_rank = cokernel_rank

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def free_index(self) -> Optional[int]:
        """|determinant| when the free matrix is square and nonzero-rank;
        the absolute scale of the map on free parts."""
        n = self.source.rank
        if n != self.target.rank or n == 0:
            return None
        from .snf import SparseIntMatrix as _M
        det_factors = invariant_factors(_M.from_dense(self.free_matrix))
        if len(det_factors) < n:
            return 0
        out = 1
        for f in det_factors:
            out *= f
        return out

    def image_orders(self) -> list[int]:
        """Order of the image of each source free generator in the target
        (0 means infinite order)."""
        orders = []
        tors = self.target.torsion
        for col in range(self.source.rank):
            if any(self.free_matrix[row][col] for row in range(self.target.rank)):
                orders.append(0)
                continue
            order = 1
            for i, t in enumerate(tors):
                v = self.torsion_images[col][i] % t
                if v:
                    order = _lcm(order, t // gcd(v, t))
            orders.append(order)
        return orders


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _assemble_description(src_basis: HomologyBasis, tgt_basis: HomologyBasis,
                          images: list[dict[int, int]]) -> HomologyMapDescription:
    free_cols = []
    tors_cols = []
    for img in images:
        free, tors = tgt_basis.coords(img)
        free_cols.append(free)
        tors_cols.append(tors)
    tr = tgt_basis.group.rank
    sr = src_basis.group.rank
    free_matrix = [[free_cols[c][r] for c in range(sr)] for r in range(tr)]
    mat = SparseIntMatrix.from_triplets(
        tr, sr, [(r, c, free_matrix[r][c]) for r in range(tr) for c in range(sr)
                 if free_matrix[r][c]])
    rk = rank(mat)
    return HomologyMapDescription(
        degree_source=src_basis.degree, degree_target=tgt_basis.degree,
        source=src_basis.group, target=tgt_basis.group,
        free_matrix=free_matrix, torsion_images=tors_cols,
        kernel_rank=sr - rk, cokernel_rank=tr - rk)


def chain_map_matrix(f: SimplicialMap, k: int, src: ChainComplex,
                     tgt: ChainComplex) -> SparseIntMatrix:
    """Matrix of a simplicial map on degree-k normalized chains.

    Basis cells mapping to degenerate or dropped simplices contribute 0.
    """
    if src.basis is None or tgt.basis is None:
        raise ValueError("chain maps need complexes with simplex bases")
    mat = SparseIntMatrix(tgt.dims[k], src.dims[k])
    tidx = {s: i for i, s in enumerate(tgt.basis[k])}
    mp = f.maps[k]
    for j, cell in enumerate(src.basis[k]):
        t = tidx.get(mp[cell])
        if t is not None:
            mat.set(t, j, 1)
    return mat


def induced_map(f: SimplicialMap, k: int,
                source_complex: Optional[ChainComplex] = None,
                target_complex: Optional[ChainComplex] = None
                ) -> HomologyMapDescription:
    """Map induced on degree-k homology by a simplicial map."""
    src = source_complex or normalized_complex(
        f.source, maxdeg=min(k + 1, f.source.trunc))
    tgt = target_complex or normalized_complex(
        f.target, maxdeg=min(k + 1, f.target.trunc))
    fmat = chain_map_matrix(f, k, src, tgt)
    src_basis = homology_basis(src, k)
    tgt_basis = homology_basis(tgt, k)
    images = [fmat.mul_col(g) for g in src_basis.free_gens]
    return _assemble_description(src_basis, tgt_basis, images)


def _subspace_block(cx: ChainComplex, a: SimplicialMap, k: int,
                    tgt: ChainComplex, cols: list[int]) -> SparseIntMatrix:
    """boundary[k] of x's chains ``cx`` on ``cols``, with rows at a(t) for
    each t in the degree k-1 basis of ``tgt``, a complex of a's source.
    Each a(t) is a cell of ``cx``: a(t) = s_j y for an injective simplicial
    a would give a(s_j d_j t) = s_j d_j a(t) = a(t), so t = s_j d_j t."""
    at = {s: i for i, s in enumerate(cx.basis[k - 1])}
    fk = a.maps[k - 1]
    return _submatrix(cx.boundary[k], [at[fk[t]] for t in tgt.basis[k - 1]],
                      cols)


def _connecting_chains(x: SpaceLike, a: SimplicialMap, k: int,
                       rel: Optional[SimplicialMap]
                       ) -> tuple[ChainComplex, ChainComplex, SparseIntMatrix]:
    """(source, target, block) of the connecting map in degree k, for
    :func:`zigzag_map`: the source is x / a and the block is read off the
    same build of x's chains."""
    if k < 1:
        raise ValueError("connecting maps start in degree >= 1")
    trunc = min(underlying(x).trunc, a.trunc)
    if trunc < k + 1:
        raise ValueError(
            f"connecting map in degree {k} needs truncation >= {k + 1}, have {trunc}")
    cx, src, picks = _relative(x, a, k + 1)
    if rel is None:
        tgt = normalized_complex(a.source, reduced=True, maxdeg=k)
    else:
        tgt = relative_complex(a.source, rel, maxdeg=k)
    return src, tgt, _subspace_block(cx, a, k, tgt, picks[k])


def zigzag_map(src: ChainComplex, tgt: ChainComplex, block: SparseIntMatrix,
               k: int) -> HomologyMapDescription:
    """Connecting homomorphism H_k(src) -> H_{k-1}(tgt) by the chain-level
    zigzag: a relative cycle lifts to itself, and ``block`` writes the
    faces of its cells that land on subspace cells in the degree k-1
    basis of ``tgt``.
    """
    src_basis = homology_basis(src, k)
    tgt_basis = homology_basis(tgt, k - 1)
    images = [block.mul_col(g) for g in src_basis.free_gens]
    return _assemble_description(src_basis, tgt_basis, images)


def zigzag_free_index(src: ChainComplex, tgt: ChainComplex,
                      block: SparseIntMatrix, k: int) -> int:
    """|d| on free parts of :func:`zigzag_map` when the target free part
    has rank 1.

    The image subgroup of the target's free quotient is generated by the
    images of any lattice basis of the relative cycles, because torsion
    classes die in a free quotient; the index is the gcd of those image
    coordinates.  This avoids presenting the (possibly huge) source
    homology group.  The cycle lattice stops at the d.d bound as in
    :func:`homology_basis`.
    """
    tgt_basis = homology_basis(tgt, k - 1)
    if tgt_basis.group.rank != 1:
        raise ValueError("fast path needs a rank-1 target free part")
    g = 0
    for cycle in _cycle_lattice(src, k)[0]:
        free, _ = tgt_basis.coords(block.mul_col(cycle))
        g = gcd(g, free[0])
        if g == 1:
            break
    return g


def connecting_map(x: SpaceLike, a: SimplicialMap, k: int,
                   rel: Optional[SimplicialMap] = None) -> HomologyMapDescription:
    """Connecting homomorphism H_k(x/a) -> H_{k-1}(a) (or, with ``rel``,
    into H_{k-1}(a/rel)) of levelwise spaces, by :func:`zigzag_map`.
    """
    return zigzag_map(*_connecting_chains(x, a, k, rel), k)


def connecting_free_index(x: SpaceLike, a: SimplicialMap, k: int,
                          rel: Optional[SimplicialMap] = None) -> int:
    """|d| on free parts of :func:`connecting_map` when the target free
    part has rank 1, by :func:`zigzag_free_index`."""
    return zigzag_free_index(*_connecting_chains(x, a, k, rel), k)


# ----------------------------------------------------------------------
# Long exact sequence rank checks
# ----------------------------------------------------------------------

class LesNode:
    def __init__(self, degree: int, kind: str, betti: int,
                 group: Optional[HomologyGroup], rank_in: int, rank_out: int):
        self.degree = degree
        self.kind = kind  # "A", "X", "XA"
        self.betti = betti
        self.group = group
        self.rank_in = rank_in
        self.rank_out = rank_out

    @property
    def exact(self) -> bool:
        return self.rank_in + self.rank_out == self.betti


class LesReport:
    def __init__(self, nodes: Optional[list[LesNode]] = None):
        self.nodes = [] if nodes is None else nodes

    @property
    def ok(self) -> bool:
        return all(n.exact for n in self.nodes)

    def first_failure(self) -> Optional[LesNode]:
        for n in self.nodes:
            if not n.exact:
                return n
        return None

    def __str__(self) -> str:
        if self.ok:
            return f"exact at all {len(self.nodes)} nodes"
        n = self.first_failure()
        return (f"rank-exactness fails at H_{n.degree}({n.kind}): "
                f"in {n.rank_in} + out {n.rank_out} != betti {n.betti}")


def _induced_rank_q(fmat: SparseIntMatrix, src_out: SparseIntMatrix,
                    tgt_in: SparseIntMatrix) -> int:
    """Rank over Q of the induced map on homology.

    rank [F.Z | B] - rank B, with Z a cycle basis of the source and B
    the target boundaries; exact integer arithmetic throughout.
    """
    z_cols = kernel_lattice(src_out)[0]
    stacked = SparseIntMatrix(fmat.rows, len(z_cols) + tgt_in.cols)
    for j, zc in enumerate(z_cols):
        for r, v in fmat.mul_col(zc).items():
            stacked.set(r, j, v)
    for j in range(tgt_in.cols):
        for r, v in tgt_in.column(j).items():
            stacked.set(r, len(z_cols) + j, v)
    return rank(stacked) - rank(tgt_in)


def les_check(x: SpaceLike, a: Optional[SimplicialMap],
              maxdeg: Optional[int] = None,
              with_torsion: bool = True) -> LesReport:
    """Rank-exactness of H(A) -> H(X) -> H(X,A) -> H(A)[-1] over Q.

    Betti numbers and induced-map ranks are computed independently; the
    report carries the integral groups as torsion bookkeeping, and with
    ``with_torsion`` the Betti numbers are their ranks.  Degrees up to
    maxdeg-1 are checked.
    """
    cx, cxa, picks = _relative(x, a, maxdeg)
    maxdeg = cx.top_degree
    ca = (_restrict(cx, [[] for _ in cx.dims]) if a is None  # empty subspace
          else normalized_complex(a.source, reduced=False, maxdeg=maxdeg))
    # x / nothing is cx itself, so its homology is computed once
    if with_torsion:
        groups_a, groups_x = homology(ca), homology(cx)
        groups_xa = groups_x if cxa is cx else homology(cxa)
        betti_a, betti_x, betti_xa = ([g.rank for g in groups]
                                      for groups in (groups_a, groups_x, groups_xa))
    else:
        betti_a, betti_x = betti_numbers(ca), betti_numbers(cx)
        betti_xa = betti_x if cxa is cx else betti_numbers(cxa)

    # chain maps: inclusion i, projection j (cx onto the picked cells),
    # connecting block
    def imap(k: int) -> SparseIntMatrix:
        if a is None:
            return SparseIntMatrix(cx.dims[k], 0)
        return chain_map_matrix(a, k, ca, cx)

    def jmap(k: int) -> SparseIntMatrix:
        return SparseIntMatrix.from_triplets(
            cxa.dims[k], cx.dims[k], ((t, j, 1) for t, j in enumerate(picks[k])))

    rank_i = {}
    rank_j = {}
    rank_d = {}
    for k in range(maxdeg):
        rank_i[k] = _induced_rank_q(imap(k), ca.out_matrix(k), cx.in_matrix(k))
        rank_j[k] = _induced_rank_q(jmap(k), cx.out_matrix(k), cxa.in_matrix(k))
    for k in range(1, maxdeg + 1):
        if a is None:
            rank_d[k] = 0
            continue
        conn = _subspace_block(cx, a, k, ca, picks[k])
        rank_d[k] = _induced_rank_q(conn, cxa.out_matrix(k), ca.in_matrix(k - 1))
    report = LesReport()
    for k in range(maxdeg):
        report.nodes.append(LesNode(
            k, "X", betti_x[k], groups_x[k] if with_torsion else None,
            rank_in=rank_i[k], rank_out=rank_j[k]))
        report.nodes.append(LesNode(
            k, "XA", betti_xa[k], groups_xa[k] if with_torsion else None,
            rank_in=rank_j[k], rank_out=rank_d.get(k, 0)))
        report.nodes.append(LesNode(
            k, "A", betti_a[k], groups_a[k] if with_torsion else None,
            rank_in=rank_d.get(k + 1, 0), rank_out=rank_i[k]))
    return report


def homology_to_json(groups: list[HomologyGroup], **header) -> dict:
    out = dict(header)
    out["groups"] = [g.to_json(k) for k, g in enumerate(groups)]
    return out
