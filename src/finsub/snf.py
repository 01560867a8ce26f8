"""Sparse exact integer linear algebra.

Everything here runs over arbitrary-precision integers: no floating point,
no modular shortcuts.  The entry points are

* :func:`smith_normal_form` -- invariant factors of an integer matrix;
* :func:`diagonalize` -- a diagonalization ``U @ M @ V = D``, with the
  invariant factors on the diagonal, that tracks the column transform V
  and its inverse; a row transform is the transposed V of the
  transpose;
* :func:`kernel_lattice` -- a basis of the integer kernel with
  coordinate rows for it, which is what homology presentations need;
  given a bound on the rank, its row stream stops once the bound is
  reached, as ``homology.homology_basis`` does with the d.d bound.

All of them run on one sparse elimination engine, with column
transform tracking switched on or off.  It prefers +-1 pivots in short
columns among the sparsest rows; once no unit entry is left, it pivots
on the entry of smallest absolute value and reduces by gcd remainders
until the pivot divides its row and column.

:func:`invariant_factors` and :func:`rank`, which need no transforms,
first stream the rows, sparsest first, into a fully reduced +-1 echelon
(Dumas-Saunders-Villard, "On efficient sparse integer matrix Smith
normal form computations", 2001): a row is dropped as soon as it
reduces to zero, where the engine would carry it to the end, and each
pivot row adds a factor 1.  A row left with no +-1 waits, unless a
waiting row equal to it up to sign is held already.  Rows are built
from the columns only shortly before they are streamed (in batches,
when a rank bound may stop the stream early) and let go once they have
been, so besides the echelon and its column index it holds only the
distinct waiting rows.  The waiting rows,
reduced again by the final echelon, form the residue; it is streamed
into a row echelon over Z by gcd steps, and the engine finishes on that
echelon.  :func:`rank` stops at that row echelon: its rows count the
residue's rank.  ``homology.homology`` runs the same path and clears
columns by the unit echelon's pivot rows; a differential it needs only
the rank of stops streaming once the rank is fixed.
:func:`kernel_lattice` reads a kernel basis straight off the same
echelon and gives the engine only the residue, with the column
transform tracked, and no engine at all when the residue is empty;
``diagonalize`` tracks the column transform of the whole matrix it is
given.
"""

from __future__ import annotations

from math import gcd
from operator import neg
from typing import Collection, Iterable, Iterator, Optional

# How many rows of the sparsest bucket to scan per pivot search.
_BUCKET_SCAN = 64


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``x*a + y*b == g == gcd(a, b)``, g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


class SparseIntMatrix:
    """Integer matrix with zeros omitted, stored column-major.

    Entries are reachable as ``M.get(r, c)``; columns as dicts
    ``row -> value``.  Instances are mutable during assembly and treated
    as immutable afterwards.
    """

    __slots__ = ("rows", "cols", "_cols")

    def __init__(self, rows: int, cols: int):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        self.rows = rows
        self.cols = cols
        self._cols: list[dict[int, int]] = [{} for _ in range(cols)]

    # -- construction -------------------------------------------------

    @classmethod
    def from_triplets(cls, rows: int, cols: int,
                      triplets: Iterable[tuple[int, int, int]]) -> "SparseIntMatrix":
        m = cls(rows, cols)
        for r, c, v in triplets:
            m.add(r, c, v)
        return m

    @classmethod
    def from_dense(cls, dense: list[list[int]]) -> "SparseIntMatrix":
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        m = cls(rows, cols)
        for r, row in enumerate(dense):
            if len(row) != cols:
                raise ValueError("ragged dense matrix")
            for c, v in enumerate(row):
                if v:
                    m._cols[c][r] = v
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "SparseIntMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "SparseIntMatrix":
        m = cls(n, n)
        for i in range(n):
            m._cols[i][i] = 1
        return m

    # -- access --------------------------------------------------------

    def add(self, r: int, c: int, v: int) -> None:
        if not 0 <= r < self.rows or not 0 <= c < self.cols:
            raise IndexError(f"entry ({r},{c}) outside {self.rows}x{self.cols}")
        if not v:
            return
        col = self._cols[c]
        nv = col.get(r, 0) + v
        if nv:
            col[r] = nv
        else:
            del col[r]

    def set(self, r: int, c: int, v: int) -> None:
        if not 0 <= r < self.rows or not 0 <= c < self.cols:
            raise IndexError(f"entry ({r},{c}) outside {self.rows}x{self.cols}")
        if v:
            self._cols[c][r] = v
        else:
            self._cols[c].pop(r, None)

    def get(self, r: int, c: int) -> int:
        return self._cols[c].get(r, 0)

    def column(self, c: int) -> dict[int, int]:
        return self._cols[c]

    @property
    def nnz(self) -> int:
        return sum(len(col) for col in self._cols)

    def entries(self) -> Iterator[tuple[int, int, int]]:
        for c, col in enumerate(self._cols):
            for r, v in col.items():
                yield r, c, v

    def triplets(self) -> list[tuple[int, int, int]]:
        """Sorted triplet list; canonical for hashing and serialization."""
        return sorted((r, c, v) for r, c, v in self.entries())

    def to_dense(self) -> list[list[int]]:
        dense = [[0] * self.cols for _ in range(self.rows)]
        for r, c, v in self.entries():
            dense[r][c] = v
        return dense

    def row_dicts(self) -> list[dict[int, int]]:
        rows: list[dict[int, int]] = [{} for _ in range(self.rows)]
        for r, c, v in self.entries():
            rows[r][c] = v
        return rows

    def transpose(self) -> "SparseIntMatrix":
        t = SparseIntMatrix(self.cols, self.rows)
        for r, c, v in self.entries():
            t._cols[r][c] = v
        return t

    def copy(self) -> "SparseIntMatrix":
        m = SparseIntMatrix(self.rows, self.cols)
        m._cols = [dict(col) for col in self._cols]
        return m

    # -- small-scale arithmetic (used for checks, not for elimination) --

    def mul_col(self, col: dict[int, int]) -> dict[int, int]:
        """Matrix times sparse column vector {index: value}."""
        out: dict[int, int] = {}
        for c, x in col.items():
            for r, v in self._cols[c].items():
                nv = out.get(r, 0) + v * x
                if nv:
                    out[r] = nv
                else:
                    del out[r]
        return out

    def mul(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = SparseIntMatrix(self.rows, other.cols)
        for c in range(other.cols):
            prod = self.mul_col(other._cols[c])
            if prod:
                out._cols[c] = prod
        return out

    def is_zero(self) -> bool:
        return all(not col for col in self._cols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            self._cols == other._cols

    def __repr__(self) -> str:
        return f"SparseIntMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


# ----------------------------------------------------------------------
# Elimination: invariant factors, ranks, transforms and kernels.
# ----------------------------------------------------------------------

def divisor_chain(values: Iterable[int]) -> list[int]:
    """Normalize a diagonal multiset into invariant factors d1 | d2 | ...

    Valid because ``diag(a, b)`` is unimodularly equivalent to
    ``diag(gcd(a,b), lcm(a,b))``.  Units divide everything, so only the
    entries above 1 are compared.
    """
    vals = sorted(abs(v) for v in values if v)
    ones = vals.count(1)
    rest = vals[ones:]
    changed = True
    while changed:
        changed = False
        for i in range(len(rest)):
            for j in range(i + 1, len(rest)):
                a, b = rest[i], rest[j]
                if b % a:
                    g = gcd(a, b)
                    rest[i], rest[j] = g, a * b // g
                    changed = True
        if changed:
            rest.sort()
    return vals[:ones] + rest


class SnfResult:
    """Diagonal factors of ``M``, with the column transform V of a
    diagonalization ``U @ M @ V = D`` when it was tracked.

    ``factors`` lists the nonzero diagonal entries (positions 0..rank-1);
    from :func:`diagonalize` they are the invariant factors.  The
    columns of V beyond the rank form a basis of the kernel lattice.  A
    row transform U is never tracked: it is the transposed V of ``M``'s
    transpose.
    """

    def __init__(self, rows: int, cols: int, factors: list[int],
                 V: Optional[SparseIntMatrix] = None,
                 Vinv: Optional[SparseIntMatrix] = None):
        self.rows = rows
        self.cols = cols
        self.factors = factors
        # always None: perfbench/tracer.py still reads them
        self.U = self.Uinv = None
        self.V = V
        self.Vinv = Vinv

    @property
    def rank(self) -> int:
        return len(self.factors)


class _Buckets:
    """Live rows bucketed by nonzero count, insertion-ordered."""

    def __init__(self) -> None:
        self.by_nnz: dict[int, dict[int, None]] = {}
        self.nnz_of: dict[int, int] = {}

    def put(self, row: int, nnz: int) -> None:
        old = self.nnz_of.get(row)
        if old == nnz:
            return
        if old is not None:
            bucket = self.by_nnz[old]
            del bucket[row]
            if not bucket:
                del self.by_nnz[old]
        if nnz > 0:
            self.by_nnz.setdefault(nnz, {})[row] = None
            self.nnz_of[row] = nnz
        elif old is not None:
            del self.nnz_of[row]


def _addmul(dst: dict[int, int], src: dict[int, int], q: int) -> None:
    """dst += q * src, for sparse vectors."""
    for k, v in src.items():
        nv = dst.get(k, 0) + q * v
        if nv:
            dst[k] = nv
        else:
            del dst[k]


def _combine(vecs: list[dict[int, int]], i: int, j: int,
             p: int, q: int, r: int, s: int) -> None:
    """(vecs[i], vecs[j]) <- (p*vecs[i] + q*vecs[j], r*vecs[i] + s*vecs[j])."""
    vi, vj = vecs[i], vecs[j]
    new_i: dict[int, int] = {}
    new_j: dict[int, int] = {}
    for k in list(vi) + [k for k in vj if k not in vi]:
        x, y = vi.get(k, 0), vj.get(k, 0)
        new_i[k], new_j[k] = p * x + q * y, r * x + s * y
    vecs[i] = {k: v for k, v in new_i.items() if v}
    vecs[j] = {k: v for k, v in new_j.items() if v}


def _negate(vec: dict[int, int]) -> None:
    for k in vec:
        vec[k] = -vec[k]


class _Elimination:
    """Sparse unimodular elimination, with optional column transform
    tracking.

    The working copy is row-major with a column index.  Rows and columns
    keep their indices for the whole run: a finished pivot ``(r, c)`` is
    appended to ``pivots`` and its row and column leave the active
    matrix, so no entry is ever moved to reach the diagonal.  The
    diagonal order is the pivot order; :meth:`result` permutes the
    transform's columns to match it.

    Column operations update V (columns) and V^-1 (rows) when
    ``track_v``; row operations are not recorded.
    """

    def __init__(self, m: SparseIntMatrix, track_v: bool):
        self.nr = m.rows
        self.nc = m.cols
        self.rows: list[dict[int, int]] = [{} for _ in range(m.rows)]
        for c, col in enumerate(m._cols):
            for r, v in col.items():
                self.rows[r][c] = v
        self.colrows: list[dict[int, None]] = [{} for _ in range(m.cols)]
        for r, row in enumerate(self.rows):
            for c in row:
                self.colrows[c][r] = None
        self.buckets = _Buckets()
        for r, row in enumerate(self.rows):
            self.buckets.put(r, len(row))
        # [row, column, value] of each finished pivot, value > 0
        self.pivots: list[list[int]] = []
        self.track_v = track_v
        if track_v:
            self.v_cols: list[dict[int, int]] = [{i: 1} for i in range(self.nc)]
            self.vinv_rows: list[dict[int, int]] = [{i: 1} for i in range(self.nc)]

    def run(self) -> "_Elimination":
        while True:
            picked = self.pick_pivot()
            if picked is None:
                return self
            self.eliminate(*picked)

    def pick_pivot(self) -> Optional[tuple[int, int]]:
        """A +-1 entry in the shortest column among a bounded prefix of
        each sparsity bucket; failing that, the entry of smallest absolute
        value.  None when no entries remain."""
        best_unit: Optional[tuple[int, int, int]] = None
        for nnz in sorted(self.buckets.by_nnz):
            scanned = 0
            for r in self.buckets.by_nnz[nnz]:
                for c, v in self.rows[r].items():
                    if v == 1 or v == -1:
                        key = (len(self.colrows[c]), r, c)
                        if best_unit is None or key < best_unit:
                            best_unit = key
                scanned += 1
                if scanned >= _BUCKET_SCAN:
                    break
            if best_unit is not None:
                return best_unit[1], best_unit[2]
        best: Optional[tuple[int, int, int]] = None
        for r, row in enumerate(self.rows):
            for c, v in row.items():
                key = (abs(v), r, c)
                if best is None or key < best:
                    best = key
        if best is None:
            return None
        return best[1], best[2]

    def eliminate(self, r: int, c: int) -> None:
        """Clear column ``c`` and row ``r`` around the pivot ``(r, c)``.

        Row remainders clear the column; once it is clear, column
        remainders clear the row, and those column operations touch no
        other entry, so they are only recorded in V.  A nonzero
        remainder is a strictly smaller entry and becomes the pivot.  A
        +-1 pivot leaves no remainder.
        """
        rows, colrows, put = self.rows, self.colrows, self.buckets.put
        track_v = self.track_v
        while True:
            prow = rows[r]
            # the pivot entry is left out of the row updates and its
            # remainder written directly
            a = prow.pop(c)
            smaller = None
            for r2 in [x for x in colrows[c] if x != r]:
                drow = rows[r2]
                b = drow[c]
                q = b // a
                if q:
                    before = len(drow)
                    for c2, v in prow.items():
                        old = drow.get(c2)
                        if old is None:
                            drow[c2] = -q * v
                            colrows[c2][r2] = None
                        elif old != q * v:
                            drow[c2] = old - q * v
                        else:
                            del drow[c2]
                            del colrows[c2][r2]
                    if b != q * a:
                        drow[c] = b - q * a
                    else:
                        del drow[c]
                        del colrows[c][r2]
                    if len(drow) != before:
                        put(r2, len(drow))
                if c in drow:
                    smaller = r2
                    break
            prow[c] = a
            if smaller is not None:
                r = smaller
                continue
            for c2 in [x for x in prow if x != c]:
                b = prow[c2]
                q = b // a
                if track_v and q:
                    _addmul(self.v_cols[c2], self.v_cols[c], -q)
                    _addmul(self.vinv_rows[c], self.vinv_rows[c2], q)
                if b - q * a:
                    prow[c2] = b - q * a
                    smaller = c2
                    break
                del prow[c2]
                del colrows[c2][r]
            if smaller is None:
                break
            put(r, len(prow))
            c = smaller
        if a < 0 and track_v:
            _negate(self.v_cols[c])
            _negate(self.vinv_rows[c])
        self.pivots.append([r, c, abs(a)])
        rows[r] = {}
        colrows[c] = {}
        self.buckets.put(r, 0)

    def enforce_chain(self) -> None:
        """Reorder and fix the pivots so that each value divides the next."""
        piv = self.pivots
        while True:
            piv.sort(key=lambda p: p[2])
            dirty = False
            for i in range(len(piv)):
                if piv[i][2] == 1:
                    continue
                for j in range(i + 1, len(piv)):
                    if piv[j][2] % piv[i][2]:
                        self._fix_pair(piv[i], piv[j])
                        dirty = True
            if not dirty:
                return

    def _fix_pair(self, pi: list[int], pj: list[int]) -> None:
        """Replace diag(a, b) on two pivots by diag(gcd, lcm):

            [[x, y], [-b/g, a/g]] @ diag(a, b) @ [[1, -y*b/g], [1, x*a/g]]
                = diag(g, a*b/g)   where x*a + y*b = g,

        both factors of determinant 1; only the right one is tracked.
        """
        (_, ci, a), (_, cj, b) = pi, pj
        g, x, y = xgcd(a, b)
        if self.track_v:
            _combine(self.v_cols, ci, cj, 1, 1, -y * b // g, x * a // g)
            _combine(self.vinv_rows, ci, cj, x * a // g, y * b // g, -1, 1)
        pi[2], pj[2] = g, a * b // g

    def result(self) -> SnfResult:
        res = SnfResult(self.nr, self.nc, [p[2] for p in self.pivots])
        if self.track_v:
            done = {p[1] for p in self.pivots}
            order = [p[1] for p in self.pivots] + \
                [c for c in range(self.nc) if c not in done]
            vmat = SparseIntMatrix(self.nc, self.nc)
            vmat._cols = [self.v_cols[c] for c in order]
            vinv = SparseIntMatrix(self.nc, self.nc)
            for i, c in enumerate(order):
                for k, v in self.vinv_rows[c].items():
                    vinv._cols[k][i] = v
            res.V, res.Vinv = vmat, vinv
        return res


def _reduce(x: dict[int, int], echelon: dict[int, dict[int, int]]) -> None:
    """Clear every pivot column of ``echelon`` from the row ``x``, in one
    pass: an echelon row is +-1 on its pivot column and 0 on the others,
    so subtracting it touches no other pivot column."""
    for c in [c for c in x if c in echelon]:
        e = echelon[c]
        f = x[c] * e[c]
        for c2, v in e.items():
            nv = x.get(c2, 0) - f * v
            if nv:
                x[c2] = nv
            else:
                del x[c2]


def _sparsest_first(m: SparseIntMatrix, skip_cols: Collection[int],
                    bound: Optional[int]
                    ) -> Iterator[tuple[int, dict[int, int]]]:
    """Yield ``(r, row r of m)`` for every row of ``m``, sparsest first
    and in index order among rows of one length, with the columns in
    ``skip_cols`` read as zero.  A row's entries are in column order,
    and a row is let go once it has been yielded.

    A stream that stops at a rank ``bound`` seldom reads more than its
    first 4 * bound rows.  When that covers ``m`` (or there is no
    bound), every row is built in one pass over the columns.  Otherwise
    the row lengths are counted off the columns and rows are built only
    in batches about to be yielded, by intersecting each column with
    the batch: first 4 * bound rows, then each batch as large as all
    before it.
    """
    cols = [(c, col) for c, col in enumerate(m._cols)
            if col and c not in skip_cols]
    size = m.rows if bound is None else max(4 * bound, 1)
    if size >= m.rows:
        rows: list[Optional[dict[int, int]]] = [{} for _ in range(m.rows)]
        for c, col in cols:
            for r, v in col.items():
                rows[r][c] = v
        for r in sorted(range(m.rows), key=list(map(len, rows)).__getitem__):
            x = rows[r]
            rows[r] = None
            yield r, x
        return
    length = [0] * m.rows
    for _, col in cols:
        for r in col:
            length[r] += 1
    order = sorted(range(m.rows), key=length.__getitem__)
    del length
    start = 0
    while start < m.rows:
        wanted = order[start:start + size]
        batch: dict[int, dict[int, int]] = {r: {} for r in wanted}
        keys = set(wanted)
        for c, col in cols:
            for r in keys.intersection(col):
                batch[r][c] = col[r]
        del keys
        for r in wanted:
            yield r, batch.pop(r)
        start += size
        size = start


def _unit_echelon(m: SparseIntMatrix, skip_cols: Collection[int] = (),
                  bound: Optional[int] = None
                  ) -> tuple[list[int], dict[int, dict[int, int]],
                             list[dict[int, int]]]:
    """Stream the rows of ``m`` into a fully reduced +-1 echelon.

    Columns in ``skip_cols`` are read as zero.  Rows arrive sparsest
    first, from :func:`_sparsest_first`, which builds a row only shortly
    before it arrives, so rows past a stop are never built.  Each is
    reduced by the echelon rows on its pivot columns and
    dropped if it reaches zero.  Otherwise, if it holds a +-1, it becomes
    the pivot row of the +-1 entry whose column the fewest echelon rows
    hold, and that column is cleared from them; a row with no +-1 waits,
    unless a waiting row equal to it up to sign is already held.  A row
    is let go as soon as it has been streamed, so rows that reduce to
    zero do not stay around at their grown size.

    Returns the original indices of the pivot rows, the echelon (pivot
    column -> its row, in the order of the pivot rows) and the residue:
    the waiting rows reduced again against the final echelon, zero rows
    dropped.  Every step adds an integer multiple of one row to another,
    so ``m`` is row-equivalent over Z to [E; R; 0] with the echelon E a
    signed identity on its pivot columns and the residue R zero there.
    Column operations inside E's pivot columns clear the rest of E,
    leaving diag(+-I, R): ``m`` has a factor 1 per pivot row plus the
    invariant factors of R, and its rank is the pivot count plus the
    rank of R.

    Dropping a repeated waiting row changes none of this.  Reducing a
    row by the final echelon, x -> x - sum_q x_q . s_q . E_q, is
    Z-linear and zero on every echelon row, so it depends only on the
    class of x modulo the final echelon's row lattice.  The echelon's
    lattice only grows, and a row at any stage differs from its input
    row by echelon rows of that stage, so it lies in the input row's
    class.  A row that arrives equal to +-w for a held waiting row w
    therefore ends equal to +-w's final residue row: it adds nothing to
    the row lattice of R.  Waiting rows never pick pivots, so the pivots
    and the echelon stay the same, and the residue is the one without
    the check with later repeats (up to sign) left out.

    Given a ``bound`` that the rank of ``m`` cannot exceed, the stream
    stops as soon as the rows streamed so far reach it.  Those rows are
    row-equivalent to [E; W] for the waiting rows W, so their rank is
    |E| plus the rank of W reduced by E, which ``_gcd_echelon`` counts;
    they are a subset of the rows of ``m``, so once that sum reaches
    ``bound`` the rank of ``m`` is ``bound``.  The check runs only once
    |E| + |W| reaches ``bound``, and again only after E has grown or W
    has doubled since the last one.  On a stop, the residue is that gcd
    echelon: it spans the same lattice as W reduced by E and is zero on
    E's pivot columns, so the streamed rows are row-equivalent to
    [E; residue; 0] and everything above holds for them.
    """
    # pivot column -> echelon row
    echelon: dict[int, dict[int, int]] = {}
    # non-pivot column -> pivot columns of the echelon rows holding it
    holders: dict[int, set[int]] = {}
    pivot_rows: list[int] = []
    waiting: list[dict[int, int]] = []
    # hash of a waiting row with its sign fixed -> the waiting rows
    held: dict[int, list[dict[int, int]]] = {}
    # echelon and waiting sizes at the last rank check
    checked = (-1, 0)
    for r, x in _sparsest_first(m, skip_cols, bound):
        if bound is not None and len(echelon) + len(waiting) >= bound and (
                len(echelon) > checked[0] or len(waiting) >= 2 * checked[1]):
            checked = (len(echelon), len(waiting))
            basis = _gcd_echelon(_reduced_copies(waiting, echelon))
            if len(echelon) + len(basis) >= bound:
                waiting = basis
                break
        _reduce(x, echelon)
        best = None
        for c, v in x.items():
            if v == 1 or v == -1:
                key = (len(holders.get(c, ())), c)
                if best is None or key < best:
                    best = key
        if best is None:
            if x and _hold(x, held):
                waiting.append(x)
            continue
        c = best[1]
        s = x[c]
        for pc in holders.pop(c, ()):
            e = echelon[pc]
            f = e[c] * s
            for c2, v in x.items():
                old = e.get(c2)
                if old is None:
                    e[c2] = -f * v
                    holders.setdefault(c2, set()).add(pc)
                elif old != f * v:
                    e[c2] = old - f * v
                else:
                    del e[c2]
                    if c2 != c:
                        holders[c2].discard(pc)
        echelon[c] = x
        for c2 in x:
            if c2 != c:
                holders.setdefault(c2, set()).add(c)
        pivot_rows.append(r)
    del held, holders
    residue = []
    for x in waiting:
        _reduce(x, echelon)
        if x:
            residue.append(x)
    return pivot_rows, echelon, residue


def _reduced_copies(rows: list[dict[int, int]],
                    echelon: dict[int, dict[int, int]]) -> list[dict[int, int]]:
    """Copies of ``rows`` reduced by ``echelon``, zero rows dropped; the
    rows themselves stay as they are, for ``_hold`` to compare with."""
    out = []
    for w in rows:
        x = dict(w)
        _reduce(x, echelon)
        if x:
            out.append(x)
    return out


def _hold(x: dict[int, int], held: dict[int, list[dict[int, int]]]) -> bool:
    """Record the nonzero row ``x`` in ``held`` unless a row equal to it
    up to sign is there already; True when it was recorded.  Rows are
    bucketed by the hash of their entries with the sign that makes the
    entry of the lowest column positive."""
    items = x.items() if x[min(x)] > 0 else zip(x, map(neg, x.values()))
    bucket = held.setdefault(hash(frozenset(items)), [])
    for w in bucket:
        if w == x or w == dict(zip(x, map(neg, x.values()))):
            return False
    bucket.append(x)
    return True


def _gcd_echelon(rows: list[dict[int, int]]) -> list[dict[int, int]]:
    """A row echelon over Z of ``rows``, streamed in their order.

    Each echelon row pivots on its leading (lowest-index) column.  A
    row's leading entry is cleared by the echelon row of that column: by
    a multiple of it when its pivot divides the entry, else by the 2x2
    combination of determinant 1 that puts their gcd on the echelon row.
    The row is dropped when it reaches zero, so rows that depend on
    earlier ones do not stay around to grow.  The echelon generates the
    same row lattice as ``rows``.
    """
    echelon: dict[int, dict[int, int]] = {}
    for x in rows:
        while x:
            c = min(x)
            e = echelon.get(c)
            if e is None:
                echelon[c] = x
                break
            p, a = e[c], x[c]
            if a % p == 0:
                _addmul(x, e, -(a // p))
            else:
                g, s, t = xgcd(p, a)
                pair = [e, x]
                _combine(pair, 0, 1, s, t, -a // g, p // g)
                echelon[c], x = pair
    return list(echelon.values())


def _untracked_diagonal(m: SparseIntMatrix, skip_cols: Collection[int] = ()
                        ) -> tuple[list[int], list[int]]:
    """The pivot rows of the unit echelon of ``m``, and a diagonal
    equivalent to ``m`` over Z: 1 per pivot row, then the pivots of
    ``_Elimination`` on a row echelon of the residue."""
    pivot_rows, _, residue = _unit_echelon(m, skip_cols)
    diagonal = [1] * len(pivot_rows)
    if residue:
        basis = _gcd_echelon(residue)
        b = SparseIntMatrix(len(basis), m.cols)
        for r, row in enumerate(basis):
            for c, v in row.items():
                b._cols[c][r] = v
        diagonal += [p[2] for p in _Elimination(b, False).run().pivots]
    return pivot_rows, diagonal


def _untracked_rank(m: SparseIntMatrix, skip_cols: Collection[int] = (),
                    bound: Optional[int] = None) -> tuple[list[int], int]:
    """The pivot rows of the unit echelon of ``m`` and the rank of ``m``:
    the pivot count plus the rank of a gcd row echelon of the residue,
    with no ``_Elimination`` run.  A ``bound`` on the rank lets the
    stream stop early (see ``_unit_echelon``); the pivot rows are then
    those taken by the stop."""
    pivot_rows, _, residue = _unit_echelon(m, skip_cols, bound)
    return pivot_rows, len(pivot_rows) + len(_gcd_echelon(residue))


def invariant_factors(m: SparseIntMatrix) -> list[int]:
    """Invariant factors of ``m``: positive, each dividing the next."""
    return divisor_chain(_untracked_diagonal(m)[1])


def rank(m: SparseIntMatrix) -> int:
    """Rank over Q (equivalently over Z up to torsion)."""
    return _untracked_rank(m)[1]


def diagonalize(m: SparseIntMatrix) -> SnfResult:
    """Diagonalization ``U @ M @ V = D`` with V and V^-1 tracked.

    The diagonal carries the invariant factors; V stays aligned with
    them, which is what generator extraction requires (a post-hoc
    numeric gcd/lcm fix would not be).  Making the diagonal a divisor
    chain combines pivot columns of V, and pivot rows of V^-1, only:
    the kernel columns of V and their rows of V^-1 are those of the
    elimination.  The row transform of ``M`` is the transposed V of
    ``diagonalize(M.transpose())``.
    """
    work = _Elimination(m, True).run()
    work.enforce_chain()
    return work.result()


def smith_normal_form(m: SparseIntMatrix) -> SnfResult:
    """Invariant factors of ``m``, with no transform."""
    return SnfResult(m.rows, m.cols, invariant_factors(m))


def kernel_lattice(m: SparseIntMatrix, bound: Optional[int] = None
                   ) -> tuple[list[dict[int, int]], int, list[dict[int, int]]]:
    """A basis K of the integer kernel lattice of ``m``, the rank of
    ``m``, and coordinate rows L with L.K = I; all sparse vectors.

    Read off the unit echelon of ``m`` (:func:`_unit_echelon`): ``m`` is
    row-equivalent over Z to [E; R; 0], so ker m is the intersection of
    ker E and ker R.  Let Q be E's pivot columns, s_q = +-1 the pivot
    entry of its row E_q, and F the other columns.  E is a signed
    identity on Q, so E.x = 0 iff

        x_q = -s_q . sum_f E_q[f] . x_f    for every q in Q.

    Projection onto F is therefore an isomorphism ker E -> Z^F, and its
    inverse sends e_f to k_f = e_f - sum_q s_q . E_q[f] . e_q: the
    columns K_E = (k_f) form a lattice basis of ker E, with no division.
    R is zero on Q, so R.K_E = R[:, F] and ker m = K_E . ker R[:, F].
    Only the residue R[:, F] is diagonalized with a tracked column
    transform V'; its columns beyond the rank r' span ker R[:, F] (a
    saturated lattice), so K = K_E . V'_ker.  A vector x of ker m is
    K_E . proj_F(x), and V'^-1 . proj_F(x) is zero above r', so the rows
    L = V'^-1_bottom . proj_F give x's coordinates in K.  The rank of
    ``m`` is |Q| + r'.  The echelon rows are let go as K_E is read off
    them, and the residue rows once R[:, F] is built.  With no residue
    rows V' is the identity, so K = K_E and L = proj_F are returned
    without running the elimination.

    Given a ``bound`` that the rank of ``m`` cannot exceed, the stream
    stops once the rows streamed so far reach it (see ``_unit_echelon``),
    and all of the above runs on those rows S in place of ``m``.  The
    integer kernel of a matrix is Z^n intersected with its rational
    kernel, the orthogonal complement of its rational row space.  S is
    a subset of the rows of ``m`` whose rank reached ``bound``, so it
    has the rank of ``m`` and spans the same rational row space: ``m``
    and S have the same kernel lattice.  So K is a basis of the kernel
    lattice of ``m``, the rank returned is that of ``m``, and L.K = I,
    as without a bound.  Where the stopped echelon took other pivots, K
    differs from the unbounded basis by a unimodular change.
    """
    _, echelon, residue = _unit_echelon(m, bound=bound)
    free = [c for c in range(m.cols) if c not in echelon]
    position = {f: i for i, f in enumerate(free)}
    k_e: dict[int, dict[int, int]] = {f: {f: 1} for f in free}
    while echelon:
        q, e = echelon.popitem()
        s = e.pop(q)
        for f, v in e.items():
            k_e[f][q] = -s * v
    if not residue:
        return list(k_e.values()), m.cols - len(free), [{f: 1} for f in free]
    r = SparseIntMatrix(len(residue), len(free))
    for i, x in enumerate(residue):
        for f, v in x.items():
            r._cols[position[f]][i] = v
    del residue
    res = diagonalize(r)
    kernel = []
    for j in range(res.rank, len(free)):
        vec: dict[int, int] = {}
        for i, w in res.V.column(j).items():
            _addmul(vec, k_e[free[i]], w)
        kernel.append(vec)
    coords = [{free[i]: w for i, w in row.items()}
              for row in res.Vinv.row_dicts()[res.rank:]]
    return kernel, m.cols - len(free) + res.rank, coords


def kernel_basis(m: SparseIntMatrix) -> list[dict[int, int]]:
    """Basis of the integer kernel lattice, as sparse columns, read off
    the unit echelon by :func:`kernel_lattice`."""
    return kernel_lattice(m)[0]
