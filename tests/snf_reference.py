"""The two elimination engines that ``finsub.snf`` used before it had one.

``_Elim`` (untracked: rank and invariant factors, with a dense gcd
fallback for small residues) and ``_Tracked`` (unimodular transforms,
Markowitz-style pivots, explicit row and column swaps) are kept here
unchanged as references for the differential tests in ``test_snf.py``.
``divisor_chain`` is the old quadratic normalization, units included.
``_unit_echelon`` is the +-1 echelon as it was before it dropped
waiting rows equal up to sign to one already held and freed streamed
rows; it keeps every waiting row, and ``test_unit_echelon.py`` compares
the two.
Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from math import gcd
from typing import Collection, Iterable, Optional

from finsub.snf import SnfResult, SparseIntMatrix

# Active submatrices at most this size are eliminated densely once no
# +-1 pivot is left.
_DENSE_CUTOFF = 250_000
# How many rows of the sparsest bucket to scan per pivot search.
_BUCKET_SCAN = 64


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

    def drop(self, row: int) -> None:
        self.put(row, 0)

    def sorted_sizes(self) -> list[int]:
        return sorted(self.by_nnz)


class _Elim:
    """Row-major working copy with a column index, rows/cols removable."""

    def __init__(self, m: SparseIntMatrix):
        self.rows: list[dict[int, int]] = m.row_dicts()
        self.colrows: list[dict[int, None]] = [{} for _ in range(m.cols)]
        for r, row in enumerate(self.rows):
            for c in row:
                self.colrows[c][r] = None
        self.buckets = _Buckets()
        for r, row in enumerate(self.rows):
            self.buckets.put(r, len(row))

    def live_shape(self) -> tuple[int, int]:
        live_r = sum(1 for row in self.rows if row)
        live_c = sum(1 for col in self.colrows if col)
        return live_r, live_c

    def pick_pivot(self) -> Optional[tuple[int, int, bool]]:
        """Return ``(r, c, is_unit)`` or None when no entries remain.

        Scans a bounded prefix of each sparsity bucket for a +-1 entry
        whose column is short; falls back to a full scan for the entry of
        smallest absolute value (still preferring units).
        """
        best_unit: Optional[tuple[tuple[int, int, int], int, int]] = None
        for nnz in self.buckets.sorted_sizes():
            scanned = 0
            for r in self.buckets.by_nnz[nnz]:
                row = self.rows[r]
                for c, v in row.items():
                    if v == 1 or v == -1:
                        key = (len(self.colrows[c]), r, c)
                        if best_unit is None or key < best_unit[0]:
                            best_unit = (key, r, c)
                scanned += 1
                if scanned >= _BUCKET_SCAN:
                    break
            if best_unit is not None:
                return best_unit[1], best_unit[2], True
        # nothing found in the bucket prefixes: full deterministic scan
        best: Optional[tuple[tuple[int, int, int], int, int]] = None
        for r, row in enumerate(self.rows):
            for c, v in row.items():
                key = (abs(v), r, c)
                if best is None or key < best[0]:
                    best = (key, r, c)
        if best is None:
            return None
        return best[1], best[2], abs(best[0][0]) == 1

    def row_addmul(self, dst: int, src: int, q: int) -> None:
        """row[dst] -= q * row[src]; bucket and column index maintained."""
        if not q:
            return
        drow = self.rows[dst]
        for c, v in self.rows[src].items():
            nv = drow.get(c, 0) - q * v
            if nv:
                if c not in drow:
                    self.colrows[c][dst] = None
                drow[c] = nv
            elif c in drow:
                del drow[c]
                del self.colrows[c][dst]
        self.buckets.put(dst, len(drow))

    def eliminate(self, r: int, c: int) -> None:
        """Clear column ``c`` against pivot ``(r, c)`` (exact divisions
        required), then delete the pivot row and column entirely."""
        a = self.rows[r][c]
        for r2 in [x for x in self.colrows[c] if x != r]:
            b = self.rows[r2][c]
            q = b // a
            if q * a != b:
                raise ArithmeticError("inexact elimination")
            self.row_addmul(r2, r, q)
        # pivot row is now the only one meeting column c; removing the row
        # is the column-operation phase (it touches no other row).
        for c2 in self.rows[r]:
            del self.colrows[c2][r]
        self.rows[r] = {}
        self.buckets.drop(r)

    def reduce_column_once(self, r: int, c: int) -> bool:
        """One remainder step against pivot (r, c) in its column.

        Returns True when some entry was only partially cleared, i.e. a
        strictly smaller nonzero now exists in column c.
        """
        a = self.rows[r][c]
        shrunk = False
        for r2 in [x for x in self.colrows[c] if x != r]:
            b = self.rows[r2].get(c)
            if b is None:
                continue
            q = b // a
            self.row_addmul(r2, r, q)
            if self.rows[r2].get(c):
                shrunk = True
        return shrunk

    def reduce_row_once(self, r: int, c: int) -> bool:
        """One remainder step against pivot (r, c) in its row, by column
        operations expressed through row storage."""
        a = self.rows[r][c]
        shrunk = False
        for c2 in [x for x in self.rows[r] if x != c]:
            b = self.rows[r][c2]
            q = b // a
            if not q:
                continue
            for r2 in list(self.colrows[c]):
                v = self.rows[r2][c]
                nv = self.rows[r2].get(c2, 0) - q * v
                row2 = self.rows[r2]
                if nv:
                    if c2 not in row2:
                        self.colrows[c2][r2] = None
                    row2[c2] = nv
                elif c2 in row2:
                    del row2[c2]
                    del self.colrows[c2][r2]
                self.buckets.put(r2, len(row2))
            if self.rows[r].get(c2):
                shrunk = True
        return shrunk

    def extract_dense(self) -> list[list[int]]:
        live_r = [r for r, row in enumerate(self.rows) if row]
        live_c = sorted({c for row in self.rows for c in row})
        cmap = {c: i for i, c in enumerate(live_c)}
        dense = [[0] * len(live_c) for _ in live_r]
        for i, r in enumerate(live_r):
            for c, v in self.rows[r].items():
                dense[i][cmap[c]] = v
        return dense


def _dense_diag(dense: list[list[int]]) -> list[int]:
    """Diagonal entries of a dense integer matrix under unimodular row and
    column operations (no divisibility chain)."""
    m = [row[:] for row in dense]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    diag: list[int] = []
    top = 0
    while True:
        # smallest nonzero in the active region
        best = None
        for i in range(top, nr):
            row = m[i]
            for j in range(top, nc):
                v = row[j]
                if v and (best is None or abs(v) < abs(best[0])):
                    best = (v, i, j)
                    if abs(v) == 1:
                        break
            if best and abs(best[0]) == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        m[top], m[pi] = m[pi], m[top]
        for row in m:
            row[top], row[pj] = row[pj], row[top]
        while True:
            a = m[top][top]
            done = True
            for i in range(top + 1, nr):
                b = m[i][top]
                if b:
                    q = b // a
                    if q:
                        m[i] = [x - q * y for x, y in zip(m[i], m[top])]
                    if m[i][top]:
                        m[top], m[i] = m[i], m[top]
                        done = False
                        break
            if not done:
                continue
            for j in range(top + 1, nc):
                b = m[top][j]
                if b:
                    q = b // a
                    if q:
                        for row in m:
                            row[j] -= q * row[top]
                    if m[top][j]:
                        for row in m:
                            row[top], row[j] = row[j], row[top]
                        done = False
                        break
            if done:
                break
        diag.append(abs(m[top][top]))
        top += 1
        if top >= nr or top >= nc:
            for i in range(top, nr):
                for j in range(top, nc):
                    if m[i][j]:
                        raise AssertionError("dense elimination left residue")
            break
    return diag


def divisor_chain(values: Iterable[int]) -> list[int]:
    """Normalize a diagonal multiset into invariant factors d1 | d2 | ...

    Valid because ``diag(a, b)`` is unimodularly equivalent to
    ``diag(gcd(a,b), lcm(a,b))``.
    """
    vals = sorted(abs(v) for v in values if v)
    changed = True
    while changed:
        changed = False
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                a, b = vals[i], vals[j]
                if b % a:
                    g = gcd(a, b)
                    vals[i], vals[j] = g, a * b // g
                    changed = True
        if changed:
            vals.sort()
    return vals


def _diagonal(m: SparseIntMatrix) -> list[int]:
    work = _Elim(m)
    diag: list[int] = []
    while True:
        picked = work.pick_pivot()
        if picked is None:
            break
        r, c, unit = picked
        if unit:
            work.eliminate(r, c)
            diag.append(1)
            continue
        live_r, live_c = work.live_shape()
        if live_r * live_c <= _DENSE_CUTOFF:
            diag.extend(_dense_diag(work.extract_dense()))
            break
        if work.reduce_column_once(r, c):
            continue
        if work.reduce_row_once(r, c):
            continue
        a = abs(work.rows[r][c])
        work.eliminate(r, c)
        diag.append(a)
    return diag


def invariant_factors(m: SparseIntMatrix) -> list[int]:
    return divisor_chain(_diagonal(m))


def rank(m: SparseIntMatrix) -> int:
    return len(_diagonal(m))


class _Tracked:
    """Unimodular elimination with transform tracking.

    Row operations update U (rows) and U^-1 (columns); column operations
    update V (columns) and V^-1 (rows).  Pivots are moved to the diagonal
    by explicit swaps, so after step t the strict upper-left t x t region
    is diagonal.
    """

    def __init__(self, m: SparseIntMatrix, track_u: bool, track_v: bool):
        self.nr = m.rows
        self.nc = m.cols
        self.rows: list[dict[int, int]] = m.row_dicts()
        self.colrows: list[dict[int, None]] = [{} for _ in range(self.nc)]
        for r, row in enumerate(self.rows):
            for c in row:
                self.colrows[c][r] = None
        self.track_u = track_u
        self.track_v = track_v
        self.buckets = _Buckets()
        for r, row in enumerate(self.rows):
            self.buckets.put(r, len(row))
        if track_u:
            self.u_rows: list[dict[int, int]] = [{i: 1} for i in range(self.nr)]
            self.uinv_cols: list[dict[int, int]] = [{i: 1} for i in range(self.nr)]
        if track_v:
            self.v_cols: list[dict[int, int]] = [{i: 1} for i in range(self.nc)]
            self.vinv_rows: list[dict[int, int]] = [{i: 1} for i in range(self.nc)]

    # -- elementary operations ----------------------------------------

    @staticmethod
    def _vec_addmul(dst: dict[int, int], src: dict[int, int], q: int) -> None:
        if not q:
            return
        for k, v in src.items():
            nv = dst.get(k, 0) + q * v
            if nv:
                dst[k] = nv
            else:
                del dst[k]

    def row_add(self, dst: int, src: int, q: int) -> None:
        """row[dst] += q * row[src]."""
        if not q:
            return
        drow = self.rows[dst]
        for c, v in self.rows[src].items():
            nv = drow.get(c, 0) + q * v
            if nv:
                if c not in drow:
                    self.colrows[c][dst] = None
                drow[c] = nv
            elif c in drow:
                del drow[c]
                del self.colrows[c][dst]
        self.buckets.put(dst, len(drow))
        if self.track_u:
            self._vec_addmul(self.u_rows[dst], self.u_rows[src], q)
            self._vec_addmul(self.uinv_cols[src], self.uinv_cols[dst], -q)

    def col_add(self, dst: int, src: int, q: int) -> None:
        """col[dst] += q * col[src]."""
        if not q:
            return
        for r in list(self.colrows[src]):
            v = self.rows[r][src]
            row = self.rows[r]
            nv = row.get(dst, 0) + q * v
            if nv:
                if dst not in row:
                    self.colrows[dst][r] = None
                row[dst] = nv
            elif dst in row:
                del row[dst]
                del self.colrows[dst][r]
            self.buckets.put(r, len(row))
        if self.track_v:
            self._vec_addmul(self.v_cols[dst], self.v_cols[src], q)
            self._vec_addmul(self.vinv_rows[src], self.vinv_rows[dst], -q)

    def row_swap(self, i: int, j: int) -> None:
        if i == j:
            return
        for c in self.rows[i]:
            del self.colrows[c][i]
        for c in self.rows[j]:
            del self.colrows[c][j]
        self.rows[i], self.rows[j] = self.rows[j], self.rows[i]
        for c in self.rows[i]:
            self.colrows[c][i] = None
        for c in self.rows[j]:
            self.colrows[c][j] = None
        self.buckets.put(i, len(self.rows[i]))
        self.buckets.put(j, len(self.rows[j]))
        if self.track_u:
            self.u_rows[i], self.u_rows[j] = self.u_rows[j], self.u_rows[i]
            self.uinv_cols[i], self.uinv_cols[j] = self.uinv_cols[j], self.uinv_cols[i]

    def col_swap(self, i: int, j: int) -> None:
        if i == j:
            return
        rows_i = list(self.colrows[i])
        rows_j = list(self.colrows[j])
        vals_i = [self.rows[r].pop(i) for r in rows_i]
        vals_j = [self.rows[r].pop(j) for r in rows_j]
        self.colrows[i] = {}
        self.colrows[j] = {}
        for r, v in zip(rows_i, vals_i):
            self.rows[r][j] = v
            self.colrows[j][r] = None
        for r, v in zip(rows_j, vals_j):
            self.rows[r][i] = v
            self.colrows[i][r] = None
        if self.track_v:
            self.v_cols[i], self.v_cols[j] = self.v_cols[j], self.v_cols[i]
            self.vinv_rows[i], self.vinv_rows[j] = self.vinv_rows[j], self.vinv_rows[i]

    def row_negate(self, i: int) -> None:
        row = self.rows[i]
        for c in row:
            row[c] = -row[c]
        if self.track_u:
            for k in self.u_rows[i]:
                self.u_rows[i][k] = -self.u_rows[i][k]
            for k in self.uinv_cols[i]:
                self.uinv_cols[i][k] = -self.uinv_cols[i][k]

    # -- pivot search ---------------------------------------------------

    def _find_pivot(self, top: int) -> Optional[tuple[int, int]]:
        """Entry in the active region, preferring units in short columns.

        Finished rows are dropped from the buckets after each step, so
        bucketed rows only carry active-region entries.
        """
        best_unit: Optional[tuple[tuple[int, int, int], int, int]] = None
        for nnz in self.buckets.sorted_sizes():
            scanned = 0
            for r in self.buckets.by_nnz[nnz]:
                row = self.rows[r]
                for c, v in row.items():
                    if v == 1 or v == -1:
                        key = ((len(self.colrows[c]) - 1) * (len(row) - 1), r, c)
                        if best_unit is None or key < best_unit[0]:
                            best_unit = (key, r, c)
                scanned += 1
                if scanned >= _BUCKET_SCAN:
                    break
            if best_unit is not None:
                return best_unit[1], best_unit[2]
        best_any = None
        for r in range(top, self.nr):
            row = self.rows[r]
            for c, v in row.items():
                key = (abs(v), r, c)
                if best_any is None or key < best_any[0]:
                    best_any = (key, r, c)
        if best_any is not None:
            return best_any[1], best_any[2]
        return None

    # -- main loop ------------------------------------------------------

    def diagonalize(self) -> int:
        """Diagonalize; returns the rank. D[i][i] > 0 for i < rank."""
        top = 0
        while True:
            found = self._find_pivot(top)
            if found is None:
                break
            r, c = found
            self.row_swap(top, r)
            self.col_swap(top, c)
            while True:
                if self.rows[top][top] < 0:
                    self.row_negate(top)
                a = self.rows[top][top]
                # clear column `top` by row remainders
                restart = False
                for r2 in [x for x in self.colrows[top] if x != top]:
                    b = self.rows[r2][top]
                    self.row_add(r2, top, -(b // a))
                    if self.rows[r2].get(top):
                        # remainder is a strictly smaller pivot candidate
                        self.row_swap(top, r2)
                        restart = True
                        break
                if restart:
                    continue
                # clear row `top` by column remainders
                for c2 in [x for x in self.rows[top] if x != top]:
                    b = self.rows[top][c2]
                    self.col_add(c2, top, -(b // a))
                    if self.rows[top].get(c2):
                        self.col_swap(top, c2)
                        restart = True
                        break
                if restart:
                    continue
                break
            self.buckets.drop(top)
            top += 1
        return top

    def enforce_chain(self, rank_: int) -> None:
        """Make D[0][0] | D[1][1] | ... by tracked 2x2 fixes."""
        while True:
            # sort the diagonal ascending (tracked swaps)
            for i in range(rank_):
                m = min(range(i, rank_), key=lambda t: self.rows[t][t])
                if m != i:
                    self.row_swap(i, m)
                    self.col_swap(i, m)
            dirty = False
            for i in range(rank_):
                a = self.rows[i][i]
                for j in range(i + 1, rank_):
                    if self.rows[j][j] % a:
                        self._fix_pair(i, j)
                        dirty = True
                        a = self.rows[i][i]
            if not dirty:
                return

    def _fix_pair(self, i: int, j: int) -> None:
        """Replace diag(a, b) at positions i < j by diag(gcd, lcm)."""
        self.col_add(i, j, 1)          # column i picks up b at row j
        while True:
            a = self.rows[i][i]
            b = self.rows[j].get(i, 0)
            if b:
                q = b // a
                self.row_add(j, i, -q)
                if self.rows[j].get(i):
                    self.row_swap(i, j)
                    continue
            # column i clean; clear the fill at (i, j)
            b = self.rows[i].get(j, 0)
            if b:
                a = self.rows[i][i]
                q = b // a
                self.col_add(j, i, -q)
                if self.rows[i].get(j):
                    self.col_swap(i, j)
                    continue
            break
        if self.rows[i][i] < 0:
            self.row_negate(i)
        if self.rows[j][j] < 0:
            self.row_negate(j)

    # -- output ----------------------------------------------------------

    def result(self) -> SnfResult:
        rank_ = 0
        factors = []
        while True:
            v = self.rows[rank_].get(rank_, 0) if rank_ < min(self.nr, self.nc) else 0
            if not v:
                break
            factors.append(v)
            rank_ += 1
        res = SnfResult(self.nr, self.nc, factors)
        if self.track_u:
            u = SparseIntMatrix(self.nr, self.nr)
            for r, row in enumerate(self.u_rows):
                for c, v in row.items():
                    u._cols[c][r] = v
            uinv = SparseIntMatrix(self.nr, self.nr)
            for c, col in enumerate(self.uinv_cols):
                uinv._cols[c] = dict(col)
            res.U, res.Uinv = u, uinv
        if self.track_v:
            vmat = SparseIntMatrix(self.nc, self.nc)
            for c, col in enumerate(self.v_cols):
                vmat._cols[c] = dict(col)
            vinv = SparseIntMatrix(self.nc, self.nc)
            for r, row in enumerate(self.vinv_rows):
                for c, v in row.items():
                    vinv._cols[c][r] = v
            res.V, res.Vinv = vmat, vinv
        return res


def diagonalize(m: SparseIntMatrix, track_u: bool = False, track_v: bool = False,
                chain: bool = False) -> SnfResult:
    """Tracked diagonalization ``U @ M @ V = D``.

    With ``chain=True`` the diagonal carries the invariant factors; the
    transforms stay aligned with them, which is what generator extraction
    requires (a post-hoc numeric gcd/lcm fix would not be).
    """
    t = _Tracked(m, track_u, track_v)
    r = t.diagonalize()
    if chain:
        t.enforce_chain(r)
    return t.result()


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


def _unit_echelon(m: SparseIntMatrix, skip_cols: Collection[int] = ()
                  ) -> tuple[list[int], dict[int, dict[int, int]],
                             list[dict[int, int]]]:
    """Stream the rows of ``m`` into a fully reduced +-1 echelon.

    Columns in ``skip_cols`` are read as zero.  Rows arrive sparsest
    first.  Each is reduced by the echelon rows on its pivot columns and
    dropped if it reaches zero.  Otherwise, if it holds a +-1, it becomes
    the pivot row of the +-1 entry whose column the fewest echelon rows
    hold, and that column is cleared from them; a row with no +-1 waits.

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
    """
    rows: list[dict[int, int]] = [{} for _ in range(m.rows)]
    for c, col in enumerate(m._cols):
        if col and c not in skip_cols:
            for r, v in col.items():
                rows[r][c] = v
    # pivot column -> echelon row
    echelon: dict[int, dict[int, int]] = {}
    # non-pivot column -> pivot columns of the echelon rows holding it
    holders: dict[int, set[int]] = {}
    pivot_rows: list[int] = []
    waiting: list[dict[int, int]] = []
    for r in sorted(range(m.rows), key=lambda r: len(rows[r])):
        x = rows[r]
        _reduce(x, echelon)
        best = None
        for c, v in x.items():
            if v == 1 or v == -1:
                key = (len(holders.get(c, ())), c)
                if best is None or key < best:
                    best = key
        if best is None:
            if x:
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
    residue = []
    for x in waiting:
        _reduce(x, echelon)
        if x:
            residue.append(x)
    return pivot_rows, echelon, residue
