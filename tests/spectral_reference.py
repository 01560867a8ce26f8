"""The rank function that ``finsub.spectral.FilteredComplex.rho`` used
before it read ranks off the pairs of one reduction per degree.

``rho`` copies the block of the degree-m boundary with columns of level
<= c and rows of level > s into a new matrix and eliminates it afresh.
It is kept here, as a function of the complex and without the old
per-key cache, as the reference for the pairing ranks in
``test_spectral.py``.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from finsub.snf import SparseIntMatrix, rank


def rho(f, m: int, c: int, s: int) -> int:
    """Rank of the degree-m boundary block: columns <= c, rows > s."""
    if not 1 <= m <= f.top_degree:
        return 0
    c = min(c, f.n)
    s = max(s, -1)
    if c < 0 or s >= f.n:
        return 0
    fm, fm1 = f.filt[m], f.filt[m - 1]
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
    for r, col, v in f.boundary[m].entries():
        if r in rows_keep and col in cols_keep:
            sub.set(rows_keep[r], cols_keep[col], v)
    return rank(sub)
