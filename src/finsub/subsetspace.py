"""Finite-subset-space functors applied levelwise, and their filtrations.

For a based space X the n-th subset space has, at level k, the nonempty
subsets of X's level-k table of size at most n; faces and degeneracies
act elementwise (faces may merge elements, so cardinality can drop).

Every variant is one filter on these subset keys: a size range and a
basepoint rule, where keys may be anything, must contain the level-k
basepoint or must avoid it.

    variant       keys                                   level tables
    "exp"         sizes 1..n,  any                       exp(x, n)
    "based"       sizes 1..n,  containing the basepoint  exp_based(x, n)
    "bar"         sizes 1..n,  avoiding the basepoint    tower(x, n, "bar")
    "conf-bar"    size n,      avoiding the basepoint    (keyed only)
    "conf-based"  size n+1,    containing the basepoint  (keyed only)

Stage k of ``tower(x, n, variant)`` takes sizes 1..k; the keyed chains
of :func:`keyed_complex` take all five variants.

A filter whose keys must avoid the basepoint, or whose minimum size is
above 1, is not closed under faces.  Its space is the quotient of the
subset space by everything outside the filter: index 0 of each level is
the collapsed basepoint, and every face that leaves the filter goes to
it.  Degeneracies never leave a filter.  So "bar" is
exp(x, n) / exp_based(x, n), and "conf-bar" and "conf-based" are the
successive quotients bar_n / bar_(n-1) and based_(n+1) / based_n, the
one-point compactified configuration spaces.

Subset keys are sorted index tuples; each level table lists its keys
lexicographically (after the collapsed basepoint, if any), which makes
all constructions deterministic.

Homology needs only the non-degenerate simplices, and :func:`keyed_complex`
builds their normalized chains without any level table.  With J(x) the
bitmask of the degeneracies s_j whose image holds a base simplex x, a key
S is degenerate exactly when the AND of J(x) over S is non-zero
(Eilenberg-Zilber); face i of S is the set image {d_i x}, and the
points-count filtration level of S is |S|.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Optional

from .homology import ChainComplex, _restrict, _submatrix
from .simplicial import (
    BasedSimplicialSet,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    underlying,
)
from .snf import SparseIntMatrix

DEFAULT_LEVEL_CEILING = 5_000_000  # level-table simplices per level
# Non-degenerate cells per degree, the one ceiling of every builder: the
# keyed chains, the Fox-Neuwirth cells (``finsub.fncells``, each counted
# once per separator) and the bar resolution (``finsub.groupcoh``).  The
# S^2 n=5 and S^4 n=3 keyed builds each took 1.6 KB of peak RSS per cell
# of their largest degree, so one keyed degree at this ceiling builds in
# about 0.8 GB.
DEFAULT_CELL_CEILING = 500_000

# basepoint rules of a key filter
ANY, CONTAINS, AVOIDS = "any", "contains", "avoids"

# variant -> its key filter for n points: (min size, max size, basepoint rule)
_FILTERS = {
    "exp": lambda n: (1, n, ANY),
    "based": lambda n: (1, n, CONTAINS),
    "bar": lambda n: (1, n, AVOIDS),
    "conf-bar": lambda n: (n, n, AVOIDS),
    "conf-based": lambda n: (n + 1, n + 1, CONTAINS),
}

Index = list[dict[tuple[int, ...], int]]  # per level: subset key -> simplex


class BudgetError(RuntimeError):
    """A construction would exceed its configured ceiling: the one
    refusal of every builder, which the CLI reports with exit 2."""


def _level_count(m: int, n: int, based: bool) -> int:
    if based:
        return sum(comb(m - 1, j) for j in range(min(n - 1, m - 1) + 1))
    return sum(comb(m, j) for j in range(1, min(n, m) + 1))


def _check_budget(x, n: int, trunc: int, based: bool, ceiling: int) -> None:
    for k in range(trunc + 1):
        count = _level_count(x.level_size(k), n, based)
        if count > ceiling:
            kind = "based subset" if based else "subset"
            raise BudgetError(
                f"{kind} space with n={n} needs {count} simplices at level {k}, "
                f"over the ceiling of {ceiling}; raise the budget or lower trunc")


def _keys(m: int, bp: int, lo: int, hi: int, rule: str) -> list[tuple[int, ...]]:
    """Sorted subsets of range(m) with lo..hi elements passing the rule."""
    if rule == ANY:
        keys = [s for j in range(lo, hi + 1) for s in combinations(range(m), j)]
    else:
        others = [i for i in range(m) if i != bp]
        if rule == CONTAINS:
            keys = [tuple(sorted((bp,) + rest)) for j in range(lo, hi + 1)
                    for rest in combinations(others, j - 1)]
        else:
            keys = [s for j in range(lo, hi + 1) for s in combinations(others, j)]
    keys.sort()
    return keys


def _build(x: BasedSimplicialSet, lo: int, hi: int, rule: str, trunc: int,
           ceiling: int) -> tuple[BasedSimplicialSet, Index]:
    """The level tables of subset keys with lo..hi elements passing
    ``rule``; ``lo`` is 1 (the filters of "exp", "based" and "bar").

    The ceiling counts the table of every subset of size at most hi
    (only those containing the basepoint under CONTAINS), however many
    keys the filter keeps.
    """
    _check_budget(x, hi, trunc, rule == CONTAINS, ceiling)
    xs = underlying(x)
    collapse = rule == AVOIDS
    offset = 1 if collapse else 0
    keys = [_keys(xs.levels[k], x.basepoint_at(k), lo, hi, rule)
            for k in range(trunc + 1)]
    index = [{s: i for i, s in enumerate(ks, offset)} for ks in keys]
    levels = [len(ks) + offset for ks in keys]
    faces = [None] * (trunc + 1)
    degeneracies = [None] * (trunc + 1)
    for k in range(1, trunc + 1):
        below = index[k - 1]
        maps = []
        for fx in xs.faces[k]:
            if collapse:  # a face image outside the filter is the basepoint
                found = [below.get(tuple(sorted({fx[e] for e in s})), 0)
                         for s in keys[k]]
            else:
                found = [below[tuple(sorted({fx[e] for e in s}))] for s in keys[k]]
            maps.append([0] * offset + found)
        faces[k] = maps
    for k in range(trunc):
        above = index[k + 1]
        degeneracies[k] = [
            [0] * offset + [above[tuple(sorted(sx[e] for e in s))] for s in keys[k]]
            for sx in xs.degeneracies[k]]
    space = SimplicialSet(trunc, levels, faces, degeneracies)
    bp0 = 0 if collapse else index[0][(x.basepoint.index,)]
    return BasedSimplicialSet(space, SimplexRef(0, bp0)), index


def _inclusion(src: BasedSimplicialSet, src_index: Index,
               dst: BasedSimplicialSet, dst_index: Index) -> SimplicialMap:
    """Sends each key of ``src`` to the same key of ``dst``; a collapsed
    basepoint (index 0) goes to the collapsed basepoint of ``dst``."""
    maps = []
    for k, keys in enumerate(src_index):
        mp = [0] * src.level_size(k)
        for s, i in keys.items():
            mp[i] = dst_index[k][s]
        maps.append(mp)
    return SimplicialMap(src, dst, maps)


def _resolve_trunc(x: BasedSimplicialSet, trunc) -> int:
    if trunc is None:
        return x.trunc
    if trunc > x.trunc:
        raise ValueError(f"trunc {trunc} exceeds underlying truncation {x.trunc}")
    return trunc


def exp(x: BasedSimplicialSet, n: int, trunc=None, *,
        ceiling: int = DEFAULT_LEVEL_CEILING) -> BasedSimplicialSet:
    """Subset space of at most n points, based at the basepoint singleton.

    For n=1 the result equals x.
    """
    if n < 1:
        raise ValueError("subset spaces need n >= 1")
    trunc = _resolve_trunc(x, trunc)
    return _build(x, *_FILTERS["exp"](n), trunc, ceiling)[0]


def exp_based(x: BasedSimplicialSet, n: int, trunc=None, *,
              ceiling: int = DEFAULT_LEVEL_CEILING
              ) -> tuple[BasedSimplicialSet, SimplicialMap]:
    """Subsets containing the basepoint, with the inclusion into exp(x, n).

    Closed under faces since every face of the totally degenerate
    basepoint simplex is again one.
    """
    if n < 1:
        raise ValueError("subset spaces need n >= 1")
    trunc = _resolve_trunc(x, trunc)
    based, based_index = _build(x, *_FILTERS["based"](n), trunc, ceiling)
    full, full_index = _build(x, *_FILTERS["exp"](n), trunc, ceiling)
    return based, _inclusion(based, based_index, full, full_index)


class FiltrationTower:
    """Nested spaces 1..n with basepoint-preserving inclusions.

    spaces[i] holds stage i+1; inclusions[i] maps stage i+1 into stage
    i+2.  The composite inclusion between any two stages is available
    through :meth:`inclusion`.
    """

    def __init__(self, variant: str, spaces: list[BasedSimplicialSet],
                 inclusions: Optional[list[SimplicialMap]] = None):
        self.variant = variant
        self.spaces = spaces
        self.inclusions = [] if inclusions is None else inclusions

    @property
    def n(self) -> int:
        return len(self.spaces)

    def stage(self, k: int) -> BasedSimplicialSet:
        """Stage k, 1-indexed."""
        return self.spaces[k - 1]

    def inclusion(self, i: int, j: int) -> SimplicialMap:
        """Composite inclusion of stage i into stage j (1-indexed, i <= j)."""
        if not 1 <= i <= j <= self.n:
            raise ValueError("stages out of range")
        if i == j:
            from .simplicial import identity_map
            return identity_map(self.spaces[i - 1])
        m = self.inclusions[i - 1]
        for t in range(i, j - 1):
            m = m.compose(self.inclusions[t])
        return m


def tower(x: BasedSimplicialSet, n: int, variant: str = "bar", trunc=None, *,
          ceiling: int = DEFAULT_LEVEL_CEILING) -> FiltrationTower:
    """Filtration by number of points, in the requested variant.

    "exp": exp_1 x in exp_2 x in ... ; "based": the basepoint-containing
    chain; "bar": the chain of quotients exp_k(x) / exp_based(x, k), whose
    successive cofibers are the compactified configuration spaces.  Each inclusion
    sends a subset key to the same key one stage up.
    """
    if n < 1:
        raise ValueError("towers need n >= 1")
    if variant not in ("exp", "based", "bar"):
        raise ValueError(f"unknown tower variant {variant!r}")
    trunc = _resolve_trunc(x, trunc)
    stages = [_build(x, *_FILTERS[variant](k), trunc, ceiling)
              for k in range(1, n + 1)]
    inclusions = [_inclusion(*lower, *upper)
                  for lower, upper in zip(stages, stages[1:])]
    return FiltrationTower(variant, [space for space, _ in stages], inclusions)


# ----------------------------------------------------------------------
# Keyed chains
# ----------------------------------------------------------------------

def _degeneracy_masks(xs: SimplicialSet, k: int) -> list[int]:
    """J(x) for each level-k simplex x: bit j set when x is in im s_j."""
    masks = [0] * xs.levels[k]
    if k:
        for j, smap in enumerate(xs.degeneracies[k - 1]):
            bit = 1 << j
            for t in smap:
                masks[t] |= bit
    return masks


def _shared_degeneracies(masks: list[int], key, k: int) -> int:
    """The AND of J(x) over a level-k key: non-zero exactly when the key
    is degenerate."""
    acc = (1 << k) - 1
    for e in key:
        acc &= masks[e]
    return acc


def _level_keys(masks: list[int], k: int, bp: int, lo: int, hi: int,
                rule: str, top: int, ceiling: int,
                collapsed: bool) -> list[tuple[int, ...]]:
    """Sorted non-degenerate level-k keys with lo..hi elements passing
    ``rule``, by a depth-first search carrying the AND of the masks;
    ``collapsed`` puts the collapsed basepoint, the empty key, first.

    An element over a non-degenerate base simplex of dimension m clears
    exactly m mask bits, so a branch whose AND has more bits than ``top``
    (the largest such m) times the slots left is dropped.  Under CONTAINS
    the basepoint, whose mask is all ones, sits in the key from the start.
    """
    cands = [i for i in range(len(masks)) if rule == ANY or i != bp]
    cmasks = [masks[i] for i in cands]
    fixed = (bp,) if rule == CONTAINS else ()
    found: list[tuple[int, ...]] = [()] if collapsed else []

    def emit(rest):
        found.append(tuple(sorted(fixed + rest)) if fixed else rest)
        if len(found) > ceiling:
            raise BudgetError(
                f"subset chains pass {len(found)} non-degenerate cells in "
                f"degree {k}, over the ceiling of {ceiling}")

    def grow(start, rest, acc, left):
        size = len(fixed) + len(rest) + 1  # of each key grown here
        bound = (left - 1) * top
        for pos in range(start, len(cands)):
            a = acc & cmasks[pos]
            if a.bit_count() > bound:
                continue
            nxt = rest + (cands[pos],)
            if not a and size >= lo:
                emit(nxt)
            if left > 1:
                grow(pos + 1, nxt, a, left - 1)

    acc = (1 << k) - 1
    if fixed:
        acc &= masks[bp]
        if not acc and lo <= 1:
            emit(())
    if hi > len(fixed):
        grow(0, (), acc, hi - len(fixed))
    found.sort()
    return found


def keyed_complex(x: BasedSimplicialSet, n: int, variant: str = "exp", *,
                  reduced: bool = False, relative: bool = False,
                  ceiling: int = DEFAULT_CELL_CEILING) -> ChainComplex:
    """Normalized chains of a subset-space variant, straight from keys.

    ``variant`` is one of the five filters in the module docstring: "exp",
    "based" and "bar" for at most n points, or "conf-bar" and
    "conf-based", the two quotient models of the compactified n-point
    configuration space; degrees run up to the truncation of x.  Dims,
    boundaries and basis order equal ``normalized_complex`` of the
    levelwise space (a tower stage, or a quotient of neighbouring
    stages), and ``basis`` holds the keys, the collapsed basepoint being
    the empty key.  ``relative`` drops the basepoint
    vertex, giving the chains relative to it.

    Keys are counted per degree while they are enumerated, and a degree
    with more than ``ceiling`` cells raises ``BudgetError`` before any
    boundary is assembled.
    """
    if n < 1:
        raise ValueError("subset spaces need n >= 1")
    if variant not in _FILTERS:
        raise ValueError(f"unknown subset-space variant {variant!r}")
    if reduced and relative:
        raise ValueError("a complex is either reduced or relative")
    xs = underlying(x)
    trunc = xs.trunc
    lo, hi, rule = _FILTERS[variant](n)
    collapse = rule == AVOIDS or lo > 1
    bps = [x.basepoint_at(k) for k in range(trunc + 1)]
    masks = [_degeneracy_masks(xs, k) for k in range(trunc + 1)]
    tops = []  # top non-degenerate base dimension through each level
    for k, mk in enumerate(masks):
        tops.append(k if 0 in mk else tops[-1])
    keys = [_level_keys(masks[k], k, bps[k], lo, hi, rule, tops[k], ceiling,
                        collapse and k == 0)
            for k in range(trunc + 1)]
    bp_key = () if collapse else (bps[0],)  # the basepoint vertex
    if relative:
        keys[0].remove(bp_key)
    index = [{s: i for i, s in enumerate(ks)} for ks in keys]

    def outside(img, lev):
        """Row of a face image missing from the index, or None to drop it."""
        bp = bps[lev]
        if len(img) < lo or (rule == AVOIDS and bp in img) or (
                rule == CONTAINS and bp not in img):
            if not collapse:
                raise RuntimeError(f"face {img} at level {lev} left a filter "
                                   f"closed under faces")
            return index[0].get(()) if lev == 0 else None
        if _shared_degeneracies(masks[lev], img, lev) or (
                relative and lev == 0 and img == bp_key):
            return None
        raise RuntimeError(f"non-degenerate face {img} at level {lev} "
                           f"passes the filter but was not enumerated")

    dims = [len(ks) for ks in keys]
    boundary = [SparseIntMatrix(1 if reduced else 0, dims[0])]
    if reduced:
        for j in range(dims[0]):
            boundary[0].set(0, j, 1)
    for k in range(1, trunc + 1):
        mat = SparseIntMatrix(dims[k - 1], dims[k])
        fmaps = xs.faces[k]
        below = index[k - 1]
        for j, key in enumerate(keys[k]):
            sign = 1
            for fx in fmaps:
                img = tuple(sorted({fx[e] for e in key}))
                t = below.get(img)
                if t is None:
                    t = outside(img, k - 1)
                if t is not None:
                    mat.add(t, j, sign)
                sign = -sign
        boundary.append(mat)
    c = ChainComplex(dims, boundary, reduced=reduced, basis=keys)
    c.assert_valid()
    return c


def keyed_connecting(x: BasedSimplicialSet, n: int, k: int, *,
                     ceiling: int = DEFAULT_CELL_CEILING
                     ) -> tuple[ChainComplex, ChainComplex, SparseIntMatrix]:
    """The chains of the connecting map of the bar tower, straight from keys.

    Returns (source, target, block) for :func:`homology.zigzag_map`, split
    by key size off one build of the reduced chains of bar_n: the source
    is bar_n / bar_(n-1), the keys of size n relative to the basepoint;
    the target is bar_(n-1) / bar_(n-2), the keys of size n-1 relative to
    the basepoint, or bar_1 (keys of size at most 1, reduced) when n=2;
    the block is the degree-k boundary on source columns and target rows.
    Faces never grow keys, so each piece is a subquotient of the checked
    complex bar_n.  Dims, boundaries, basis order and block equal those
    of the levelwise ``connecting_map`` of ``tower(x, n, "bar")`` in the
    degrees it builds: source up to k+1, target up to k.  ``ceiling``
    bounds the cells of bar_n per degree.
    """
    if n < 2:
        raise ValueError("connecting maps need n >= 2")
    if k < 1:
        raise ValueError("connecting maps start in degree >= 1")
    if x.trunc < k + 1:
        raise ValueError(f"connecting map in degree {k} needs truncation "
                         f">= {k + 1}, have {x.trunc}")
    bar = keyed_complex(x, n, "bar", reduced=True, ceiling=ceiling)

    def sized(sizes: range) -> list[list[int]]:
        return [[i for i, key in enumerate(keys) if len(key) in sizes]
                for keys in bar.basis]

    cols = sized(range(n, n + 1))
    rows = sized(range(2) if n == 2 else range(n - 1, n))
    return (_restrict(bar, cols), _restrict(bar, rows, reduced=n == 2),
            _submatrix(bar.boundary[k], rows[k - 1], cols[k]))
