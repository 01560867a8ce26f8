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

A filter whose keys must avoid the basepoint, or whose minimum size is
above 1, is not closed under faces.  Its space is the quotient of the
subset space by everything outside the filter: index 0 of each level is
the collapsed basepoint, and every face that leaves the filter goes to
it.  Degeneracies never leave a filter.  So "bar" is
exp(x, n) / exp_based(x, n), and "conf-bar" and "conf-based" are the
successive quotients bar_n / bar_(n-1) and based_(n+1) / based_n, the
one-point compactified configuration spaces.

Subset keys are sorted index tuples.  Each levelwise call lists one
table, every key of 1..n elements of each level in lexicographic order,
and reads the rest off it: ``exp_based`` is its restriction
(:func:`simplicial.restrict`) to the keys holding the basepoint, "bar"
is the quotient of the table by that restriction, and stage k of
``tower(x, n, variant)`` is the top stage restricted to keys of at most
k elements.  Faces never grow keys, so each restriction is closed.  The
keyed chains of :func:`keyed_complex` take all five variants.

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

from .homology import ChainComplex
from .simplicial import (
    BasedSimplicialSet,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    quotient,
    restrict,
    underlying,
)
from .snf import SparseIntMatrix

# Non-degenerate cells per degree, the one ceiling of every builder: the
# keyed chains, the Fox-Neuwirth cells (``finsub.fncells``, each counted
# once per separator) and the bar resolution (``finsub.groupcoh``); the
# levelwise tables count every subset of a level.  The S^2 n=5 and S^4
# n=3 keyed builds each took 1.6 KB of peak RSS per cell of their largest
# degree, so one keyed degree at this ceiling builds in about 0.8 GB.
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


class BudgetError(RuntimeError):
    """A construction would exceed its configured ceiling: the one
    refusal of every builder, which the CLI reports with exit 2."""


def _table(x: BasedSimplicialSet, n: int, trunc, ceiling: int
           ) -> tuple[BasedSimplicialSet, list[list[tuple[int, ...]]]]:
    """exp(x, n) through level ``trunc`` (default: all of x), with its
    keys: every subset of 1..n elements of each level, sorted.

    Each level's count, sum of C(m, j) over j = 1..n, must be at most
    ``ceiling`` before any key is listed.
    """
    if n < 1:
        raise ValueError("subset spaces need n >= 1")
    if trunc is None:
        trunc = x.trunc
    elif trunc > x.trunc:
        raise ValueError(f"trunc {trunc} exceeds underlying truncation {x.trunc}")
    xs = underlying(x)
    for k in range(trunc + 1):
        count = sum(comb(xs.levels[k], j) for j in range(1, n + 1))
        if count > ceiling:
            raise BudgetError(
                f"subset space with n={n} needs {count} simplices at level {k}, "
                f"over the ceiling of {ceiling}; raise the budget or lower trunc")
    keys = [sorted(s for j in range(1, n + 1) for s in combinations(range(m), j))
            for m in xs.levels[:trunc + 1]]
    index = [{s: i for i, s in enumerate(ks)} for ks in keys]
    faces = [None] + [
        [[index[k - 1][tuple(sorted({fx[e] for e in s}))] for s in keys[k]]
         for fx in xs.faces[k]] for k in range(1, trunc + 1)]
    degeneracies = [
        [[index[k + 1][tuple(sorted(sx[e] for e in s))] for s in keys[k]]
         for sx in xs.degeneracies[k]] for k in range(trunc)] + [None]
    space = SimplicialSet(trunc, [len(ks) for ks in keys], faces, degeneracies)
    bp = SimplexRef(0, index[0][(x.basepoint.index,)])
    return BasedSimplicialSet(space, bp), keys


def _based(x: BasedSimplicialSet, table: BasedSimplicialSet, keys
           ) -> tuple[BasedSimplicialSet, SimplicialMap]:
    """The restriction of ``table`` to the keys holding x's basepoint:
    closed under faces since every face of the totally degenerate
    basepoint simplex is again one."""
    return restrict(table, [[i for i, s in enumerate(ks) if x.basepoint_at(k) in s]
                            for k, ks in enumerate(keys)])


def exp(x: BasedSimplicialSet, n: int, trunc=None, *,
        ceiling: int = DEFAULT_CELL_CEILING) -> BasedSimplicialSet:
    """Subset space of at most n points, based at the basepoint singleton.

    For n=1 the result equals x.
    """
    return _table(x, n, trunc, ceiling)[0]


def exp_based(x: BasedSimplicialSet, n: int, trunc=None, *,
              ceiling: int = DEFAULT_CELL_CEILING
              ) -> tuple[BasedSimplicialSet, SimplicialMap]:
    """Subsets containing the basepoint, with the inclusion into exp(x, n).

    ``ceiling`` counts the table of exp(x, n), every subset of size at
    most n.
    """
    return _based(x, *_table(x, n, trunc, ceiling))


class FiltrationTower:
    """Nested spaces 1..n with basepoint-preserving inclusions.

    spaces[i] holds stage i+1, and kept[i][k] lists, in order, the
    level-k simplices of the top stage that stage i+1 keeps.
    inclusions[i] maps stage i+1 into stage i+2; :meth:`inclusion` reads
    the inclusion between any two stages off ``kept``.
    """

    def __init__(self, variant: str, spaces: list[BasedSimplicialSet],
                 kept: list[list[list[int]]]):
        self.variant = variant
        self.spaces = spaces
        self.kept = kept
        self.inclusions = [self.inclusion(i, i + 1) for i in range(1, self.n)]

    @property
    def n(self) -> int:
        return len(self.spaces)

    def stage(self, k: int) -> BasedSimplicialSet:
        """Stage k, 1-indexed."""
        return self.spaces[k - 1]

    def inclusion(self, i: int, j: int) -> SimplicialMap:
        """Inclusion of stage i into stage j (1-indexed, i <= j)."""
        if not 1 <= i <= j <= self.n:
            raise ValueError("stages out of range")
        maps = []
        for lower, upper in zip(self.kept[i - 1], self.kept[j - 1]):
            at = {s: p for p, s in enumerate(upper)}
            maps.append([at[s] for s in lower])
        return SimplicialMap(self.spaces[i - 1], self.spaces[j - 1], maps)


def tower(x: BasedSimplicialSet, n: int, variant: str = "bar", trunc=None, *,
          ceiling: int = DEFAULT_CELL_CEILING) -> FiltrationTower:
    """Filtration by number of points, in the requested variant.

    The top stage is exp(x, n) for "exp", exp_based(x, n) for "based" and
    their quotient exp(x, n) / exp_based(x, n) for "bar"; stage k < n is
    its restriction to keys of at most k elements (and the collapsed
    basepoint), so the successive cofibers of the bar tower are the
    compactified configuration spaces.  Each inclusion sends a subset key
    to the same key.  ``ceiling`` counts the table of exp(x, n).
    """
    if variant not in ("exp", "based", "bar"):
        raise ValueError(f"unknown tower variant {variant!r}")
    table, keys = _table(x, n, trunc, ceiling)
    # the key size of each top-stage simplex; 0 for a collapsed basepoint
    if variant == "exp":
        top, sizes = table, [[len(s) for s in ks] for ks in keys]
    else:
        based, incl = _based(x, table, keys)
        if variant == "based":
            top = based
            sizes = [[len(keys[k][s]) for s in mp] for k, mp in enumerate(incl.maps)]
        else:
            top, qmap = quotient(table, incl)
            sizes = [[0] * m for m in top.levels]
            for k, mp in enumerate(qmap.maps):
                for s, q in enumerate(mp):
                    sizes[k][q] = len(keys[k][s]) if q else 0
    stages = [restrict(top, [[s for s, size in enumerate(sz) if size <= k]
                             for sz in sizes]) for k in range(1, n)]
    return FiltrationTower(
        variant, [space for space, _ in stages] + [top],
        [incl.maps for _, incl in stages] + [[list(range(m)) for m in top.levels]])


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
                  reduced: bool = False,
                  ceiling: int = DEFAULT_CELL_CEILING) -> ChainComplex:
    """Normalized chains of a subset-space variant, straight from keys.

    ``variant`` is one of the five filters in the module docstring: "exp",
    "based" and "bar" for at most n points, or "conf-bar" and
    "conf-based", the two quotient models of the compactified n-point
    configuration space; degrees run up to the truncation of x.  Dims,
    boundaries and basis order equal ``normalized_complex`` of the
    levelwise space (a tower stage, or a quotient of neighbouring
    stages), and ``basis`` holds the keys, the collapsed basepoint being
    the empty key.

    Keys are counted per degree while they are enumerated, and a degree
    with more than ``ceiling`` cells raises ``BudgetError`` before any
    boundary is assembled.
    """
    if n < 1:
        raise ValueError("subset spaces need n >= 1")
    if variant not in _FILTERS:
        raise ValueError(f"unknown subset-space variant {variant!r}")
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
        if _shared_degeneracies(masks[lev], img, lev):
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
