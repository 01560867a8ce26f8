"""Finite-subset-space functors applied levelwise, and their filtrations.

For a based space X the n-th subset space has, at level k, the nonempty
subsets of X's level-k table of size at most n; faces and degeneracies
act elementwise (faces may merge elements, so cardinality can drop).

Every variant is one filter on these subset keys: a size range and a
basepoint rule, where keys may be anything, must contain the level-k
basepoint or must avoid it.

    exp(x, n)              sizes 1..n,   any key
    exp_based(x, n)        sizes 1..n,   keys containing the basepoint
    exp_bar(x, n)          sizes 1..n,   keys avoiding the basepoint
    conf_plus(x, n, "bar")     size n,   keys avoiding the basepoint
    conf_plus(x, n, "based")   size n+1, keys containing the basepoint
    tower(x, n, variant)   stage k takes sizes 1..k

A filter whose keys must avoid the basepoint, or whose minimum size is
above 1, is not closed under faces.  Its space is the quotient of the
subset space by everything outside the filter: index 0 of each level is
the collapsed basepoint, and every face that leaves the filter goes to
it.  Degeneracies never leave a filter.  So ``exp_bar`` is
exp(x, n) / exp_based(x, n), and ``conf_plus`` gives the successive
quotients of the bar and based chains, the one-point compactified
configuration spaces.

Subset keys are sorted index tuples; each level table lists its keys
lexicographically (after the collapsed basepoint, if any), which makes
all constructions deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from .simplicial import (
    BasedSimplicialSet,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    underlying,
)

DEFAULT_LEVEL_CEILING = 5_000_000

# basepoint rules of a key filter
ANY, CONTAINS, AVOIDS = "any", "contains", "avoids"

Index = list[dict[tuple[int, ...], int]]  # per level: subset key -> simplex


class BudgetError(RuntimeError):
    """A construction would exceed the configured simplex-count ceiling."""


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
           ceiling: int, with_labels: bool = False
           ) -> tuple[BasedSimplicialSet, Index]:
    """The space of subset keys with lo..hi elements passing ``rule``.

    The ceiling counts the table of every subset of size at most hi
    (only those containing the basepoint under CONTAINS), however many
    keys the filter keeps.
    """
    _check_budget(x, hi, trunc, rule == CONTAINS, ceiling)
    xs = underlying(x)
    collapse = rule == AVOIDS or lo > 1
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
    labels = None
    if with_labels and xs.labels is not None:
        labels = [["*"] * offset
                  + ["{" + ",".join(xs.labels[k][e] for e in s) + "}"
                     for s in keys[k]]
                  for k in range(trunc + 1)]
    space = SimplicialSet(trunc, levels, faces, degeneracies, labels)
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
        ceiling: int = DEFAULT_LEVEL_CEILING,
        with_labels: bool = False) -> BasedSimplicialSet:
    """Subset space of at most n points, based at the basepoint singleton.

    For n=1 the result is the identity relabeling of x.
    """
    if n < 1:
        raise ValueError("subset spaces need n >= 1")
    trunc = _resolve_trunc(x, trunc)
    return _build(x, 1, n, ANY, trunc, ceiling, with_labels)[0]


def exp_based(x: BasedSimplicialSet, n: int, trunc=None, *,
              ceiling: int = DEFAULT_LEVEL_CEILING,
              with_labels: bool = False
              ) -> tuple[BasedSimplicialSet, SimplicialMap]:
    """Subsets containing the basepoint, with the inclusion into exp(x, n).

    Closed under faces since every face of the totally degenerate
    basepoint simplex is again one.
    """
    if n < 1:
        raise ValueError("subset spaces need n >= 1")
    trunc = _resolve_trunc(x, trunc)
    based, based_index = _build(x, 1, n, CONTAINS, trunc, ceiling, with_labels)
    full, full_index = _build(x, 1, n, ANY, trunc, ceiling, with_labels)
    return based, _inclusion(based, based_index, full, full_index)


def exp_bar(x: BasedSimplicialSet, n: int, trunc=None, *,
            ceiling: int = DEFAULT_LEVEL_CEILING,
            with_labels: bool = False) -> BasedSimplicialSet:
    """Quotient of exp(x, n) by the basepoint-containing subsets: the
    subsets avoiding the basepoint plus the collapsed basepoint."""
    if n < 1:
        raise ValueError("subset spaces need n >= 1")
    trunc = _resolve_trunc(x, trunc)
    return _build(x, 1, n, AVOIDS, trunc, ceiling, with_labels)[0]


def conf_plus(x: BasedSimplicialSet, n: int, model: str = "based", trunc=None, *,
              ceiling: int = DEFAULT_LEVEL_CEILING) -> BasedSimplicialSet:
    """One-point compactified configuration space of n points in x minus
    its basepoint, as a quotient of either subset-space chain.

    model="based": exp_based(x, n+1) / exp_based(x, n), the keys of size
    n+1 that contain the basepoint;
    model="bar": exp_bar(x, n) / exp_bar(x, n-1), the keys of size n that
    avoid it.
    """
    if n < 1:
        raise ValueError("configuration spaces need n >= 1")
    trunc = _resolve_trunc(x, trunc)
    if model == "based":
        return _build(x, n + 1, n + 1, CONTAINS, trunc, ceiling)[0]
    if model == "bar":
        return _build(x, n, n, AVOIDS, trunc, ceiling)[0]
    raise ValueError(f"unknown conf_plus model {model!r}")


@dataclass
class FiltrationTower:
    """Nested spaces 1..n with basepoint-preserving inclusions.

    spaces[i] holds stage i+1; inclusions[i] maps stage i+1 into stage
    i+2.  The composite inclusion between any two stages is available
    through :meth:`inclusion`.
    """

    variant: str
    spaces: list[BasedSimplicialSet]
    inclusions: list[SimplicialMap] = field(default_factory=list)

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


_TOWER_RULES = {"exp": ANY, "based": CONTAINS, "bar": AVOIDS}


def tower(x: BasedSimplicialSet, n: int, variant: str = "bar", trunc=None, *,
          ceiling: int = DEFAULT_LEVEL_CEILING) -> FiltrationTower:
    """Filtration by number of points, in the requested variant.

    "exp": exp_1 x in exp_2 x in ... ; "based": the basepoint-containing
    chain; "bar": the chain of quotients exp_bar, whose successive
    cofibers are the compactified configuration spaces.  Each inclusion
    sends a subset key to the same key one stage up.
    """
    if n < 1:
        raise ValueError("towers need n >= 1")
    if variant not in _TOWER_RULES:
        raise ValueError(f"unknown tower variant {variant!r}")
    trunc = _resolve_trunc(x, trunc)
    rule = _TOWER_RULES[variant]
    stages = [_build(x, 1, k, rule, trunc, ceiling) for k in range(1, n + 1)]
    inclusions = [_inclusion(*lower, *upper)
                  for lower, upper in zip(stages, stages[1:])]
    return FiltrationTower(variant, [space for space, _ in stages], inclusions)
