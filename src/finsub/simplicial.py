"""Finite truncated simplicial sets and structure-preserving maps.

A space is stored levelwise: at each level k a finite indexed table of
simplices, total face maps d_0..d_k down to level k-1 and degeneracy
maps s_0..s_k up to level k+1 (below the truncation).  Everything is
frozen to dense integer indices after construction, so all structure
maps are plain integer lists.

Builders: :func:`sphere_model` (the d-simplex with its boundary
collapsed), :func:`torus_model`, :func:`point_model`, plus generic
:func:`product`, :func:`quotient` and :func:`restrict`.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import Optional, Union


class SpaceFormatError(ValueError):
    """Raised for malformed space files, with field diagnostics."""


class SimplexRef:
    """Position of a simplex: level and index into that level's table.
    A value: equal positions hash alike."""

    __slots__ = ("level", "index")

    def __init__(self, level: int, index: int):
        self.level = level
        self.index = index

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.level == other.level and self.index == other.index

    def __hash__(self) -> int:
        return hash((self.level, self.index))

    def __repr__(self) -> str:
        return f"SimplexRef(level={self.level!r}, index={self.index!r})"


class SimplicialSet:
    """Truncated simplicial set with dense integer simplex tables.

    faces[k][i][x] is d_i(x) for a level-k simplex x (1 <= k <= trunc,
    0 <= i <= k); degeneracies[k][j][x] is s_j(x) (0 <= k < trunc,
    0 <= j <= k).
    """

    def __init__(self, trunc: int, levels: list[int],
                 faces: list[Optional[list[list[int]]]],
                 degeneracies: list[Optional[list[list[int]]]]):
        if trunc < 0:
            raise ValueError("trunc must be non-negative")
        if len(levels) != trunc + 1:
            raise ValueError("levels must list sizes for 0..trunc")
        if any(n <= 0 for n in levels):
            raise ValueError("every level table must be non-empty")
        self.trunc = trunc
        self.levels = list(levels)
        self.faces = faces
        self.degeneracies = degeneracies
        self._nondeg_cache: dict[int, list[int]] = {}
        self._check_shapes()

    def _check_shapes(self) -> None:
        if len(self.faces) != self.trunc + 1:
            raise ValueError("faces must be indexed by level 0..trunc")
        if len(self.degeneracies) != self.trunc + 1:
            raise ValueError("degeneracies must be indexed by level 0..trunc")
        for k in range(1, self.trunc + 1):
            maps = self.faces[k]
            if maps is None or len(maps) != k + 1:
                raise ValueError(f"level {k} needs face maps d_0..d_{k}")
            for i, fmap in enumerate(maps):
                if len(fmap) != self.levels[k]:
                    raise ValueError(f"face map d_{i} at level {k} has wrong length")
                for x, t in enumerate(fmap):
                    if not 0 <= t < self.levels[k - 1]:
                        raise ValueError(
                            f"face d_{i}({x}) at level {k} out of range: {t}")
        for k in range(self.trunc):
            maps = self.degeneracies[k]
            if maps is None or len(maps) != k + 1:
                raise ValueError(f"level {k} needs degeneracy maps s_0..s_{k}")
            for j, smap in enumerate(maps):
                if len(smap) != self.levels[k]:
                    raise ValueError(f"degeneracy s_{j} at level {k} has wrong length")
                for x, t in enumerate(smap):
                    if not 0 <= t < self.levels[k + 1]:
                        raise ValueError(
                            f"degeneracy s_{j}({x}) at level {k} out of range: {t}")

    # -- access ---------------------------------------------------------

    def level_size(self, k: int) -> int:
        return self.levels[k]

    def face(self, k: int, i: int, x: int) -> int:
        return self.faces[k][i][x]

    def degeneracy(self, k: int, j: int, x: int) -> int:
        return self.degeneracies[k][j][x]

    def nondegenerate(self, k: int) -> list[int]:
        """Level-k simplices not in the image of any degeneracy."""
        if k not in self._nondeg_cache:
            if k == 0:
                self._nondeg_cache[0] = list(range(self.levels[0]))
            else:
                hit = bytearray(self.levels[k])
                for smap in self.degeneracies[k - 1]:
                    for t in smap:
                        hit[t] = 1
                self._nondeg_cache[k] = [x for x in range(self.levels[k]) if not hit[x]]
        return self._nondeg_cache[k]

    def nondegenerate_counts(self) -> list[int]:
        return [len(self.nondegenerate(k)) for k in range(self.trunc + 1)]

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * n for k, n in enumerate(self.nondegenerate_counts()))

    # -- identity -------------------------------------------------------

    def structural_data(self) -> dict:
        return {
            "trunc": self.trunc,
            "levels": self.levels,
            "faces": [self.faces[k] for k in range(1, self.trunc + 1)],
            "degeneracies": [self.degeneracies[k] for k in range(self.trunc)],
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialSet):
            return NotImplemented
        return self.structural_data() == other.structural_data()

    def __repr__(self) -> str:
        return f"SimplicialSet(trunc={self.trunc}, levels={self.levels})"


class BasedSimplicialSet:
    """A simplicial set with a chosen vertex; its iterated degeneracies
    give the totally degenerate basepoint simplex at every level."""

    def __init__(self, space: SimplicialSet, basepoint: SimplexRef):
        if basepoint.level != 0:
            raise ValueError("basepoint must live at level 0")
        if not 0 <= basepoint.index < space.levels[0]:
            raise ValueError("basepoint index out of range")
        self.space = space
        self.basepoint = basepoint
        bp = [basepoint.index]
        for k in range(space.trunc):
            bp.append(space.degeneracy(k, 0, bp[-1]))
        self._bp_levels = bp

    def basepoint_at(self, k: int) -> int:
        """Index of the totally degenerate basepoint simplex at level k."""
        return self._bp_levels[k]

    # passthrough accessors
    @property
    def trunc(self) -> int:
        return self.space.trunc

    @property
    def levels(self) -> list[int]:
        return self.space.levels

    def level_size(self, k: int) -> int:
        return self.space.levels[k]

    def face(self, k: int, i: int, x: int) -> int:
        return self.space.face(k, i, x)

    def degeneracy(self, k: int, j: int, x: int) -> int:
        return self.space.degeneracy(k, j, x)

    def nondegenerate(self, k: int) -> list[int]:
        return self.space.nondegenerate(k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BasedSimplicialSet):
            return NotImplemented
        return self.space == other.space and self.basepoint == other.basepoint

    def __repr__(self) -> str:
        return f"BasedSimplicialSet(trunc={self.trunc}, levels={self.levels})"


SpaceLike = Union[SimplicialSet, BasedSimplicialSet]


def underlying(space: SpaceLike) -> SimplicialSet:
    return space.space if isinstance(space, BasedSimplicialSet) else space


class SimplicialMap:
    """Levelwise map of simplex tables commuting with all structure maps.

    Defined for levels 0..trunc where trunc is the shared truncation of
    source and target (the minimum).
    """

    def __init__(self, source: SpaceLike, target: SpaceLike,
                 maps: list[list[int]]):
        self.source = source
        self.target = target
        self.trunc = min(source.trunc, target.trunc)
        if len(maps) != self.trunc + 1:
            raise ValueError("maps must cover levels 0..min(trunc)")
        for k, mp in enumerate(maps):
            if len(mp) != source.level_size(k):
                raise ValueError(f"level-{k} map has wrong length")
            tsize = target.level_size(k)
            for x, t in enumerate(mp):
                if not 0 <= t < tsize:
                    raise ValueError(f"level-{k} image of {x} out of range: {t}")
        self.maps = maps

    def __call__(self, k: int, x: int) -> int:
        return self.maps[k][x]

    def is_injective(self) -> bool:
        return all(len(set(mp)) == len(mp) for mp in self.maps)

    def violations(self) -> list[tuple]:
        """Structure-map commutation failures, located by (kind, level,
        index, i)."""
        src = underlying(self.source)
        tgt = underlying(self.target)
        bad = []
        for k in range(1, self.trunc + 1):
            mp_k, mp_k1 = self.maps[k], self.maps[k - 1]
            for i in range(k + 1):
                fsrc = src.faces[k][i]
                ftgt = tgt.faces[k][i]
                for x in range(src.levels[k]):
                    if mp_k1[fsrc[x]] != ftgt[mp_k[x]]:
                        bad.append(("face", k, x, i))
        for k in range(self.trunc):
            mp_k, mp_k1 = self.maps[k], self.maps[k + 1]
            for j in range(k + 1):
                ssrc = src.degeneracies[k][j]
                stgt = tgt.degeneracies[k][j]
                for x in range(src.levels[k]):
                    if mp_k1[ssrc[x]] != stgt[mp_k[x]]:
                        bad.append(("degeneracy", k, x, j))
        return bad

    def is_valid(self) -> bool:
        return not self.violations()

    def compose(self, then: "SimplicialMap") -> "SimplicialMap":
        """self followed by `then` (self.target must be then.source)."""
        if underlying(self.target) is not underlying(then.source) and \
                underlying(self.target) != underlying(then.source):
            raise ValueError("maps are not composable")
        trunc = min(self.trunc, then.trunc)
        maps = [[then.maps[k][self.maps[k][x]]
                 for x in range(len(self.maps[k]))] for k in range(trunc + 1)]
        return SimplicialMap(self.source, then.target, maps)


def identity_map(space: SpaceLike) -> SimplicialMap:
    return SimplicialMap(space, space,
                         [list(range(space.level_size(k)))
                          for k in range(space.trunc + 1)])


# ----------------------------------------------------------------------
# Validation of the simplicial identities
# ----------------------------------------------------------------------

class ValidationReport:
    def __init__(self, violations: list[tuple]):
        self.violations = violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "valid: 0 violations"
        head = ", ".join(repr(v) for v in self.violations[:5])
        return f"{len(self.violations)} violations: {head}"


def validate(space: SpaceLike) -> ValidationReport:
    """Check every simplicial identity on every stored simplex.

    Violations are located by (identity, level, simplex index, i, j).
    """
    x = underlying(space)
    bad: list[tuple] = []
    # d_i d_j = d_{j-1} d_i  (i < j)
    for k in range(2, x.trunc + 1):
        fk = x.faces[k]
        fk1 = x.faces[k - 1]
        for j in range(1, k + 1):
            for i in range(j):
                lhs_outer, lhs_inner = fk1[i], fk[j]
                rhs_outer, rhs_inner = fk1[j - 1], fk[i]
                for s in range(x.levels[k]):
                    if lhs_outer[lhs_inner[s]] != rhs_outer[rhs_inner[s]]:
                        bad.append(("dd", k, s, i, j))
    # s_i s_j = s_{j+1} s_i  (i <= j)
    for k in range(x.trunc - 1):
        sk = x.degeneracies[k]
        sk1 = x.degeneracies[k + 1]
        for j in range(k + 1):
            for i in range(j + 1):
                for s in range(x.levels[k]):
                    if sk1[i][sk[j][s]] != sk1[j + 1][sk[i][s]]:
                        bad.append(("ss", k, s, i, j))
    # d_i s_j mixed identities
    for k in range(x.trunc):
        sk = x.degeneracies[k]
        fk1 = x.faces[k + 1]
        for j in range(k + 1):
            for i in range(k + 2):
                for s in range(x.levels[k]):
                    got = fk1[i][sk[j][s]]
                    if i == j or i == j + 1:
                        want = s
                    elif i < j:
                        want = x.degeneracies[k - 1][j - 1][x.faces[k][i][s]]
                    else:  # i > j + 1
                        want = x.degeneracies[k - 1][j][x.faces[k][i - 1][s]]
                    if got != want:
                        bad.append(("ds", k, s, i, j))
    return ValidationReport(bad)


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------

def _monotone_surjections(k: int, d: int) -> list[tuple[int, ...]]:
    """Monotone surjections {0..k} -> {0..d} as value tuples, sorted.

    Such a map is determined by the d positions (among 1..k) where the
    value jumps, so there are C(k, d) of them.
    """
    out = []
    for jumps in combinations(range(1, k + 1), d):
        vals = []
        v = 0
        nxt = 0
        for i in range(k + 1):
            while nxt < d and jumps[nxt] == i:
                v += 1
                nxt += 1
            vals.append(v)
        out.append(tuple(vals))
    out.sort()
    return out


def sphere_model(d: int, trunc: int) -> BasedSimplicialSet:
    """Minimal sphere S^d: the d-simplex with its boundary collapsed.

    Level k holds one basepoint simplex (index 0) plus one simplex per
    monotone surjection {0..k} ->> {0..d}; faces compose with the
    coface inclusion and collapse non-surjections to the basepoint.
    Exactly two simplices are non-degenerate: the basepoint and the
    top cell (when trunc >= d).
    """
    if d < 1:
        raise ValueError("sphere dimension must be positive")
    if trunc < 0:
        raise ValueError("trunc must be non-negative")
    tables = [_monotone_surjections(k, d) for k in range(trunc + 1)]
    index = [{t: i + 1 for i, t in enumerate(tab)} for tab in tables]
    levels = [len(tab) + 1 for tab in tables]
    faces: list[Optional[list[list[int]]]] = [None] * (trunc + 1)
    degeneracies: list[Optional[list[list[int]]]] = [None] * (trunc + 1)
    for k in range(1, trunc + 1):
        maps = []
        for i in range(k + 1):
            fmap = [0] * levels[k]
            for x, vals in enumerate(tables[k]):
                dropped = vals[:i] + vals[i + 1:]
                fmap[x + 1] = index[k - 1].get(dropped, 0)
            maps.append(fmap)
        faces[k] = maps
    for k in range(trunc):
        maps = []
        for j in range(k + 1):
            smap = [0] * levels[k]
            for x, vals in enumerate(tables[k]):
                doubled = vals[:j + 1] + vals[j:]
                smap[x + 1] = index[k + 1][doubled]
            maps.append(smap)
        degeneracies[k] = maps
    space = SimplicialSet(trunc, levels, faces, degeneracies)
    return BasedSimplicialSet(space, SimplexRef(0, 0))


def point_model(trunc: int) -> BasedSimplicialSet:
    """One simplex per level: the terminal space."""
    levels = [1] * (trunc + 1)
    faces: list[Optional[list[list[int]]]] = [None] + [
        [[0]] * (k + 1) for k in range(1, trunc + 1)]
    degeneracies: list[Optional[list[list[int]]]] = [
        [[0]] * (k + 1) for k in range(trunc)] + [None]
    space = SimplicialSet(trunc, levels, faces, degeneracies)
    return BasedSimplicialSet(space, SimplexRef(0, 0))


def product(x: SpaceLike, y: SpaceLike) -> SimplicialSet:
    """Levelwise Cartesian product; structure maps act componentwise.

    The pair (a, b) at level k has index a * |Y_k| + b.  Truncation is
    the minimum of the factors'.
    """
    xs, ys = underlying(x), underlying(y)
    trunc = min(xs.trunc, ys.trunc)
    levels = [xs.levels[k] * ys.levels[k] for k in range(trunc + 1)]
    faces: list[Optional[list[list[int]]]] = [None] * (trunc + 1)
    degeneracies: list[Optional[list[list[int]]]] = [None] * (trunc + 1)
    for k in range(1, trunc + 1):
        ny, ny1 = ys.levels[k], ys.levels[k - 1]
        maps = []
        for i in range(k + 1):
            fx, fy = xs.faces[k][i], ys.faces[k][i]
            fmap = [0] * levels[k]
            for a in range(xs.levels[k]):
                base = a * ny
                fa = fx[a] * ny1
                for b in range(ny):
                    fmap[base + b] = fa + fy[b]
            maps.append(fmap)
        faces[k] = maps
    for k in range(trunc):
        ny, ny1 = ys.levels[k], ys.levels[k + 1]
        maps = []
        for j in range(k + 1):
            sx, sy = xs.degeneracies[k][j], ys.degeneracies[k][j]
            smap = [0] * levels[k]
            for a in range(xs.levels[k]):
                base = a * ny
                sa = sx[a] * ny1
                for b in range(ny):
                    smap[base + b] = sa + sy[b]
            maps.append(smap)
        degeneracies[k] = maps
    return SimplicialSet(trunc, levels, faces, degeneracies)


def torus_model(trunc: int) -> BasedSimplicialSet:
    """Product of two minimal circles, based at the pair of basepoints."""
    circle = sphere_model(1, trunc)
    t2 = product(circle, circle)
    bp = circle.basepoint.index * circle.level_size(0) + circle.basepoint.index
    return BasedSimplicialSet(t2, SimplexRef(0, bp))


def quotient(x: SpaceLike, a: SimplicialMap) -> tuple[BasedSimplicialSet, SimplicialMap]:
    """Collapse the image of ``a`` levelwise to the basepoint's degeneracies.

    ``a`` must be a levelwise-injective valid map into ``x`` covering all
    of its levels; a valid map's image is automatically closed under the
    structure maps, so any closure failure means the map itself is broken
    and is rejected.
    """
    xs = underlying(x)
    tgt = underlying(a.target)
    if tgt is not xs and tgt != xs:
        raise ValueError("quotient: map does not land in the given space")
    if a.trunc < xs.trunc:
        raise ValueError("quotient: subspace map must cover every stored level")
    if not a.is_injective():
        raise ValueError("quotient: subspace map must be levelwise injective")
    bad = a.violations()
    if bad:
        raise ValueError(
            f"quotient: image not closed under structure maps ({len(bad)} "
            f"commutation failures, first {bad[0]})")
    trunc = xs.trunc
    new_of: list[list[int]] = []
    levels = []
    for k in range(trunc + 1):
        img = set(a.maps[k])
        table = [0] * xs.levels[k]
        nxt = 1
        for s in range(xs.levels[k]):
            if s not in img:
                table[s] = nxt
                nxt += 1
        new_of.append(table)
        levels.append(nxt)
    faces: list[Optional[list[list[int]]]] = [None] * (trunc + 1)
    degeneracies: list[Optional[list[list[int]]]] = [None] * (trunc + 1)
    for k in range(1, trunc + 1):
        maps = []
        for i in range(k + 1):
            fmap = [0] * levels[k]
            src = xs.faces[k][i]
            for s in range(xs.levels[k]):
                ns = new_of[k][s]
                if ns:
                    fmap[ns] = new_of[k - 1][src[s]]
            maps.append(fmap)
        faces[k] = maps
    for k in range(trunc):
        maps = []
        for j in range(k + 1):
            smap = [0] * levels[k]
            src = xs.degeneracies[k][j]
            for s in range(xs.levels[k]):
                ns = new_of[k][s]
                if ns:
                    smap[ns] = new_of[k + 1][src[s]]
            maps.append(smap)
        degeneracies[k] = maps
    q = SimplicialSet(trunc, levels, faces, degeneracies)
    based = BasedSimplicialSet(q, SimplexRef(0, 0))
    qmap = SimplicialMap(x, based, new_of)
    return based, qmap


def restrict(x: BasedSimplicialSet, keep: list
             ) -> tuple[BasedSimplicialSet, SimplicialMap]:
    """The simplicial subset of ``x`` on the simplices ``keep[k]`` of each
    level k = 0..len(keep)-1, with its inclusion into ``x``.

    Kept simplices keep their order in ``x``, and the basepoint stays the
    basepoint; fewer levels than ``x`` has truncate.  A keep that lacks
    the basepoint, names a simplex ``x`` does not have, or is not closed
    under the faces and degeneracies of its levels raises ``ValueError``.
    """
    xs = underlying(x)
    trunc = len(keep) - 1
    if not 0 <= trunc <= xs.trunc:
        raise ValueError(f"restrict: keep needs 1..{xs.trunc + 1} levels, "
                         f"has {len(keep)}")
    tables = [sorted(set(ks)) for ks in keep]
    for k, tab in enumerate(tables):
        if tab and not 0 <= tab[0] <= tab[-1] < xs.levels[k]:
            raise ValueError(f"restrict: keep at level {k} is out of range")
    pos = [{s: i for i, s in enumerate(tab)} for tab in tables]
    if x.basepoint.index not in pos[0]:
        raise ValueError("restrict: keep lacks the basepoint")

    def moved(maps, k, lev):
        try:
            return [[pos[lev][mp[s]] for s in tables[k]] for mp in maps]
        except KeyError as exc:
            raise ValueError(
                f"restrict: keep is not closed: level-{lev} simplex "
                f"{exc.args[0]}, a face or degeneracy of a kept level-{k} "
                f"simplex, is dropped") from None

    faces = [None] + [moved(xs.faces[k], k, k - 1) for k in range(1, trunc + 1)]
    degeneracies = [moved(xs.degeneracies[k], k, k + 1)
                    for k in range(trunc)] + [None]
    sub = SimplicialSet(trunc, [len(tab) for tab in tables], faces, degeneracies)
    based = BasedSimplicialSet(sub, SimplexRef(0, pos[0][x.basepoint.index]))
    return based, SimplicialMap(based, x, tables)


def nondegenerate(space: SpaceLike, k: int) -> list[SimplexRef]:
    """Level-k simplices not of the form s_j(y), as references."""
    return [SimplexRef(k, i) for i in underlying(space).nondegenerate(k)]


# ----------------------------------------------------------------------
# Space file format
# ----------------------------------------------------------------------

def space_to_json(space: SpaceLike) -> dict:
    data = underlying(space).structural_data()
    if isinstance(space, BasedSimplicialSet):
        data["basepoint"] = space.basepoint.index
    return data


def save_space(space: SpaceLike, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(space_to_json(space), fh, sort_keys=True)
        fh.write("\n")


def _is_index(value) -> bool:
    """An int that is not a bool (JSON true and false load as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_maps(field: str, raw: list, first: int) -> None:
    """Each level of ``raw``, numbered from ``first``, must be a list of
    maps, each map a list of integer indices."""
    for k, maps in enumerate(raw, first):
        if not isinstance(maps, list) or not all(
                isinstance(m, list) and all(map(_is_index, m)) for m in maps):
            raise SpaceFormatError(f"field {field!r}: level {k} must be a list "
                                   f"of maps, each a list of integer indices")


def space_from_json(data: dict) -> SpaceLike:
    """The space a parsed space file describes; a file that does not
    describe one raises SpaceFormatError.  Unknown fields are ignored."""
    if not isinstance(data, dict):
        raise SpaceFormatError("space file must contain a JSON object")
    for field in ("trunc", "levels", "faces", "degeneracies"):
        if field not in data:
            raise SpaceFormatError(f"missing field {field!r}")
    trunc = data["trunc"]
    levels = data["levels"]
    if not _is_index(trunc) or trunc < 0:
        raise SpaceFormatError("field 'trunc' must be a non-negative integer")
    if not isinstance(levels, list) or not levels or not all(
            map(_is_index, levels)):
        raise SpaceFormatError(
            "field 'levels' must be a non-empty list of integer sizes")
    if len(levels) != trunc + 1:
        raise SpaceFormatError(
            f"field 'levels' must have trunc+1={trunc + 1} entries, got {len(levels)}")
    raw_faces = data["faces"]
    raw_degen = data["degeneracies"]
    if not isinstance(raw_faces, list) or len(raw_faces) != trunc:
        raise SpaceFormatError(
            f"field 'faces' must list maps for levels 1..{trunc}")
    if not isinstance(raw_degen, list) or len(raw_degen) != trunc:
        raise SpaceFormatError(
            f"field 'degeneracies' must list maps for levels 0..{trunc - 1}")
    _check_maps("faces", raw_faces, 1)
    _check_maps("degeneracies", raw_degen, 0)
    faces: list[Optional[list[list[int]]]] = [None] + list(raw_faces)
    degeneracies: list[Optional[list[list[int]]]] = list(raw_degen) + [None]
    try:
        space = SimplicialSet(trunc, levels, faces, degeneracies)
    except ValueError as exc:
        raise SpaceFormatError(str(exc)) from exc
    report = validate(space)
    if not report.ok:
        raise SpaceFormatError(
            f"simplicial identities fail: {report}")
    if "basepoint" in data:
        bp = data["basepoint"]
        if not _is_index(bp) or not 0 <= bp < levels[0]:
            raise SpaceFormatError(f"basepoint {bp!r} is not a level-0 index")
        return BasedSimplicialSet(space, SimplexRef(0, bp))
    return space


def load_space(path: str) -> SpaceLike:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpaceFormatError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                f"{exc.msg}") from exc
    return space_from_json(data)


def space_hash(space: SpaceLike) -> str:
    """Content hash of the structural tables and the basepoint."""
    import hashlib  # maps libcrypto; only the boundary cache needs it

    blob = json.dumps(space_to_json(space), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
