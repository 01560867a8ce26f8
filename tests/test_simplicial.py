"""Simplicial-set representation, builders, products, quotients, io."""

import json
from math import comb

import pytest

from conftest import simplex_model
from finsub.simplicial import (
    BasedSimplicialSet,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    SpaceFormatError,
    identity_map,
    load_space,
    nondegenerate,
    point_model,
    product,
    quotient,
    restrict,
    save_space,
    space_hash,
    sphere_model,
    torus_model,
    underlying,
    validate,
)


def brute_monotone_surjection_count(k, d):
    """Independent oracle: enumerate all monotone maps {0..k} -> {0..d}
    and count the surjective ones."""
    def rec(prefix):
        if len(prefix) == k + 1:
            return 1 if set(prefix) == set(range(d + 1)) else 0
        lo = prefix[-1] if prefix else 0
        return sum(rec(prefix + [v]) for v in range(lo, d + 1))
    return rec([])


def test_sphere_level_sizes_circle():
    s1 = sphere_model(1, 3)
    assert s1.levels == [1, 2, 3, 4]
    for k in range(4):
        assert s1.level_size(k) == brute_monotone_surjection_count(k, 1) + 1


def test_sphere_level_sizes_s2():
    s2 = sphere_model(2, 4)
    assert s2.levels == [1, 1, 2, 4, 7]
    for k in range(5):
        assert s2.level_size(k) == comb(k, 2) + 1
        assert s2.level_size(k) == brute_monotone_surjection_count(k, 2) + 1


def test_sphere_nondegenerate_counts():
    s1 = sphere_model(1, 3)
    assert [len(s1.nondegenerate(k)) for k in range(4)] == [1, 1, 0, 0]
    s2 = sphere_model(2, 5)
    assert underlying(s2).nondegenerate_counts() == [1, 0, 1, 0, 0, 0]
    assert len(nondegenerate(s2, 2)) == 1
    assert nondegenerate(s2, 3) == []


def test_sphere_truncation_below_dimension():
    s3 = sphere_model(3, 2)
    assert s3.levels == [1, 1, 1]
    assert validate(s3).ok


@pytest.mark.parametrize("d,trunc", [(1, 5), (2, 5), (3, 6)])
def test_sphere_validates(d, trunc):
    assert validate(sphere_model(d, trunc)).ok


def test_torus_levels_and_chi():
    t2 = torus_model(2)
    assert t2.levels == [1, 4, 9]
    t0 = torus_model(0)
    assert t0.levels == [1]
    # non-degenerate counts are forced by chi(T^2) = chi(S^1)^2 = 0
    t5 = torus_model(5)
    assert underlying(t5).euler_characteristic() == 0
    assert validate(t5).ok


def test_torus_nondegenerate_level1():
    # the three non-degenerate edges of S^1 x S^1: (e,*), (*,e) and the
    # diagonal (e,e); the only degenerate level-1 pair is (*,*)
    t2 = torus_model(3)
    assert len(underlying(t2).nondegenerate(1)) == 3
    assert len(underlying(t2).nondegenerate(2)) == 2


def test_product_counts_and_unit():
    c = sphere_model(1, 4)
    t = product(c, c)
    assert t.levels == [(k + 1) ** 2 for k in range(5)]
    assert validate(t).ok
    pt = point_model(4)
    xp = product(c, pt)
    assert xp.levels == underlying(c).levels
    # chi multiplies over products (alternating sum of non-degenerate counts)
    s2 = sphere_model(2, 5)
    prod2 = product(s2, c)
    assert prod2.euler_characteristic() == \
        underlying(s2).euler_characteristic() * underlying(c).euler_characteristic()


def test_product_nondegenerate_dominates_factors():
    s2 = sphere_model(2, 4)
    c = sphere_model(1, 4)
    p = product(s2, c)
    for k in range(5):
        assert len(p.nondegenerate(k)) >= max(
            len(underlying(s2).nondegenerate(k)), len(underlying(c).nondegenerate(k)))


def test_validate_detects_corruption():
    s2 = sphere_model(2, 4)
    faces = [None if m is None else [list(f) for f in m] for m in underlying(s2).faces]
    # corrupt one face entry at level 3
    faces[3][1][2] = (faces[3][1][2] + 1) % underlying(s2).levels[2]
    from finsub.simplicial import SimplicialSet
    broken = SimplicialSet(s2.trunc, underlying(s2).levels, faces,
                           underlying(s2).degeneracies)
    report = validate(broken)
    assert not report.ok
    kinds = {v[0] for v in report.violations}
    assert kinds & {"dd", "ds", "ss"}
    # every violation names (identity, level, index, i, j)
    assert all(len(v) == 5 for v in report.violations)


def test_quotient_by_basepoint_keeps_sizes():
    s2 = sphere_model(2, 4)
    pt = point_model(4)
    incl = SimplicialMap(pt, s2, [[s2.basepoint_at(k)] for k in range(5)])
    q, qmap = quotient(s2, incl)
    assert q.levels == underlying(s2).levels
    assert validate(q).ok
    assert qmap.is_valid()


def test_quotient_total_collapse():
    s2 = sphere_model(2, 3)
    q, _ = quotient(s2, identity_map(s2))
    assert q.levels == [1, 1, 1, 1]


def test_quotient_surjective_and_collapses():
    c = sphere_model(1, 3)
    pt = point_model(3)
    incl = SimplicialMap(pt, c, [[c.basepoint_at(k)] for k in range(4)])
    q, qmap = quotient(c, incl)
    for k in range(4):
        assert set(qmap.maps[k]) == set(range(q.level_size(k)))
        # composing the inclusion with the quotient hits only the basepoint
        assert qmap.maps[k][c.basepoint_at(k)] == q.basepoint_at(k)


def test_quotient_rejects_non_closed_image():
    c = sphere_model(1, 2)
    pt = point_model(2)
    # maps the point to the edge's degeneracies: not a simplicial map
    edge = underlying(c).nondegenerate(1)[0]
    bad = SimplicialMap(pt, c, [[c.basepoint_at(0)], [edge],
                                [underlying(c).degeneracy(1, 0, edge)]])
    with pytest.raises(ValueError, match="not closed"):
        quotient(c, bad)


def test_restrict_keeps_order_basepoint_and_truncates():
    t2 = torus_model(3)
    whole, incl = restrict(t2, [range(m) for m in t2.levels])
    assert whole == t2
    assert incl.maps == identity_map(t2).maps
    cut, incl = restrict(t2, [range(m) for m in t2.levels[:3]])
    assert cut == torus_model(2)
    assert incl.is_valid() and incl.trunc == 2
    # the basepoint's degeneracies alone: a point, at their positions
    s2 = sphere_model(2, 4)
    pt, incl = restrict(s2, [[s2.basepoint_at(k)] for k in range(5)])
    assert underlying(pt) == underlying(point_model(4))
    assert incl.maps == [[s2.basepoint_at(k)] for k in range(5)]
    # the edge from vertex 0 to vertex 1 of a 2-simplex, given unsorted
    x = simplex_model(2, 2)
    keep = _closure(x, {1: {1}})
    sub, incl = restrict(x, [ks[::-1] for ks in keep])
    assert incl.maps == keep and incl.is_valid()
    assert sub.levels == [2, 3, 4] and sub.basepoint == SimplexRef(0, 0)
    assert validate(sub).ok


def _closure(x, seeds):
    """Index lists of the smallest subcomplex of x holding ``seeds``
    (level -> simplices), closed under faces and degeneracies."""
    xs = underlying(x)
    chosen = [set(seeds.get(k, ())) for k in range(xs.trunc + 1)]
    changed = True
    while changed:
        changed = False
        for k in range(xs.trunc + 1):
            near = [(xs.faces[k], k - 1)] if k else []
            if k < xs.trunc:
                near.append((xs.degeneracies[k], k + 1))
            for maps, lev in near:
                for mp in maps:
                    new = {mp[s] for s in chosen[k]} - chosen[lev]
                    if new:
                        chosen[lev] |= new
                        changed = True
    return [sorted(c) for c in chosen]


def test_restrict_refuses_keeps_that_are_not_subspaces():
    # level 1 of the 2-simplex lists the vertex pairs (0,0), (0,1), (0,2),
    # (1,1), (1,2), (2,2)
    x = simplex_model(2, 2)
    closed = _closure(x, {1: {4}})  # the edge from 1 to 2
    assert closed[0] == [1, 2]
    with pytest.raises(ValueError, match="lacks the basepoint"):
        restrict(x, closed)
    # the edge from 0 to 2 without its vertex 2: a face is dropped
    keep = _closure(x, {1: {2}})
    keep[0].remove(2)
    with pytest.raises(ValueError, match="not closed: level-0 simplex 2"):
        restrict(x, keep)
    # the circle's edge without one of its degeneracies
    c = sphere_model(1, 2)
    keep = [range(m) for m in c.levels]
    keep[2] = [0, 1]
    with pytest.raises(ValueError, match="not closed: level-2 simplex 2"):
        restrict(c, keep)
    with pytest.raises(ValueError, match="levels"):
        restrict(c, [range(m) for m in c.levels] + [[0]])
    for bad in (-1, c.level_size(1)):
        with pytest.raises(ValueError, match="level 1 is out of range"):
            restrict(c, [[0], [0, 1, bad], range(c.level_size(2))])


def _two_vertex_space(face, degeneracy):
    """Two vertices and two edges, level 1 the top, with d_0 = ``face``
    and s_0 = ``degeneracy``."""
    return SimplicialSet(1, [2, 2], [None, [face, [0, 1]]],
                         [[degeneracy], None])


def test_out_of_range_entries_are_named_in_order():
    # the first entry outside the level is named, whichever of a small
    # and a large value comes first
    assert _two_vertex_space([0, 1], [0, 1]).levels == [2, 2]
    for face, (x, t) in (([0, -1], (1, -1)), ([2, -1], (0, 2))):
        with pytest.raises(ValueError) as err:
            _two_vertex_space(face, [0, 1])
        assert str(err.value) == f"face d_0({x}) at level 1 out of range: {t}"
    with pytest.raises(ValueError) as err:
        _two_vertex_space([0, 1], [1, 5])
    assert str(err.value) == "degeneracy s_0(1) at level 0 out of range: 5"
    x = _two_vertex_space([0, 1], [0, 1])
    assert SimplicialMap(x, x, [[1, 0], [1, 0]]).maps == [[1, 0], [1, 0]]
    for images, (k, i, t) in (([[0, 1], [0, 2]], (1, 1, 2)),
                              ([[-3, 9], [0, 1]], (0, 0, -3))):
        with pytest.raises(ValueError) as err:
            SimplicialMap(x, x, images)
        assert str(err.value) == f"level-{k} image of {i} out of range: {t}"


def test_map_composition_and_identity():
    s2 = sphere_model(2, 4)
    ident = identity_map(s2)
    assert ident.compose(ident).maps == ident.maps
    assert ident.is_valid()


def test_space_io_roundtrip(tmp_path):
    s1 = sphere_model(1, 2)
    path = tmp_path / "circle.json"
    save_space(s1, str(path))
    loaded = load_space(str(path))
    assert isinstance(loaded, BasedSimplicialSet)
    assert loaded.levels == [1, 2, 3]
    assert loaded == s1
    assert space_hash(loaded) == space_hash(s1)


def test_space_io_rejects_identity_violation(tmp_path):
    s1 = sphere_model(1, 2)
    data = json.loads(open_save(s1))
    data["faces"][1][0][1] = (data["faces"][1][0][1] + 1) % data["levels"][1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SpaceFormatError, match="identities"):
        load_space(str(path))


def open_save(space):
    from finsub.simplicial import space_to_json
    return json.dumps(space_to_json(space))


def test_space_io_rejects_empty_levels(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(
        {"trunc": 0, "levels": [], "faces": [], "degeneracies": []}))
    with pytest.raises(SpaceFormatError, match="levels"):
        load_space(str(path))


def test_space_io_rejects_bad_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(SpaceFormatError, match="line"):
        load_space(str(path))


def test_space_hash_is_pinned():
    # boundary-cache keys embed this digest; a change orphans every entry
    assert space_hash(sphere_model(2, 5)) == (
        "868be89cb2378feedefa4e236bced6d3b3341316867f36b598fae32046e4b5cf")


def test_simplexref_fields():
    ref = SimplexRef(2, 5)
    assert (ref.level, ref.index) == (2, 5)


def test_simplexref_is_a_value():
    ref = SimplexRef(2, 5)
    assert ref == SimplexRef(2, 5) and hash(ref) == hash(SimplexRef(2, 5))
    assert ref != SimplexRef(5, 2) and ref != SimplexRef(2, 4)
    assert ref != (2, 5)
    assert {ref: 1, SimplexRef(2, 5): 2} == {SimplexRef(2, 5): 2}
