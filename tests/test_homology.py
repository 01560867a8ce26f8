"""Chain complexes, homology groups, induced and connecting maps."""

import random

import pytest

from conftest import bar_reference, conf_reference, in_image_lattice
from finsub.homology import (
    HomologyGroup,
    LesReport,
    connecting_free_index,
    connecting_map,
    euler_characteristic,
    homology,
    homology_basis,
    induced_map,
    les_check,
    normalized_complex,
    relative_complex,
    space_homology,
)
from finsub.simplicial import (
    SimplicialMap,
    SimplicialSet,
    identity_map,
    point_model,
    sphere_model,
    torus_model,
    underlying,
)
from finsub.subsetspace import exp, exp_based, tower


# -- helpers -----------------------------------------------------------------

def interval_model(trunc):
    """The 1-simplex as a simplicial set: level k is the monotone maps
    {0..k} -> {0,1}; contractible, with two vertex 0-cells and an edge."""
    tables = []
    for k in range(trunc + 1):
        tab = []
        for ones in range(k + 2):
            tab.append(tuple(0 if i < k + 1 - ones else 1 for i in range(k + 1)))
        tab.sort()
        tables.append(tab)
    index = [{t: i for i, t in enumerate(tab)} for tab in tables]
    levels = [len(t) for t in tables]
    faces = [None] * (trunc + 1)
    degeneracies = [None] * (trunc + 1)
    for k in range(1, trunc + 1):
        faces[k] = [[index[k - 1][t[:i] + t[i + 1:]] for t in tables[k]]
                    for i in range(k + 1)]
    for k in range(trunc):
        degeneracies[k] = [[index[k + 1][t[:j + 1] + t[j:]] for t in tables[k]]
                           for j in range(k + 1)]
    return SimplicialSet(trunc, levels, faces, degeneracies)


def endpoints_inclusion(interval):
    """The two boundary vertices of the interval, as a subcomplex map."""
    trunc = interval.trunc
    levels = [2] * (trunc + 1)
    faces = [None] + [[list(range(2)) for _ in range(k + 1)]
                      for k in range(1, trunc + 1)]
    degeneracies = [[list(range(2)) for _ in range(k + 1)]
                    for k in range(trunc)] + [None]
    two_points = SimplicialSet(trunc, levels, faces, degeneracies)
    # point 0 -> constant-0 tuple, point 1 -> constant-1 tuple
    maps = []
    for k in range(trunc + 1):
        const0 = tuple(0 for _ in range(k + 1))
        const1 = tuple(1 for _ in range(k + 1))
        tab = sorted([tuple(0 if i < k + 1 - ones else 1 for i in range(k + 1))
                      for ones in range(k + 2)])
        idx = {t: i for i, t in enumerate(tab)}
        maps.append([idx[const0], idx[const1]])
    return SimplicialMap(two_points, interval, maps)


def random_subcomplex(space, rng, p=0.3):
    """Random subcomplex: seed simplices, then close under faces and
    degeneracies; returned as (subspace, inclusion)."""
    xs = underlying(space)
    chosen = [set() for _ in range(xs.trunc + 1)]
    chosen[0].add(0)
    for k in range(xs.trunc + 1):
        for s in range(xs.levels[k]):
            if rng.random() < p:
                chosen[k].add(s)
    changed = True
    while changed:
        changed = False
        for k in range(1, xs.trunc + 1):
            for s in list(chosen[k]):
                for i in range(k + 1):
                    t = xs.face(k, i, s)
                    if t not in chosen[k - 1]:
                        chosen[k - 1].add(t)
                        changed = True
        for k in range(xs.trunc):
            for s in list(chosen[k]):
                for j in range(k + 1):
                    t = xs.degeneracy(k, j, s)
                    if t not in chosen[k + 1]:
                        chosen[k + 1].add(t)
                        changed = True
    tables = [sorted(chosen[k]) for k in range(xs.trunc + 1)]
    index = [{s: i for i, s in enumerate(tab)} for tab in tables]
    levels = [len(t) for t in tables]
    faces = [None] * (xs.trunc + 1)
    degeneracies = [None] * (xs.trunc + 1)
    for k in range(1, xs.trunc + 1):
        faces[k] = [[index[k - 1][xs.face(k, i, s)] for s in tables[k]]
                    for i in range(k + 1)]
    for k in range(xs.trunc):
        degeneracies[k] = [[index[k + 1][xs.degeneracy(k, j, s)] for s in tables[k]]
                           for j in range(k + 1)]
    sub = SimplicialSet(xs.trunc, levels, faces, degeneracies)
    return sub, SimplicialMap(sub, space, tables)


# -- groups and complexes -----------------------------------------------------

def test_homology_group_validation():
    with pytest.raises(ValueError):
        HomologyGroup(-1)
    with pytest.raises(ValueError):
        HomologyGroup(0, (1,))
    with pytest.raises(ValueError):
        HomologyGroup(0, (4, 2))
    assert str(HomologyGroup(2, (2, 4))) == "Z^2 + Z/2 + Z/4"
    assert str(HomologyGroup(0)) == "0"
    assert HomologyGroup(1, (3,)).torsion_order() == 3


def test_homology_group_is_a_value():
    a, b = HomologyGroup(1, (2, 4)), HomologyGroup(1, (2, 4))
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != HomologyGroup(1, (4,)) and a != HomologyGroup(2, (2, 4))
    assert HomologyGroup(0) == HomologyGroup(0, ())
    assert a != (1, (2, 4))
    table = {a: "first"}
    table[b] = "second"
    assert table == {HomologyGroup(1, (2, 4)): "second"}
    assert len({HomologyGroup(0), HomologyGroup(0), HomologyGroup(1)}) == 2


def test_les_reports_do_not_share_nodes():
    first, second = LesReport(), LesReport()
    first.nodes.append("node")
    assert second.nodes == [] and LesReport().nodes == []


def test_minimal_sphere_complex():
    c = normalized_complex(sphere_model(2, 5))
    assert c.dims == [1, 0, 1, 0, 0, 0]
    assert all(m.nnz == 0 for m in c.boundary)


def test_quotient_by_vertex_keeps_homotopy_type():
    from finsub.simplicial import quotient
    c = sphere_model(1, 3)
    pt = point_model(3)
    incl = SimplicialMap(pt, c, [[c.basepoint_at(k)] for k in range(4)])
    q, _ = quotient(c, incl)
    assert [str(g) for g in space_homology(q, reduced=True)] == ["0", "Z", "0"]


def test_double_boundary_vanishes_exhaustively():
    c = normalized_complex(exp(sphere_model(1, 4), 3))
    assert c.validate() == []


def test_torus_complex_and_chi():
    c = normalized_complex(torus_model(4))
    assert c.dims[:3] == [1, 3, 2]
    assert euler_characteristic(c) == 0
    assert [g.rank for g in homology(c, "Q")[:3]] == [1, 2, 1]


def test_known_homologies():
    assert [str(g) for g in space_homology(exp(sphere_model(1, 4), 3))] == \
        ["Z", "0", "0", "Z"]
    assert [str(g) for g in space_homology(exp(sphere_model(1, 4), 2))] == \
        ["Z", "Z", "0", "0"]
    h = space_homology(exp(sphere_model(2, 7), 3))
    assert str(h[4]) == "Z + Z/2"


def test_rational_ranks_match_integral():
    c = normalized_complex(exp(sphere_model(2, 5), 2))
    hz = homology(c, "Z")
    hq = homology(c, "Q")
    assert [g.rank for g in hz] == [g.rank for g in hq]
    assert all(g.torsion == () for g in hq)


def test_chi_consistency():
    for space in (sphere_model(2, 5), torus_model(4),
                  exp(sphere_model(1, 4), 2)):
        c = normalized_complex(space)
        groups = homology(c)
        assert euler_characteristic(c) == \
            sum((-1) ** k * g.rank for k, g in enumerate(groups))


# -- relative complexes --------------------------------------------------------

def test_relative_self_is_zero():
    s2 = sphere_model(2, 4)
    c = relative_complex(s2, identity_map(s2))
    assert c.dims == [0] * 5


def test_relative_matches_quotient_homology():
    s2 = sphere_model(2, 5)
    based, incl = exp_based(s2, 2)
    rel = relative_complex(incl.target, incl)
    bar = tower(s2, 2, "bar").stage(2)
    assert homology(rel)[:-1] == space_homology(bar, reduced=True)


def test_relative_triple_matches_conf():
    s2 = sphere_model(2, 5)
    tw = tower(s2, 3, "based")
    rel = relative_complex(tw.stage(3), tw.inclusions[1])
    cp = conf_reference(s2, 2, "based")
    assert homology(rel)[:-1] == space_homology(cp, reduced=True)


def test_relative_rejects_non_injective():
    c = sphere_model(1, 3)
    pt = point_model(3)
    collapse = SimplicialMap(c, pt, [[0] * c.level_size(k) for k in range(4)])
    with pytest.raises(ValueError):
        relative_complex(pt, collapse)


# -- generator bases ------------------------------------------------------------

def test_homology_basis_agrees_with_groups():
    for space, reduced in ((exp(sphere_model(1, 4), 2), False),
                           (torus_model(4), False),
                           (conf_reference(sphere_model(2, 5), 2, "bar"), True)):
        c = normalized_complex(space, reduced=reduced)
        groups = homology(c)
        for k in range(len(c.dims) - 1):
            hb = homology_basis(c, k)
            assert hb.group == groups[k], (k, str(hb.group), str(groups[k]))
            for g in hb.free_gens + hb.torsion_gens:
                assert not c.out_matrix(k).mul_col(g)
            for i, g in enumerate(hb.free_gens):
                free, tors = hb.coords(g)
                assert free == [0] * i + [1] + [0] * (len(hb.free_gens) - i - 1)
                assert all(t == 0 for t in tors)


def test_homology_basis_rejects_non_cycle():
    # a single triangle of the torus has nonzero boundary
    c = normalized_complex(torus_model(4))
    hb = homology_basis(c, 2)
    with pytest.raises(ValueError, match="cycle"):
        hb.coords({0: 1})


def test_torsion_generator_orders_at_lattice_level():
    # H_6 of the 4-point space over S^2 is Z + Z/3: the torsion generator's
    # third multiple must be a boundary while the first and second are not,
    # and no multiple of the free generator may ever be one
    c = normalized_complex(exp(sphere_model(2, 9), 4))
    hb = homology_basis(c, 6)
    assert str(hb.group) == "Z + Z/3"
    b7 = c.in_matrix(6)
    t = hb.torsion_gens[0]
    for mult in (1, 2):
        scaled = {k: mult * v for k, v in t.items()}
        assert not in_image_lattice(b7, scaled)
    assert in_image_lattice(b7, {k: 3 * v for k, v in t.items()})
    g = hb.free_gens[0]
    for mult in (1, 5):
        scaled = {k: mult * v for k, v in g.items()}
        assert not in_image_lattice(b7, scaled)


# -- induced maps ----------------------------------------------------------------

def test_induced_identity():
    t2 = torus_model(4)
    desc = induced_map(identity_map(t2), 1)
    assert desc.free_matrix == [[1, 0], [0, 1]] or \
        desc.free_matrix == [[0, 1], [1, 0]]
    assert desc.kernel_rank == 0 and desc.cokernel_rank == 0


def test_induced_bar_inclusion_order_two():
    tw = tower(sphere_model(2, 7), 3, "bar")
    f = tw.inclusions[1]
    src_c = normalized_complex(f.source, reduced=True, maxdeg=5)
    tgt_c = normalized_complex(f.target, reduced=True, maxdeg=5)
    desc = induced_map(f, 4, source_complex=src_c, target_complex=tgt_c)
    assert str(desc.source) == "Z"
    assert str(desc.target) == "Z/2"
    assert desc.image_orders() == [2]


def test_induced_quotient_map_top_rank():
    s2 = sphere_model(2, 5)
    bar, qmap = bar_reference(s2, 2)
    src_c = normalized_complex(qmap.source, reduced=False, maxdeg=5)
    tgt_c = normalized_complex(bar, reduced=True, maxdeg=5)
    desc = induced_map(qmap, 4, source_complex=src_c, target_complex=tgt_c)
    assert desc.source.rank == 1 and desc.target.rank == 1
    assert abs(desc.free_matrix[0][0]) == 1
    assert desc.kernel_rank == 0 and desc.cokernel_rank == 0


# -- connecting maps ---------------------------------------------------------------

def test_connecting_iso_for_contractible_total_space():
    interval = interval_model(3)
    incl = endpoints_inclusion(interval)
    desc = connecting_map(interval, incl, 1)
    # X/A is a circle; H~_1 -> H~_0(two points) = Z is an isomorphism
    assert desc.source.rank == 1 and desc.target.rank == 1
    assert abs(desc.free_matrix[0][0]) == 1


def test_connecting_degree_one_into_connected_subspace():
    c = sphere_model(1, 3)
    pt = point_model(3)
    incl = SimplicialMap(pt, c, [[c.basepoint_at(k)] for k in range(4)])
    desc = connecting_map(c, incl, 1)
    # collapsing a point of the circle: H~_1(S^1) -> H~_0(pt) = 0
    assert desc.target.rank == 0 and desc.target.torsion == ()
    assert desc.free_matrix == []


def test_connecting_triple_multiplication():
    tw = tower(sphere_model(2, 7), 3, "bar")
    desc = connecting_map(tw.stage(3), tw.inclusions[1], 5, rel=tw.inclusions[0])
    assert abs(desc.free_matrix[0][0]) == 2
    fast = connecting_free_index(tw.stage(3), tw.inclusions[1], 5,
                                 rel=tw.inclusions[0])
    assert fast == 2


def test_connecting_needs_truncation():
    tw = tower(sphere_model(2, 5), 2, "bar")
    with pytest.raises(ValueError, match="truncation"):
        connecting_map(tw.stage(2), tw.inclusions[0], 5)


# -- long exact sequence -------------------------------------------------------------

def test_les_named_pair():
    s2 = sphere_model(2, 7)
    based, incl = exp_based(s2, 3)
    rep = les_check(incl.target, incl)
    assert rep.ok, str(rep)


def test_les_empty_subspace():
    rep = les_check(sphere_model(2, 4), None)
    assert rep.ok


def test_les_random_pairs():
    rng = random.Random(42)
    space = exp(sphere_model(1, 4), 3)
    for _ in range(6):
        sub, incl = random_subcomplex(space, rng)
        rep = les_check(space, incl, with_torsion=False)
        assert rep.ok, str(rep)


def test_les_betti_from_integral_groups_match_rational():
    # with_torsion reads the Betti numbers off the integral groups; they
    # must equal the separately computed rational ones, node for node
    rng = random.Random(7)
    space = exp(sphere_model(1, 4), 3)
    pairs = [(space, random_subcomplex(space, rng)[1]) for _ in range(3)]
    based, incl = exp_based(sphere_model(2, 5), 2)
    pairs += [(incl.target, incl), (sphere_model(2, 4), None)]
    for x, a in pairs:
        full = les_check(x, a)
        rational = les_check(x, a, with_torsion=False)
        assert [(n.degree, n.kind, n.betti, n.rank_in, n.rank_out)
                for n in full.nodes] == \
            [(n.degree, n.kind, n.betti, n.rank_in, n.rank_out)
             for n in rational.nodes]
        assert all(n.group.rank == n.betti for n in full.nodes)
        assert all(n.group is None for n in rational.nodes)


# -- euler characteristic ---------------------------------------------------------

def test_euler_values():
    assert euler_characteristic(normalized_complex(sphere_model(2, 5))) == 2
    assert euler_characteristic(normalized_complex(exp(sphere_model(1, 4), 3))) == 0
    assert euler_characteristic(normalized_complex(torus_model(4))) == 0
