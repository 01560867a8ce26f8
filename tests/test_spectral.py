"""Spectral sequence of the points-count filtration, over Q."""

import pytest

from finsub.homology import space_homology
from finsub.simplicial import sphere_model, underlying
from finsub.spectral import (
    advance,
    e1_page,
    einfty_totals,
    filtered_complex,
    limit_page,
)
from finsub.subsetspace import conf_plus, tower


@pytest.fixture(scope="module")
def s2_n3():
    tw = tower(sphere_model(2, 7), 3, "bar")
    return tw, filtered_complex(sphere_model(2, 7), 3, "bar")


def test_filtration_monotone_exhaustively(s2_n3):
    _, f = s2_n3
    assert f.monotonicity_violations() == []


def test_graded_piece_counts(s2_n3):
    tw, f = s2_n3
    # level-p basis count at degree m = nondegenerate count of stage p
    # minus stage p-1 (nested tables)
    for m in range(len(f.dims)):
        for p in range(1, tw.n + 1):
            graded = sum(1 for lv in f.filt[m] if lv == p)
            big = len(underlying(tw.stage(p)).nondegenerate(m))
            if p > 1:
                small = len(underlying(tw.stage(p - 1)).nondegenerate(m))
            else:
                small = 1 if m == 0 else 0  # stage 0 is the basepoint alone
            assert graded == big - small


def test_e1_dims_match_conf_homology(s2_n3):
    tw, f = s2_n3
    p1 = e1_page(f)
    assert p1.entries() == [(1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 2, 1), (3, 3, 1)]
    base = sphere_model(2, 7)
    for p in range(1, 4):
        cp = conf_plus(base, p, "bar")
        betti = [g.rank for g in space_homology(cp, reduced=True, coeffs="Q")]
        for m, r in enumerate(betti):
            assert p1.dim(p, m - p) == r


def test_d1_rank(s2_n3):
    _, f = s2_n3
    p1 = e1_page(f)
    assert p1.dranks.get((2, 1)) == 1
    assert p1.dranks.get((3, 2)) == 1


def test_collapse_at_e2(s2_n3):
    _, f = s2_n3
    p2 = advance(e1_page(f), f)
    assert p2.entries() == [(3, 3, 1)]
    assert p2.is_stable()
    pinf = limit_page(f)
    assert pinf.entries() == [(3, 3, 1)]


def test_totals_equal_top_stage_betti(s2_n3):
    tw, f = s2_n3
    totals = einfty_totals(f)
    betti = [g.rank for g in space_homology(tw.stage(3), reduced=True, coeffs="Q")]
    assert totals[:len(betti)] == betti
    assert f.betti() == totals


def test_euler_characteristic_page_invariant(s2_n3):
    _, f = s2_n3
    p = e1_page(f)
    chi = p.euler_characteristic()
    while p.r <= f.n:
        p = advance(p, f)
        assert p.euler_characteristic() == chi
    assert chi == f.euler_characteristic()


def test_odd_sphere_even_points_vanishes():
    f = filtered_complex(sphere_model(3, 7), 2, "bar")
    assert e1_page(f).entries() == [(1, 2, 1), (2, 2, 1)]
    assert limit_page(f).entries() == []
    assert all(t == 0 for t in einfty_totals(f))


def test_circle_three_points():
    f = filtered_complex(sphere_model(1, 4), 3, "bar")
    totals = einfty_totals(f)
    assert totals[3] == 1
    assert sum(totals) == 1


def test_stable_pages_beyond_span():
    f = filtered_complex(sphere_model(1, 4), 2, "bar")
    p = limit_page(f)
    nxt = advance(p, f)
    assert nxt.dims == p.dims


def test_based_variant_tower():
    # basepoint-containing chain over S^2, three stages: the top stage is
    # rationally a 4-sphere, and the limit page must say so
    tw = tower(sphere_model(2, 7), 3, "based")
    f = filtered_complex(sphere_model(2, 7), 3, "based")
    assert f.monotonicity_violations() == []
    totals = einfty_totals(f)
    betti = [g.rank for g in space_homology(tw.stage(3), reduced=True, coeffs="Q")]
    assert totals[:len(betti)] == betti
    assert betti == [0, 0, 0, 0, 1, 0, 0]


def test_based_variant_odd_sphere_even_points():
    # two basepointed points on S^3: rationally a 3-sphere
    f = filtered_complex(sphere_model(3, 7), 2, "based")
    totals = einfty_totals(f)
    assert totals[3] == 1 and sum(totals) == 1


def test_exp_variant_tower_unreduced():
    f = filtered_complex(sphere_model(2, 5), 2, "exp")
    totals = einfty_totals(f)
    # unreduced homology of the symmetric square of S^2
    assert totals == [1, 0, 1, 0, 1, 0]
