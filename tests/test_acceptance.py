"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line when its criterion holds (run with -s to
see them); all comparisons are exact, group by group.  Time budgets are
asserted where the criteria state them.
"""

import random
import time

from sympy import Matrix
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from conftest import conf_reference, make_random_subcomplex
from finsub.claims import run_claim
from finsub.groupcoh import group_cohomology
from finsub.homology import (
    connecting_free_index,
    connecting_map,
    euler_characteristic,
    homology,
    les_check,
    normalized_complex,
    space_homology,
)
from finsub.simplicial import sphere_model, torus_model, validate
from finsub.snf import SparseIntMatrix, invariant_factors
from finsub.spectral import einfty_totals, filtered_complex, limit_page
from finsub.subsetspace import DEFAULT_CELL_CEILING, exp, tower

OPTS = {"ceiling": DEFAULT_CELL_CEILING, "budget_nd": 8}


def _claim(name, n, d=None, space="sphere"):
    return run_claim(name, n, d, ceiling=DEFAULT_CELL_CEILING, space=space)


def _report(num, text):
    print(f"ACCEPTANCE {num} PASS: {text}")


def test_criterion_1_circle_suite():
    t0 = time.monotonic()
    for n, sphere_dim in ((2, 1), (3, 3), (4, 3), (5, 5)):
        reports = _claim("circle", n)
        assert all(r.verdict == "match" for r in reports), reports
    elapsed = time.monotonic() - t0
    assert elapsed < 30, f"circle suite took {elapsed:.1f}s"
    _report(1, f"subset spaces of the circle match S^1, S^3, S^3, S^5 "
               f"exactly ({elapsed:.1f}s)")


def test_criterion_2_s2_table():
    t0 = time.monotonic()
    for n, budget in ((2, 60), (3, 60), (4, 1800)):
        t1 = time.monotonic()
        reports = _claim("tuffley-s2", n)
        assert all(r.verdict == "match" for r in reports), reports
        assert time.monotonic() - t1 < budget
    _report(2, f"S^2 table exact for n=2,3,4: Z, 0, Z+Z/(n-1) plus vanishing "
               f"Betti elsewhere ({time.monotonic() - t0:.1f}s)")


def test_criterion_3_top_degrees_vs_group_cohomology():
    for n in (2, 3, 4):
        reports = _claim("thm2", n, 2)
        assert all(r.verdict == "match" for r in reports), reports
        # the right-hand sides really came from the bar resolution
        assert all("bar-resolution" in r.provenance for r in reports)
    _report(3, "H_{2n} and H_{2n-1} of the S^2 subset spaces equal "
               "H^0, H^1 of S_n from the bar resolution, n=2,3,4")


def test_criterion_4_model_agreement():
    t0 = time.monotonic()
    for n, d in ((1, 2), (2, 2), (3, 2), (1, 3), (2, 3)):
        reports = _claim("lemma-quo", n, d)
        assert all(r.verdict == "match" for r in reports), reports
    reports = _claim("lemma-quo", 2, space="torus")
    assert all(r.verdict == "match" for r in reports), reports
    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"model agreement took {elapsed:.1f}s"
    _report(4, f"based and bar models of the compactified configuration "
               f"spaces agree, spheres and torus ({elapsed:.1f}s)")


def test_criterion_5_duality_at_d3_n2():
    t0 = time.monotonic()
    cn = conf_reference(sphere_model(3, 7), 2, "bar")
    h = space_homology(cn, reduced=True)
    assert str(h[6]) == "0"
    assert str(h[5]) == "Z/2"
    assert str(h[4]) == "Z"
    assert str(group_cohomology(2, "sign", 1)) == "Z/2"
    assert str(group_cohomology(2, "sign", 2)) == "0"  # the extra Z is the
    # exceptional free summand at r = d-1, n = 2
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"duality cross-check took {elapsed:.1f}s"
    _report(5, f"compactified 2-point space of R^3: H~6=0, H~5=Z/2=H^1(S_2,sgn), "
               f"H~4=Z ({elapsed:.1f}s)")


def test_criterion_6_connecting_multiplication():
    t0 = time.monotonic()
    tw3 = tower(sphere_model(2, 6), 3, "bar")
    desc = connecting_map(tw3.stage(3), tw3.inclusions[1], 5,
                          rel=tw3.inclusions[0])
    assert abs(desc.free_matrix[0][0]) == 2
    t1 = time.monotonic()
    tw4 = tower(sphere_model(2, 8), 4, "bar")
    idx = connecting_free_index(tw4.stage(4), tw4.inclusions[2], 7,
                                rel=tw4.inclusions[1])
    assert idx == 3
    assert time.monotonic() - t1 < 1800
    _report(6, f"connecting map is x2 for n=3 and x3 for n=4 on free parts "
               f"({time.monotonic() - t0:.1f}s)")


def test_criterion_7_spectral_collapse():
    for n in (2, 3):
        f = filtered_complex(sphere_model(2, 2 * n + 1), n, "bar")
        pinf = limit_page(f)
        assert pinf.entries() == [(n, n, 1)], pinf.entries()
        totals = einfty_totals(f)
        assert totals[2 * n] == 1 and sum(totals) == 1
    f = filtered_complex(sphere_model(3, 7), 2, "bar")
    assert limit_page(f).entries() == []
    assert all(t == 0 for t in einfty_totals(f))
    _report(7, "limit page sits at total degree 2n for S^2 n=2,3 and "
               "vanishes for S^3 n=2")


def test_criterion_8_connectivity():
    cases = [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2), (4, 2), (2, 3)]
    for n, d in cases:
        reports = _claim("connectivity", n, d)
        assert all(r.verdict == "match" for r in reports), (n, d, reports)
    _report(8, f"reduced homology vanishes through degree n+d-3 for "
               f"{len(cases)} computed cases")


def test_criterion_9_property_suites():
    t0 = time.monotonic()
    # simplicial identities on all constructions
    constructions = [
        sphere_model(1, 4), sphere_model(2, 5), sphere_model(3, 4),
        torus_model(4),
        exp(sphere_model(1, 4), 3), exp(sphere_model(2, 5), 2),
        conf_reference(sphere_model(2, 5), 2, "based"),
        conf_reference(sphere_model(2, 5), 2, "bar"),
    ]
    for space in constructions:
        assert validate(space).ok
    # double boundary vanishes exhaustively
    for space in constructions:
        assert normalized_complex(space).validate() == []
    # Smith normal form vs a dense independent oracle
    rng = random.Random(20260810)
    for _ in range(500):
        nr = rng.randint(1, 8)
        nc = rng.randint(1, 8)
        dense = [[rng.randint(-10, 10) for _ in range(nc)] for _ in range(nr)]
        mine = invariant_factors(SparseIntMatrix.from_dense(dense))
        diag = sympy_snf(Matrix(dense)).diagonal()
        oracle = sorted(abs(v) for v in diag if v)
        assert mine == oracle, (dense, mine, oracle)
    # long-exact-sequence rank exactness on random pairs
    space = exp(sphere_model(1, 4), 3)
    rng = random.Random(7)
    for _ in range(50):
        _, incl = make_random_subcomplex(space, rng)
        assert les_check(space, incl, with_torsion=False).ok
    # Euler characteristic consistency everywhere
    for sp in constructions:
        c = normalized_complex(sp)
        groups = homology(c)
        assert euler_characteristic(c) == \
            sum((-1) ** k * g.rank for k, g in enumerate(groups))
    elapsed = time.monotonic() - t0
    assert elapsed < 120, f"property suites took {elapsed:.1f}s"
    _report(9, f"identities, dd=0, 500 SNF oracle cases, 50 LES pairs, "
               f"chi consistency ({elapsed:.1f}s)")


def test_criterion_10_adjudication():
    t0 = time.monotonic()
    reports = _claim("thm2", 2, 3)
    adj = [r for r in reports if r.verdict == "adjudicated"]
    assert len(adj) == 1
    rep = adj[0]
    assert rep.params == {"n": 2, "d": 3, "r": 2}
    # the run records a definitive group for H_4 of the 2-point space of S^3
    assert rep.computed == "0"
    assert rep.expected == {"correspondence": "Z", "rational rank": 0}
    # explicit recomputation of the full homology, as a record
    h = space_homology(exp(sphere_model(3, 7), 2))
    assert [str(g) for g in h] == ["Z", "0", "0", "Z", "0", "Z/2", "0"]
    elapsed = time.monotonic() - t0
    assert elapsed < 600, f"adjudication took {elapsed:.1f}s"
    _report(10, f"H_4 of the 2-point space of S^3 computed exactly: 0 "
                f"(rational shape prediction holds; the sign-coefficient "
                f"correspondence's extra Z does not appear) ({elapsed:.1f}s)")
