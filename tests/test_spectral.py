"""Spectral sequence of the points-count filtration, over Q."""

import random

import pytest

import snf_reference
from conftest import (
    conf_reference,
    make_random_subcomplex,
    simplex_model,
    time_limit,
)
from finsub import snf
from finsub.homology import space_homology
from finsub.simplicial import (
    BasedSimplicialSet,
    SimplexRef,
    sphere_model,
    torus_model,
    underlying,
)
from finsub.snf import SparseIntMatrix
from finsub.spectral import (
    FilteredComplex,
    advance,
    e1_page,
    einfty_totals,
    filtered_complex,
    limit_page,
    pages,
)
from finsub.subsetspace import tower
from spectral_reference import rho as reference_rho


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
        cp = conf_reference(base, p, "bar")
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


def test_pages_run_from_e1_to_the_limit(s2_n3):
    _, f = s2_n3
    seq = pages(f)
    assert [p.r for p in seq] == list(range(1, f.n + 2))
    assert seq[0] == e1_page(f)
    for page, nxt in zip(seq, seq[1:]):
        assert nxt == advance(page, f)
    assert seq[-1] == limit_page(f)
    assert seq[-1].is_stable()


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


# -- pairing ranks against per-block elimination -----------------------------

def _random_based_space(seed):
    rng = random.Random(seed)
    sub, _ = make_random_subcomplex(simplex_model(3, 3), rng)
    return BasedSimplicialSet(sub, SimplexRef(0, rng.randrange(sub.levels[0])))


PAIRING_BASES = {
    **{f"S^1 n={n}": (sphere_model(1, n + 1), n) for n in (1, 2, 3, 4)},
    **{f"S^2 n={n}": (sphere_model(2, 2 * n + 1), n) for n in (1, 2, 3, 4)},
    **{f"S^3 n={n}": (sphere_model(3, 3 * n + 1), n) for n in (1, 2, 3)},
    "T^2 n=2": (torus_model(5), 2),
    "random0 n=2": (_random_based_space(11), 2),
    "random0 n=3": (_random_based_space(11), 3),
    "random1 n=2": (_random_based_space(12), 2),
    "random1 n=3": (_random_based_space(12), 3),
}


def rho_keys(f):
    # every key, including those rho clamps or answers 0 for
    return [(m, c, s) for m in range(f.top_degree + 2)
            for c in range(-1, f.n + 1) for s in range(-2, f.n + 1)]


def assert_rho_matches_reference(f):
    for key in rho_keys(f):
        assert f.rho(*key) == reference_rho(f, *key), key


def filtered_conjugate(f, seed, steps):
    """``f`` under a seeded random unimodular change of basis in every
    degree that keeps each level's span F_p: each step adds q times
    basis vector i to basis vector j with level(i) <= level(j), which
    adds q times column i to column j of the boundary leaving that
    degree and subtracts q times row j from row i of the one arriving
    there.  The result has entries other than +-1 and the same rank
    function."""
    rng = random.Random(seed)
    mats = [m.to_dense() for m in f.boundary]
    for k, dim in enumerate(f.dims):
        if dim < 2:
            continue
        levels = f.filt[k]
        out = mats[k]
        inc = mats[k + 1] if k < f.top_degree else [[] for _ in range(dim)]
        for _ in range(steps * dim):
            i, j = rng.sample(range(dim), 2)
            if levels[i] > levels[j]:
                i, j = j, i
            q = rng.choice([-2, -1, 1, 2, 3])
            for row in out:
                row[j] += q * row[i]
            inc[i] = [a - q * b for a, b in zip(inc[i], inc[j])]
    boundary = [SparseIntMatrix.from_triplets(
        m.rows, m.cols, [(r, col, v) for r, row in enumerate(dense)
                         for col, v in enumerate(row) if v])
        for m, dense in zip(f.boundary, mats)]
    out = FilteredComplex(f.dims, boundary, f.filt, f.n)
    assert out.monotonicity_violations() == []
    for k in range(1, f.top_degree):
        assert boundary[k].mul(boundary[k + 1]).is_zero()
    return out


@pytest.mark.parametrize("variant", ["exp", "based", "bar"])
@pytest.mark.parametrize("name", sorted(PAIRING_BASES))
def test_rho_matches_reference(name, variant):
    x, n = PAIRING_BASES[name]
    assert_rho_matches_reference(filtered_complex(x, n, variant))


@pytest.mark.parametrize("name,variant", [
    (name, variant) for name in ("S^2 n=3", "S^3 n=2", "T^2 n=2", "random0 n=2")
    for variant in ("exp", "bar")] + [
    ("S^2 n=4", "based"), ("S^3 n=3", "based"), ("random0 n=3", "based"),
    ("random1 n=2", "bar")])
def test_rho_matches_reference_on_filtered_conjugates(name, variant):
    x, n = PAIRING_BASES[name]
    f = filtered_complex(x, n, variant)
    for seed in range(2):
        conj = filtered_conjugate(f, seed, 2)
        assert max(abs(v) for m in conj.boundary for _, _, v in m.entries()) > 1
        assert_rho_matches_reference(conj)
        assert [conj.rho(*key) for key in rho_keys(f)] == [
            f.rho(*key) for key in rho_keys(f)]


def test_untracked_smith_forms_of_conjugated_blocks_stay_fast():
    # dense blocks with entries up to 12 bits: the degree-3 boundaries
    # (71x48) of both random0 n=2 exp conjugates above, whose unit
    # echelon leaves a dense residue with 24-bit entries, and the
    # degree-2 boundary (30x39) of a random1 n=2 bar conjugate, on which
    # ``_Elimination`` alone takes seconds through entry growth
    exp = filtered_complex(*PAIRING_BASES["random0 n=2"], "exp")
    bar = filtered_complex(*PAIRING_BASES["random1 n=2"], "bar")
    blocks = [filtered_conjugate(exp, seed, 2).boundary[3] for seed in range(2)]
    blocks.append(filtered_conjugate(bar, 0, 2).boundary[2])
    assert [(m.rows, m.cols) for m in blocks] == [(71, 48), (71, 48), (30, 39)]
    want = [snf_reference.invariant_factors(m) for m in blocks]
    with time_limit(1.5):
        got = [(snf.invariant_factors(m), snf.rank(m)) for m in blocks]
    assert got == [(f, len(f)) for f in want]


def test_pages_make_no_elimination_call(monkeypatch):
    def refuse(*args):
        raise AssertionError("pages must come from the pairs, not from eliminations")

    monkeypatch.setattr(snf._Elimination, "run", refuse)
    monkeypatch.setattr(snf, "_unit_echelon", refuse)
    f = filtered_complex(sphere_model(2, 9), 4, "bar")
    pages = [e1_page(f)]
    while pages[-1].r <= f.n:
        pages.append(advance(pages[-1], f))
    assert einfty_totals(f) == [0] * 8 + [1, 0]
    assert pages[-1].entries() == [(4, 4, 1)]
