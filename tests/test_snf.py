"""Smith normal form and sparse integer linear algebra, checked against
independent dense oracles (gcd-of-minors and Bareiss determinants) and,
differentially, against the two engines the current one replaced
(``snf_reference``) and against ``_Elimination`` with no unit echelon in
front of it."""

import random
from itertools import combinations
from math import gcd

import pytest

import snf_reference as reference
from finsub.groupcoh import CoefficientAction, bar_cochain_complex
from finsub.simplicial import sphere_model, torus_model
from finsub.snf import (
    SparseIntMatrix,
    _Elimination,
    _untracked_rank,
    diagonalize,
    divisor_chain,
    invariant_factors,
    kernel_basis,
    rank,
    smith_normal_form,
    xgcd,
)
from finsub.subsetspace import keyed_complex


# -- independent oracles ----------------------------------------------------

def bareiss_det(m):
    """Fraction-free determinant of a dense square integer matrix."""
    a = [row[:] for row in m]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def minors_gcd_factors(dense):
    """Invariant factors via determinant divisors: d_k = D_k / D_{k-1}."""
    nr = len(dense)
    nc = len(dense[0]) if nr else 0
    divisors = [1]
    for k in range(1, min(nr, nc) + 1):
        g = 0
        for rows_sel in combinations(range(nr), k):
            for cols_sel in combinations(range(nc), k):
                sub = [[dense[r][c] for c in cols_sel] for r in rows_sel]
                g = gcd(g, bareiss_det(sub))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            break
        divisors.append(g)
    return [divisors[i] // divisors[i - 1] for i in range(1, len(divisors))]


def random_dense(rng, nr, nc, lo=-10, hi=10, density=0.7):
    return [[rng.randint(lo, hi) if rng.random() < density else 0
             for _ in range(nc)] for _ in range(nr)]


# -- basic helpers ----------------------------------------------------------

def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (0, 0), (-9, -6)]:
        g, x, y = xgcd(a, b)
        assert g == gcd(a, b)
        assert x * a + y * b == g


def test_matrix_roundtrip():
    m = SparseIntMatrix.from_dense([[1, 0, -2], [0, 3, 0]])
    assert m.get(0, 2) == -2
    assert m.nnz == 3
    assert m.to_dense() == [[1, 0, -2], [0, 3, 0]]
    assert m.transpose().to_dense() == [[1, 0], [0, 3], [-2, 0]]
    m2 = SparseIntMatrix.from_triplets(2, 3, m.triplets())
    assert m == m2


def test_matrix_add_cancels():
    m = SparseIntMatrix(2, 2)
    m.add(0, 0, 5)
    m.add(0, 0, -5)
    assert m.nnz == 0


def test_index_bounds():
    m = SparseIntMatrix(2, 2)
    with pytest.raises(IndexError):
        m.set(2, 0, 1)


# -- invariant factors -------------------------------------------------------

def test_snf_examples():
    assert invariant_factors(SparseIntMatrix.from_dense([[2, 0], [0, 3]])) == [1, 6]
    assert invariant_factors(SparseIntMatrix.zeros(3, 4)) == []
    assert invariant_factors(SparseIntMatrix.from_dense([[1, 0], [0, 0]])) == [1]


def test_snf_divisibility_chain():
    m = SparseIntMatrix.from_dense([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    factors = invariant_factors(m)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


def test_snf_vs_minors_oracle_random():
    rng = random.Random(20240811)
    for _ in range(120):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        dense = random_dense(rng, nr, nc)
        got = invariant_factors(SparseIntMatrix.from_dense(dense))
        want = minors_gcd_factors(dense)
        assert got == want, (dense, got, want)


def test_rank_matches_factor_count():
    rng = random.Random(7)
    for _ in range(60):
        dense = random_dense(rng, rng.randint(1, 6), rng.randint(1, 6))
        m = SparseIntMatrix.from_dense(dense)
        assert rank(m) == len(minors_gcd_factors(dense))


# -- transforms ---------------------------------------------------------------

def unimodular(m):
    d = bareiss_det(m.to_dense())
    return d in (1, -1)


def test_chain_transform_is_unimodular():
    rng = random.Random(99)
    for _ in range(80):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        dense = random_dense(rng, nr, nc, density=0.8)
        m = SparseIntMatrix.from_dense(dense)
        res = diagonalize(m)
        assert res.factors == minors_gcd_factors(dense)
        assert unimodular(res.V)
        check_tracked(m, res)


def test_kernel_basis_spans_and_saturates():
    rng = random.Random(41)
    for _ in range(40):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 6)
        dense = random_dense(rng, nr, nc)
        m = SparseIntMatrix.from_dense(dense)
        kb = kernel_basis(m)
        assert len(kb) == nc - rank(m)
        for col in kb:
            assert not m.mul_col(col)
        if kb:
            kmat = SparseIntMatrix(nc, len(kb))
            for j, col in enumerate(kb):
                for r, v in col.items():
                    kmat.set(r, j, v)
            # a basis of a saturated lattice has all invariant factors 1
            assert invariant_factors(kmat) == [1] * len(kb)


def test_larger_sparse_identity_like():
    n = 300
    m = SparseIntMatrix(n, n)
    for i in range(n):
        m.set(i, i, 1)
        if i + 1 < n:
            m.set(i, i + 1, -1)
    assert invariant_factors(m) == [1] * n


def test_no_unit_entries_matrix():
    # forces the gcd remainder path
    dense = [[4, 6], [10, 8]]
    assert invariant_factors(SparseIntMatrix.from_dense(dense)) == \
        minors_gcd_factors(dense)
    m = SparseIntMatrix.from_dense(dense)
    assert smith_normal_form(m).factors == minors_gcd_factors(dense)
    res = diagonalize(m)
    assert res.factors == minors_gcd_factors(dense)
    check_tracked(m, res)


def test_transforms_on_heavy_torsion():
    # conjugates of fixed torsion diagonals by random unimodular matrices
    # must come back with the same invariant factors and a column
    # transform aligned with them
    rng = random.Random(5150)
    for factors in ([2, 6, 12], [3, 3], [4, 8, 8], [2, 2, 2, 4]):
        n = len(factors)
        left = _random_unimodular(rng, n)
        right = _random_unimodular(rng, n)
        d = [[factors[i] if i == j else 0 for j in range(n)] for i in range(n)]
        m = _matmul(_matmul(left, d), right)
        sm = SparseIntMatrix.from_dense(m)
        res = diagonalize(sm)
        assert res.factors == factors
        check_tracked(sm, res)


def test_chaining_keeps_the_kernel_columns_and_their_inverse_rows():
    # kernel_lattice reads only the columns of V past the rank and the
    # rows of V^-1 past it; making the diagonal a divisor chain must
    # leave both as the elimination left them
    rng = random.Random(2718)
    fixed = 0
    for factors in ([2, 3], [4, 6, 10], [2, 2, 3, 9], [6, 10, 15]):
        for extra in (0, 1, 3):
            n = len(factors) + extra
            m = conjugated_torsion(rng, factors, n, n + 1)
            plain = _Elimination(m, True).run()
            unchained = plain.result()
            res = diagonalize(m)
            fixed += sorted(unchained.factors) != res.factors
            assert [unchained.V.column(j) for j in range(res.rank, m.cols)] \
                == [res.V.column(j) for j in range(res.rank, m.cols)]
            assert unchained.Vinv.row_dicts()[res.rank:] \
                == res.Vinv.row_dicts()[res.rank:]
    assert fixed  # some diagonals did need the gcd/lcm fix


def _random_unimodular(rng, n, steps=12):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        q = rng.randint(-3, 3)
        for k in range(n):
            m[i][k] += q * m[j][k]
    return m


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.lists(st.lists(st.integers(-20, 20), min_size=1, max_size=5),
                    min_size=1, max_size=5).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    @settings(max_examples=120, deadline=None)
    def test_snf_properties_hypothesis(dense):
        m = SparseIntMatrix.from_dense(dense)
        factors = invariant_factors(m)
        assert all(f > 0 for f in factors)
        for a, b in zip(factors, factors[1:]):
            assert b % a == 0
        assert factors == minors_gcd_factors(dense) == elimination_alone(m)
        assert len(factors) == rank(m)
        assert smith_normal_form(m).factors == factors
        res = diagonalize(m)
        assert res.factors == factors
        check_tracked(m, res)
except ImportError:  # pragma: no cover
    pass


# -- differential: the engines this one replaced -----------------------------------

def check_tracked(m, res):
    """Positive factors, each dividing the next; V inverted by Vinv; the
    columns of M @ V beyond the rank vanish."""
    assert all(f > 0 for f in res.factors)
    for a, b in zip(res.factors, res.factors[1:]):
        assert b % a == 0
    assert res.V.mul(res.Vinv) == SparseIntMatrix.identity(m.cols)
    mv = m.mul(res.V)
    assert all(not mv.column(j) for j in range(res.rank, m.cols))


def random_sparse(rng, nr, nc, density, values):
    return SparseIntMatrix.from_triplets(
        nr, nc, [(r, c, rng.choice(values)) for r in range(nr) for c in range(nc)
                 if rng.random() < density])


def conjugated_torsion(rng, factors, nr, nc):
    """diag(factors) padded to nr x nc, hidden by random unimodular
    transforms on both sides."""
    d = [[factors[i] if i == j and i < len(factors) else 0 for j in range(nc)]
         for i in range(nr)]
    m = _matmul(_matmul(_random_unimodular(rng, nr, 3 * nr), d),
                _random_unimodular(rng, nc, 3 * nc))
    return SparseIntMatrix.from_dense(m)


def elimination_alone(m):
    """Invariant factors from ``_Elimination`` on all of ``m``: the path
    ``invariant_factors`` took before the unit echelon."""
    return divisor_chain(p[2] for p in _Elimination(m, False).run().pivots)


def assert_matches_reference(m, tracked=True):
    """Factors and rank equal the reference's and those of
    ``_Elimination`` alone; unless ``tracked`` is off (for large
    matrices), so do the reference's rank and chained tracked factors,
    and the tracked diagonalization passes ``check_tracked``."""
    want = reference.invariant_factors(m)
    assert invariant_factors(m) == want == elimination_alone(m)
    assert rank(m) == len(want)
    for bound in (len(want), m.cols):  # stopped as soon as it is reached
        assert _untracked_rank(m, (), bound)[1] == len(want)
    if not tracked:
        return
    assert reference.rank(m) == len(want)
    assert smith_normal_form(m).factors == want
    res = diagonalize(m)
    old = reference.diagonalize(m, False, True, chain=True)
    assert res.factors == old.factors == want
    check_tracked(m, res)


def random_reference_cases():
    rng = random.Random(6271)
    for _ in range(40):  # sparse, with units
        yield random_sparse(rng, rng.randint(1, 30), rng.randint(1, 30), 0.15,
                            [-2, -1, -1, 1, 1, 3])
    for _ in range(25):  # no unit entry at all
        yield random_sparse(rng, rng.randint(1, 12), rng.randint(1, 12), 0.4,
                            [-6, -4, -2, 2, 3, 4, 9])
    for factors in ([2, 4, 8, 8], [3, 6, 6, 12, 0], [2, 2, 2, 2, 2, 6],
                    [5, 10], [4, 4, 12, 24, 24]):  # heavy torsion
        n = len(factors)
        yield conjugated_torsion(rng, factors, n + rng.randint(0, 2),
                                 n + rng.randint(0, 2))


def test_divisor_chain_matches_reference():
    rng = random.Random(808)
    for _ in range(200):
        values = [rng.choice([0, 1, 1, 1, -1, 2, -2, 3, 4, 6, 9, 10, 12, 25])
                  for _ in range(rng.randint(0, 12))]
        assert divisor_chain(values) == reference.divisor_chain(values)


def test_engine_matches_reference_on_random_matrices():
    for m in random_reference_cases():
        assert_matches_reference(m)


@pytest.mark.parametrize("n,action,top", [(4, "trivial", 3), (4, "sign", 3),
                                          (5, "trivial", 2), (5, "sign", 2)])
def test_engine_matches_reference_on_groupcoh_coboundaries(n, action, top):
    # the complexes of ``finsub groupcoh -n 4 --max-degree 2`` and
    # ``-n 5 --max-degree 1``; only the small ones get tracked checks
    c = bar_cochain_complex(n, CoefficientAction(action), top - 1)
    for m in c.boundary:
        assert_matches_reference(m, tracked=m.rows * m.cols <= 20_000)


@pytest.mark.parametrize("x,n", [
    (sphere_model(2, 5), 2), (sphere_model(2, 7), 3), (sphere_model(2, 9), 4),
    (sphere_model(3, 7), 2), (sphere_model(3, 10), 3), (torus_model(5), 2)])
def test_engine_matches_reference_on_keyed_boundaries(x, n):
    for variant in ("exp", "bar"):
        for m in keyed_complex(x, n, variant).boundary:
            assert_matches_reference(m, tracked=m.rows * m.cols <= 100_000)
