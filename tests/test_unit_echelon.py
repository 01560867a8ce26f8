"""Differential tests for the +-1 echelon of ``snf._unit_echelon``.

It keeps a row with no +-1 only if no waiting row equal to it up to
sign is held already.  It is compared with
``snf_reference._unit_echelon_keeping_repeats``, the echelon that kept
every waiting row: the pivot rows and the echelon must be identical,
the residue must hold the same rows up to sign, in the reference's
order with repeats left out, and its gcd echelon, and so its invariant
factors and rank, must be the same.

It builds only the rows its stream reads, in batches when a rank bound
may stop the stream early.  It is compared with
``snf_reference._unit_echelon``, which transposed the whole matrix
before streaming: pivot rows, echelon (dict order included) and residue
must be identical, with and without a bound.
"""

import random

import pytest

import snf_reference as reference
from conftest import conjugated
from finsub.groupcoh import CoefficientAction, bar_cochain_complex
from finsub.simplicial import sphere_model, torus_model
from finsub.snf import (SparseIntMatrix, _gcd_echelon, _sparsest_first,
                        _unit_echelon, rank)
from finsub.subsetspace import keyed_complex
from test_snf import random_reference_cases, random_sparse


def up_to_sign(x):
    s = 1 if x[min(x)] > 0 else -1
    return frozenset((c, s * v) for c, v in x.items())


def assert_matches_reference(m, skip_cols=()):
    """Compare with the reference on ``m``; return the pivot rows and
    how many residue rows the reference has beyond ours."""
    pivot_rows, echelon, residue = _unit_echelon(m, skip_cols)
    ref_rows, ref_echelon, ref_residue = \
        reference._unit_echelon_keeping_repeats(m, skip_cols)
    assert pivot_rows == ref_rows
    assert echelon == ref_echelon and list(echelon) == list(ref_echelon)
    # an order-preserving subsequence of the reference residue ...
    it = iter(ref_residue)
    assert all(any(x == y for y in it) for x in residue)
    # ... with the same rows up to sign
    assert {up_to_sign(x) for x in residue} == {up_to_sign(y) for y in ref_residue}
    # a repeated row reduces to zero in the gcd echelon without touching
    # it, so the echelons are equal, not only their factors
    assert _gcd_echelon(residue) == _gcd_echelon(ref_residue)
    return pivot_rows, len(ref_residue) - len(residue)


def assert_complex_matches_reference(c):
    """Every differential of ``c``, alone and in the order ``homology()``
    takes them, with the columns it clears left out."""
    paired = ()
    for k in (range(len(c.boundary)) if c.cochain
              else range(len(c.boundary) - 1, -1, -1)):
        assert_matches_reference(c.boundary[k])
        paired = set(assert_matches_reference(c.boundary[k], paired)[0])


def test_matches_reference_on_random_matrices():
    dropped = sum(assert_matches_reference(m)[1] for m in random_reference_cases())
    assert dropped > 0


@pytest.mark.parametrize("n,action,top", [(4, "trivial", 3), (4, "sign", 3),
                                          (5, "trivial", 2), (5, "sign", 2)])
def test_matches_reference_on_groupcoh_coboundaries(n, action, top):
    c = bar_cochain_complex(n, CoefficientAction(action), top - 1)
    assert_complex_matches_reference(c)


def test_repeated_rows_of_the_s4_coboundary_are_dropped():
    # the 12167x529 coboundary leaving degree 2 waits on 5 352 rows,
    # 8 of them distinct up to sign
    m = bar_cochain_complex(4, CoefficientAction("trivial"), 2).out_matrix(2)
    assert len(_unit_echelon(m)[2]) == 8
    assert len(reference._unit_echelon_keeping_repeats(m)[2]) == 5352


@pytest.mark.parametrize("x,n", [
    (sphere_model(2, 5), 2), (sphere_model(2, 7), 3), (sphere_model(2, 9), 4),
    (sphere_model(3, 7), 2), (sphere_model(3, 10), 3), (torus_model(5), 2)])
def test_matches_reference_on_keyed_boundaries(x, n):
    for variant in ("exp", "bar"):
        assert_complex_matches_reference(keyed_complex(x, n, variant))


def test_matches_reference_on_conjugated_complexes():
    # the conjugated cases of test_clearing.py and test_homology_basis.py
    cases = [bar_cochain_complex(3, CoefficientAction("trivial"), 2),
             bar_cochain_complex(3, CoefficientAction("sign"), 2),
             keyed_complex(sphere_model(2, 5), 2, "exp"),
             keyed_complex(torus_model(5), 2, "bar", reduced=True)]
    for i, c in enumerate(cases):
        for seed in range(3):
            assert_complex_matches_reference(conjugated(c, 100 * i + seed, 2))


def whole_transpose_stream(m, skip_cols=()):
    """(r, row r) for every row, sparsest first: every row built before
    the first is read, as ``snf_reference._unit_echelon`` does."""
    rows = [{} for _ in range(m.rows)]
    for c, col in enumerate(m._cols):
        if c not in skip_cols:
            for r, v in col.items():
                rows[r][c] = v
    return [(r, rows[r]) for r in sorted(range(m.rows), key=lambda r: len(rows[r]))]


def ordered(rows):
    """Rows as entry lists, so that their dict order is compared too."""
    return [list(x.items()) for x in rows]


def assert_matches_whole_transpose(m, skip_cols=(), bound=None):
    pivot_rows, echelon, residue = _unit_echelon(m, skip_cols, bound)
    ref_rows, ref_echelon, ref_residue = reference._unit_echelon(m, skip_cols, bound)
    assert pivot_rows == ref_rows
    assert list(echelon) == list(ref_echelon)
    assert ordered(echelon.values()) == ordered(ref_echelon.values())
    assert ordered(residue) == ordered(ref_residue)


def streamed_cases():
    """Seeded random matrices, tall, wide and without rows, with a
    random set of skipped columns each."""
    rng = random.Random(3117)
    cases = list(random_reference_cases())
    cases += [random_sparse(rng, rng.randint(20, 90), rng.randint(1, 10), 0.25,
                            [-2, -1, -1, 1, 1, 2, 3]) for _ in range(25)]
    cases += [random_sparse(rng, rng.randint(1, 10), rng.randint(20, 60), 0.2,
                            [-2, -1, 1, 1, 3]) for _ in range(15)]
    # tall with repeated rows and few units: waiting rows and their checks
    for _ in range(15):
        base = random_sparse(rng, rng.randint(2, 6), rng.randint(2, 8), 0.5,
                             [-4, -2, 2, 3, 6, 1])
        dense = base.to_dense()
        cases.append(SparseIntMatrix.from_dense(
            [[rng.choice([-1, 1, 2]) * v for v in rng.choice(dense)]
             for _ in range(rng.randint(20, 60))]))
    cases += [SparseIntMatrix(0, cols) for cols in range(4)]
    for m in cases:
        skip = {c for c in range(m.cols) if rng.random() < 0.2}
        yield m, ()
        yield m, skip


def test_sparsest_first_streams_the_whole_transpose():
    batched = 0
    for m, skip in streamed_cases():
        want = [(r, list(x.items())) for r, x in whole_transpose_stream(m, skip)]
        for bound in (None, 0, 1, 2, 5, m.rows):
            got = [(r, list(x.items()))
                   for r, x in _sparsest_first(m, skip, bound)]
            assert got == want, bound
            batched += bound is not None and 8 * max(bound, 1) < m.rows
    # more than two batches: the first of 4 * bound rows, then doubling
    assert batched > 0


def test_matches_whole_transpose_on_random_matrices():
    stopped = 0
    for m, skip in streamed_cases():
        rk = rank(m)
        for bound in [None, *range(rk + 1), rk + 1, rk + 3]:
            assert_matches_whole_transpose(m, skip, bound)
        stopped += m.rows > 4 * max(rk, 1)
    # matrices where the first batch leaves rows out
    assert stopped > 0


@pytest.mark.parametrize("action", ["trivial", "sign"])
def test_matches_whole_transpose_on_the_s4_coboundary(action):
    # the 12167x529 coboundary leaving degree 2, of rank 506: the d.d
    # bound stops its stream inside the first batch of 4 * 506 rows;
    # 507 never stops it and streams every batch
    c = bar_cochain_complex(4, CoefficientAction(action), 2)
    m = c.out_matrix(2)
    assert (m.rows, m.cols) == (12167, 529)
    for bound in (None, 506, 507):
        assert_matches_whole_transpose(m, (), bound)
    # with the columns homology() clears by the differential before it
    paired = set(_unit_echelon(c.boundary[2])[0])
    for bound in (None, m.cols - rank(c.boundary[2])):
        assert_matches_whole_transpose(m, paired, bound)
