"""Differential tests for the clearing pass of ``homology``.

``homology`` eliminates each differential with the columns left out that
the pivot rows of the previous differential's unit echelon pair with.
Every group it reports must equal the group read off eliminating each
differential alone with ``_Elimination``.
"""

import pytest

from conftest import conjugated
from finsub.groupcoh import CoefficientAction, bar_cochain_complex
from finsub.homology import ChainComplex, HomologyGroup, homology
from finsub.simplicial import sphere_model, torus_model
from finsub.snf import SparseIntMatrix, _Elimination, _untracked_diagonal, divisor_chain
from finsub.subsetspace import keyed_complex


def per_matrix_groups(c):
    """Groups from the invariant factors of every differential alone,
    eliminated by ``_Elimination`` with no echelon and no clearing."""
    f = [divisor_chain(p[2] for p in _Elimination(m, False, False).run().pivots)
         for m in c.boundary] + [[]]
    groups = []
    for k, dim in enumerate(c.dims):
        out_f, in_f = (f[k + 1], f[k]) if c.cochain else (f[k], f[k + 1])
        groups.append(HomologyGroup(dim - len(out_f) - len(in_f),
                                    tuple(x for x in in_f if x > 1)))
    return groups


def assert_clearing_exact(c):
    want = per_matrix_groups(c)
    assert homology(c) == want
    assert [g.rank for g in homology(c, "Q")] == [g.rank for g in want]


def residue_unit_pivots(c):
    """Unit pivots taken on the residue of the unit echelon, over all
    differentials: pivots whose rows clearing must not drop."""
    total = 0
    for m in c.boundary:
        pivot_rows, diagonal = _untracked_diagonal(m)
        total += diagonal[len(pivot_rows):].count(1)
    return total


@pytest.mark.parametrize("x,n", [
    (sphere_model(2, 5), 2), (sphere_model(2, 7), 3), (sphere_model(2, 9), 4),
    (sphere_model(3, 7), 2), (sphere_model(3, 10), 3), (torus_model(5), 2)])
def test_clearing_matches_per_matrix_on_keyed_complexes(x, n):
    for variant in ("exp", "bar"):
        assert_clearing_exact(keyed_complex(x, n, variant))
    assert_clearing_exact(keyed_complex(x, n, "bar", reduced=True))


@pytest.mark.parametrize("n,maxdeg", [(1, 3), (2, 3), (3, 3), (4, 2)])
@pytest.mark.parametrize("action", ["trivial", "sign"])
def test_clearing_matches_per_matrix_on_bar_complexes(n, maxdeg, action):
    assert_clearing_exact(bar_cochain_complex(n, CoefficientAction(action), maxdeg))


def test_clearing_matches_per_matrix_on_conjugated_complexes():
    cases = [bar_cochain_complex(3, CoefficientAction("trivial"), 2),
             bar_cochain_complex(3, CoefficientAction("sign"), 2),
             keyed_complex(sphere_model(2, 5), 2, "exp"),
             keyed_complex(torus_model(5), 2, "bar", reduced=True)]
    late_units = 0
    for i, c in enumerate(cases):
        for seed in range(3):
            conj = conjugated(c, 100 * i + seed, 2)
            assert_clearing_exact(conj)
            late_units += residue_unit_pivots(conj)
    # the cases reach the rule's edge: unit pivots outside the echelon
    assert late_units > 0


@pytest.mark.parametrize("d1,d2", [
    # d_2 has no +-1 entry, so both rows form the residue; its
    # elimination is picked at 2 and ends in a unit pivot on row 1
    # through gcd steps, but [3] is not unimodular
    ([[3, -2]], [[2], [3]]),
    # d_2 has no +-1 entry either; the residue is picked at -2, row 0 is
    # added to row 1 while that pivot is cleared, and the next pick is
    # the unit left on row 1
    ([[0, 5, -2]], [[3, -2], [-2, 2], [-5, 5]]),
])
def test_unit_pivots_after_a_non_unit_pick_are_not_cleared(d1, d2):
    # H = 0 everywhere; dropping column 1 of d_1 would report torsion in H_0
    d1, d2 = SparseIntMatrix.from_dense(d1), SparseIntMatrix.from_dense(d2)
    c = ChainComplex([1, d2.rows, d2.cols], [SparseIntMatrix(0, 1), d1, d2])
    c.assert_valid()
    assert homology(c) == [HomologyGroup(0)] * 3 == per_matrix_groups(c)
