"""Differential tests for the clearing pass of ``homology``.

``homology`` eliminates each differential with the columns left out that
the pivot rows of the previous differential's unit echelon pair with.
Every group it reports must equal the group read off eliminating each
differential alone with ``_Elimination``, also when ``through`` leaves
the differentials that give torsion only to later degrees to a rank-only
stream that stops at the d.d bound.
"""

import pytest

from conftest import conjugated
from finsub.groupcoh import CoefficientAction, bar_cochain_complex
from finsub.homology import ChainComplex, HomologyGroup, homology
from finsub.simplicial import sphere_model, torus_model
import finsub.snf as snf
from finsub.snf import (
    SparseIntMatrix,
    _Elimination,
    _untracked_diagonal,
    _untracked_rank,
    divisor_chain,
)
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
    # through=0 on a trivial-action bar complex leaves delta^0 = 0 to the
    # rank-only stream, whose bound 1 it never reaches (H^0 = Z)
    for k in range(c.top_degree + 1):
        assert homology(c, through=k) == want[:k + 1]
        assert homology(c, "Q", through=k) == \
            [HomologyGroup(g.rank) for g in want[:k + 1]]
    for k in (-1, c.top_degree + 1):
        with pytest.raises(ValueError, match="through"):
            homology(c, through=k)


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


@pytest.mark.parametrize("c", [
    bar_cochain_complex(3, CoefficientAction("sign"), 2),
    bar_cochain_complex(4, CoefficientAction("trivial"), 1),
    keyed_complex(sphere_model(2, 7), 3, "exp"),
    conjugated(keyed_complex(torus_model(5), 2, "bar", reduced=True), 7, 2)])
def test_rank_only_stream_takes_a_prefix_of_the_pivot_rows(c):
    # with the clearing homology() does, stopped at the d.d bound or not
    paired, last_rank = set(), 0
    top = c.top_degree
    for k in (range(top + 1) if c.cochain else range(top, -1, -1)):
        m = c.boundary[k]
        pivot_rows, diagonal = _untracked_diagonal(m, paired)
        stopped_rows, r = _untracked_rank(m, paired, m.cols - last_rank)
        assert r == len(diagonal) == _untracked_rank(m, paired)[1]
        assert stopped_rows == pivot_rows[:len(stopped_rows)]
        paired, last_rank = set(stopped_rows), r


def test_rank_only_stream_stops_early_on_the_top_bar_coboundary(monkeypatch):
    c = bar_cochain_complex(4, CoefficientAction("trivial"), 2)
    top = c.boundary[3]
    assert (top.rows, top.cols) == (12167, 529)
    streamed = []
    reduce, unit_echelon = snf._reduce, snf._unit_echelon

    def unit_echelon_of(m, *args):
        streamed.append(m)
        return unit_echelon(m, *args)

    def counting(x, echelon):
        calls[streamed[-1] is top] += 1
        reduce(x, echelon)

    calls = [0, 0]
    monkeypatch.setattr(snf, "_unit_echelon", unit_echelon_of)
    monkeypatch.setattr(snf, "_reduce", counting)
    assert [str(g) for g in homology(c, through=2)] == ["Z", "0", "Z/2"]
    assert 0 < calls[True] < 4000
