"""Symmetric group cohomology via the normalized bar resolution."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsub.groupcoh import (
    CoefficientAction,
    Permutation,
    bar_cochain_complex,
    group_cohomology,
    symmetric_group,
)
from finsub.snf import SparseIntMatrix
from finsub.subsetspace import BudgetError


def test_permutation_basics():
    p = Permutation((1, 0, 2))
    assert p.sign() == -1
    q = Permutation((1, 2, 0))
    assert q.sign() == 1
    assert (p * p).is_identity()
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_permutations_and_actions_are_values():
    p = Permutation((1, 0, 2))
    assert p == Permutation((1, 0, 2)) and hash(p) == hash(Permutation((1, 0, 2)))
    assert p != Permutation((0, 1, 2)) and p != (1, 0, 2)
    assert p * p == Permutation((0, 1, 2))
    assert len(set(symmetric_group(3) + symmetric_group(3))) == 6
    with pytest.raises(ValueError):
        Permutation((1, 2))
    sign = CoefficientAction("sign")
    assert sign == CoefficientAction("sign") != CoefficientAction("trivial")
    assert hash(sign) == hash(CoefficientAction("sign")) and sign != "sign"
    assert sign.kind == "sign"
    with pytest.raises(ValueError, match="unknown action"):
        CoefficientAction("bogus")


@given(st.permutations(list(range(4))), st.permutations(list(range(4))))
@settings(max_examples=60, deadline=None)
def test_sign_is_multiplicative(a, b):
    pa, pb = Permutation(tuple(a)), Permutation(tuple(b))
    assert (pa * pb).sign() == pa.sign() * pb.sign()


def test_enumeration_lexicographic():
    s3 = symmetric_group(3)
    assert [p.images for p in s3[:3]] == [(0, 1, 2), (0, 2, 1), (1, 0, 2)]
    assert len(s3) == 6


def test_normalized_sizes():
    c2 = bar_cochain_complex(2, CoefficientAction("trivial"), 2)
    assert c2.dims == [1, 1, 1, 1]
    c3 = bar_cochain_complex(3, CoefficientAction("trivial"), 2)
    assert c3.dims[2] == 25


def test_coboundary_squares_to_zero():
    c = bar_cochain_complex(3, CoefficientAction("sign"), 3)
    assert c.validate() == []


@pytest.mark.parametrize("n,action,r,expect", [
    (2, "trivial", 0, "Z"),
    (3, "trivial", 0, "Z"),
    (4, "trivial", 0, "Z"),
    (2, "sign", 0, "0"),
    (3, "sign", 0, "0"),
    (4, "sign", 0, "0"),
    (2, "trivial", 1, "0"),
    (3, "trivial", 1, "0"),
    (4, "trivial", 1, "0"),
    (2, "sign", 1, "Z/2"),
    (3, "sign", 1, "Z/2"),
    (4, "sign", 1, "Z/2"),
    (2, "trivial", 2, "Z/2"),
    (3, "trivial", 2, "Z/2"),
    (2, "sign", 2, "0"),
    (3, "sign", 2, "Z/3"),
    (2, "trivial", 3, "0"),
    (2, "sign", 3, "Z/2"),
])
def test_known_cohomology(n, action, r, expect):
    assert str(group_cohomology(n, action, r)) == expect


@pytest.mark.parametrize("n", [6, 7, 8])
def test_closed_forms_past_the_bar_reach(n):
    # trivial: H^1 = Hom(S_n, Z) = 0, H^2 = Hom(S_n, Q/Z) = Z/2 and, for
    # n >= 4, H^3 = Ext(H_2(S_n), Z) with Schur multiplier Z/2; sign:
    # H^0 = 0 and H^1 = Z/2.  The bar resolution needs (n!-1)^(r+1)
    # tuples here, over 5 * 10^5 already for S_6 in degree 1.
    assert [str(group_cohomology(n, "trivial", r)) for r in range(4)] == \
        ["Z", "0", "Z/2", "Z/2"]
    assert [str(group_cohomology(n, "sign", r)) for r in range(2)] == \
        ["0", "Z/2"]


def test_positive_degrees_are_finite():
    for n in (2, 3):
        for action in ("trivial", "sign"):
            for r in (1, 2):
                g = group_cohomology(n, action, r)
                assert g.rank == 0


def test_budget_guard():
    # the first degree over the ceiling is named: 23^3 > 10^4
    with pytest.raises(BudgetError, match="at degree 3 needs 12167 basis "
                       "tuples, over the ceiling of 10000"):
        bar_cochain_complex(4, CoefficientAction("trivial"), 4, ceiling=10_000)


def bar_coboundaries_reference(n, action, maxdeg):
    """The coboundaries assembled over Permutation tuples, as the bar
    complex was built before it used integer element ids."""
    nontriv = [g for g in symmetric_group(n) if not g.is_identity()]
    top = maxdeg + 1
    tuples = [[tuple(t) for t in product(nontriv, repeat=r)]
              for r in range(top + 1)]
    index = [{t: i for i, t in enumerate(tab)} for tab in tuples]
    scalars = {g: action.scalar(g) for g in nontriv}
    boundary = [SparseIntMatrix(len(tuples[0]), 0)]
    for r in range(top):
        mat = SparseIntMatrix(len(tuples[r + 1]), len(tuples[r]))
        idx = index[r]
        for row, t in enumerate(tuples[r + 1]):
            mat.add(row, idx[t[1:]], scalars[t[0]])
            sign = -1
            for i in range(r):
                merged = t[i] * t[i + 1]
                if not merged.is_identity():
                    mat.add(row, idx[t[:i] + (merged,) + t[i + 2:]], sign)
                sign = -sign
            mat.add(row, idx[t[:r]], sign)
        boundary.append(mat)
    return boundary


@pytest.mark.parametrize("n,maxdeg", [(1, 3), (2, 4), (3, 3), (4, 2), (5, 1)])
@pytest.mark.parametrize("action", ["trivial", "sign"])
def test_bar_complex_matches_permutation_build(n, maxdeg, action):
    act = CoefficientAction(action)
    c = bar_cochain_complex(n, act, maxdeg)
    want = bar_coboundaries_reference(n, act, maxdeg)
    assert c.dims == [want[0].rows] + [m.rows for m in want[1:]]
    for got, ref in zip(c.boundary, want, strict=True):
        assert got.triplets() == ref.triplets()
        assert got == ref


def test_trivial_group():
    assert str(group_cohomology(1, "trivial", 0)) == "Z"
    assert str(group_cohomology(1, "trivial", 2)) == "0"
