"""Differential tests for the +-1 echelon that drops repeated waiting rows.

``snf._unit_echelon`` keeps a row with no +-1 only if no waiting row
equal to it up to sign is held already.  It is compared with
``snf_reference._unit_echelon``, the echelon that kept every waiting
row: the pivot rows and the echelon must be identical, the residue must
hold the same rows up to sign, in the reference's order with repeats
left out, and its gcd echelon, and so its invariant factors and rank,
must be the same.
"""

import pytest

import snf_reference as reference
from conftest import conjugated
from finsub.groupcoh import CoefficientAction, bar_cochain_complex
from finsub.simplicial import sphere_model, torus_model
from finsub.snf import _gcd_echelon, _unit_echelon
from finsub.subsetspace import keyed_complex
from test_snf import random_reference_cases


def up_to_sign(x):
    s = 1 if x[min(x)] > 0 else -1
    return frozenset((c, s * v) for c, v in x.items())


def assert_matches_reference(m, skip_cols=()):
    """Compare with the reference on ``m``; return the pivot rows and
    how many residue rows the reference has beyond ours."""
    pivot_rows, echelon, residue = _unit_echelon(m, skip_cols)
    ref_rows, ref_echelon, ref_residue = reference._unit_echelon(m, skip_cols)
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
    assert len(reference._unit_echelon(m)[2]) == 5352


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
