"""Subset-space homology against closed forms and against other models.

* exp_2(S^d) is the symmetric product SP^2(S^d), and SP^2(S^d)/S^d is
  the suspension S^{d+1} RP^{d-1}; the cofibre sequence splits, so the
  reduced homology is Z in degree d plus H~_{*-d-1}(RP^{d-1}).
* The based space of at most n points and the bar space of at most n-1
  points of a sphere have the same reduced homology.
"""

import pytest

from finsub.homology import HomologyGroup, homology
from finsub.simplicial import sphere_model
from finsub.subsetspace import keyed_complex


def reduced_rp(m, i):
    """H~_i(RP^m): Z/2 in odd degrees below m, Z in degree m when m is
    odd, zero elsewhere."""
    if i < 1 or i > m or i % 2 == 0:
        return HomologyGroup(0)
    return HomologyGroup(1) if i == m else HomologyGroup(0, (2,))


def reduced_sp2(d, k):
    """H~_k(SP^2(S^d)) = Z[k == d] + H~_{k-d-1}(RP^{d-1})."""
    rp = reduced_rp(d - 1, k - d - 1)
    return HomologyGroup(rp.rank + (k == d), rp.torsion)


def trusted_homology(c):
    return homology(c, through=c.top_degree - 1)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_exp_two_points_is_the_symmetric_square(d):
    c = keyed_complex(sphere_model(d, 2 * d + 2), 2, "exp", reduced=True)
    groups = trusted_homology(c)
    assert len(groups) == 2 * d + 2
    assert groups == [reduced_sp2(d, k) for k in range(2 * d + 2)]


@pytest.mark.parametrize("d,n", [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3),
                                 (2, 4), (3, 2), (3, 3), (4, 2)])
def test_based_n_points_has_the_homology_of_bar_n_minus_one(d, n):
    x = sphere_model(d, n * d + 1)
    based = keyed_complex(x, n, "based", reduced=True)
    bar = keyed_complex(x, n - 1, "bar", reduced=True)
    assert based.top_degree == bar.top_degree == n * d + 1
    assert trusted_homology(based) == trusted_homology(bar)
