"""Fox-Neuwirth chains of UConf_n(R^m)^+ against the keyed conf-bar
chains, the bar resolution (by duality) and a closed form for n = 2."""

from math import factorial

import pytest

import fncells_reference as reference
from finsub import fncells
from finsub.claims import _groups
from finsub.fncells import (
    cell_boundary,
    cells,
    duality_dimension,
    fn_cochains,
    sphere_homology,
)
from finsub.groupcoh import (
    CoefficientAction,
    bar_cochain_complex,
    duality_cochains,
    group_cohomology,
)
from finsub.homology import HomologyGroup, homology
from finsub.simplicial import sphere_model
from finsub.subsetspace import DEFAULT_CELL_CEILING as CEILING
from finsub.subsetspace import BudgetError

# every (n, m) with nm <= 12 whose keyed conf-bar side builds in about a
# second or less; S^2 n=6, S^3 n=4 and S^4 n=3 take 4-20 s each and are
# covered by `finsub verify fn-conf` runs recorded in CHANGES.md
KEYED_CASES = [(n, m) for n in range(1, 13) for m in range(1, 13)
               if n * m <= 12 and (n, m) not in ((6, 2), (4, 3), (3, 4))]


def test_cells_are_the_separator_sequences_by_codimension():
    for n, m in ((1, 3), (2, 4), (3, 3), (4, 2), (5, 3)):
        full = (n - 1) * (m - 1)
        for c in range(full + 2):
            assert all(sum(i - 1 for i in s) == c
                       for s in cells(n, m, c, CEILING))
        every = [s for c in range(full + 1) for s in cells(n, m, c, CEILING)]
        assert len(every) == len(set(every)) == m ** (n - 1)
        assert every == sorted(every, key=lambda s: (sum(s), s))
        assert all(1 <= i <= m for s in every for i in s)


def test_cells_of_many_points():
    # enumerated without recursion, and refused by their separators: the
    # 499 500 codimension-2 cells of n = 1000 points weigh 999 each
    assert cells(1200, 3, 0, CEILING) == [(1,) * 1199]
    assert cells(1200, 3, 1, 10 ** 7)[::1198] == [
        (1,) * 1198 + (2,), (2,) + (1,) * 1198]
    with pytest.raises(BudgetError, match="pass 501 cells in codimension 2; "
                       "at 999 per cell"):
        cells(1000, 3, 2, CEILING)


@pytest.mark.parametrize("n,m", [(1, 4), (2, 7), (3, 6), (4, 5), (5, 4),
                                 (6, 3), (7, 3), (9, 2)])
def test_cells_and_faces_match_the_whole_list_reference(n, m):
    # every cell and every face term, its sign included, equals the
    # recursive enumeration and the sign over all nm parameters
    for c in range((n - 1) * (m - 1) + 2):
        found = cells(n, m, c, CEILING)
        assert found == reference.cells(n, m, c)
        for s in found:
            assert cell_boundary(s, m) == reference.cell_boundary(s, m), s


def test_duality_dimension():
    assert [duality_dimension(r, False) for r in range(5)] == [2, 4, 4, 6, 6]
    assert [duality_dimension(r, True) for r in range(5)] == [3, 3, 5, 5, 7]


def test_faces_are_cells_one_degree_down():
    for n, m in ((3, 3), (4, 3), (5, 2), (4, 4)):
        for c in range((n - 1) * (m - 1)):
            for s in cells(n, m, c, CEILING):
                for face, v in cell_boundary(s, m).items():
                    assert v and len(face) == n - 1
                    assert all(1 <= i <= m for i in face)
                    assert sum(face) == sum(s) + 1  # one codimension up


@pytest.mark.parametrize("n,m", KEYED_CASES)
def test_groups_match_keyed_conf_bar(n, m):
    keyed = _groups(sphere_model(m, n * m + 1), n, "conf-bar",
                    {"ceiling": 10 ** 7}, reduced=True)
    assert sphere_homology(n, m, "conf", CEILING) == keyed


@pytest.mark.parametrize("n,maxdeg", [(1, 6), (2, 6), (3, 4), (4, 2), (5, 1)])
@pytest.mark.parametrize("action", ["trivial", "sign"])
def test_duality_matches_bar_resolution(n, maxdeg, action):
    act = CoefficientAction(action)
    bar = homology(bar_cochain_complex(n, act, maxdeg), through=maxdeg)
    fn = homology(duality_cochains(n, act, maxdeg), through=maxdeg)
    assert fn == bar
    assert [group_cohomology(n, action, r) for r in range(maxdeg + 1)] == bar


def test_duality_cochains_admit_by_cells():
    # every codimension the duality path builds for S_n, n <= 8, through
    # degree 6: a ceiling of its cells' weight, n-1 separators per cell
    # and at least 1, admits it, and one less refuses it; a whole window
    # is admitted by the weight of all its codimensions
    built = {}  # (n, m) -> cell count of each codimension built
    for n in range(1, 9):
        weight = max(n - 1, 1)
        for maxdeg in range(7):
            for sign in (False, True):
                m = duality_dimension(maxdeg, sign)
                counts = built.setdefault((n, m), [])
                for c in range(len(counts), maxdeg + 2):
                    counts.append(len(cells(n, m, c, CEILING)))
                    most = weight * counts[c]
                    assert len(cells(n, m, c, ceiling=most)) == counts[c]
                    if counts[c]:  # an empty codimension is never refused
                        with pytest.raises(BudgetError, match=(
                                f"pass {counts[c]} cells in codimension {c}; "
                                f"at {weight} per cell, one per separator, "
                                f"that is {most}, over the ceiling of "
                                f"{most - 1}$")):
                            cells(n, m, c, ceiling=most - 1)
                # the job's codimensions 0..maxdeg+1 are counted
                # together: their whole weight admits it (built through
                # degree 3), and one less refuses it in the codimension
                # that passes the ceiling; the window never weighs more
                # than the bar tuples of degrees 0..maxdeg+1
                window = counts[:maxdeg + 2]
                total = weight * sum(window)
                act = CoefficientAction("sign" if sign else "trivial")
                if maxdeg <= 3:
                    assert duality_cochains(n, act, maxdeg,
                                            ceiling=total).dims == window
                last = max(c for c in range(maxdeg + 2) if window[c])
                with pytest.raises(BudgetError, match=(
                        f"codimension {last}; .* over the ceiling of "
                        f"{total - 1}$")):
                    duality_cochains(n, act, maxdeg, ceiling=total - 1)
                assert total <= sum((factorial(n) - 1) ** r
                                    for r in range(maxdeg + 2))
    # 10 cells of 2 separators
    assert duality_cochains(3, CoefficientAction("sign"), 2, ceiling=20).dims \
        == [1, 2, 3, 4]
    act = CoefficientAction("trivial")
    for n, maxdeg, message in ((0, 1, "need n >= 1"),
                               (3, -1, "maxdeg must be non-negative")):
        for build in (bar_cochain_complex, duality_cochains):
            with pytest.raises(ValueError, match=message):
                build(n, act, maxdeg)


def _rp_cohomology(j, k, twisted):
    """H^j(RP^k; Z), or with the orientation-twisted Z, from the cellular
    cochains: one cell per degree, coboundary C^(i-1) -> C^i equal to
    1 + (-1)^i untwisted and 1 - (-1)^i twisted."""
    def delta(i):  # the coboundary arriving at degree i, 0 outside 1..k
        if not 1 <= i <= k:
            return 0
        return 1 - (-1) ** i if twisted else 1 + (-1) ** i
    if not 0 <= j <= k:
        return HomologyGroup(0)
    if delta(j + 1):  # injective out of C^j: no cycles
        return HomologyGroup(0)
    image = delta(j)
    return HomologyGroup(1) if image == 0 else HomologyGroup(
        0, (image,) if image > 1 else ())


@pytest.mark.parametrize("m", range(1, 13))
def test_two_points_match_projective_space(m):
    # UConf_2(R^m) = R^(m+1) x RP^(m-1), whose orientation character is
    # sign^m: H~_(2m-j)(UConf_2(R^m)^+) = H^j(RP^(m-1); Z), twisted for m odd
    fn = sphere_homology(2, m, "conf", CEILING)
    for k in range(2 * m + 1):
        assert fn[k] == _rp_cohomology(2 * m - k, m - 1, m % 2 == 1), (m, k)


@pytest.mark.parametrize("n,m", [(2, 5), (3, 4), (4, 3), (5, 2), (4, 4),
                                 (6, 2)])
def test_windows_give_the_full_groups(n, m):
    # duality_cochains reads H^(c-1) and below off the window of
    # codimension <= c; every such window gives the full complex's groups
    full_codim = (n - 1) * (m - 1)
    full = homology(fn_cochains(n, m, full_codim, CEILING),
                    through=full_codim)
    for c in range(1, full_codim + 2):
        window = homology(fn_cochains(n, m, c, CEILING), through=c - 1)
        assert window == full[:c], c


def test_windows_build_only_the_cells_they_read():
    # the windows groupcoh builds: 20 cells for S_4 through degree 2 and
    # 15 for S_5 through degree 1
    assert fn_cochains(4, 4, 3, CEILING).dims == [1, 3, 6, 10]
    assert fn_cochains(5, 3, 2, CEILING).dims == [1, 4, 10]
    assert fn_cochains(1, 5, 3, CEILING).dims == [1, 0, 0, 0]


def test_every_column_is_checked(monkeypatch):
    # a sign flipped on one face of one cell breaks d.d somewhere, and
    # the build refuses the complex
    original = fncells.cell_boundary
    flipped = []

    def corrupt(s, m):
        out = original(s, m)
        if s == (2, 1, 2):
            face = next(iter(out))
            out[face] = -out[face]
            flipped.append(face)
        return out

    monkeypatch.setattr(fncells, "cell_boundary", corrupt)
    with pytest.raises(RuntimeError, match="double differential"):
        fn_cochains(4, 3, 6, CEILING)
    assert flipped
