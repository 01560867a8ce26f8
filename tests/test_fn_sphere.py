"""Fox-Neuwirth chains of the bar space and of exp_n(S^d) (stages B and
C of ``finsub.fncells``) against the keyed chains, closed forms, the
keyed connecting map, the keyed spectral-sequence pages and the pinned
groups past the keyed reach."""

import json
from pathlib import Path

import pytest

from cli_runner import CliRunner
from conftest import time_limit
from test_oracles import reduced_sp2

from finsub import fncells
from finsub.cli import main
from finsub.claims import _sphere_groups
from finsub.fncells import (
    INFINITY,
    bar_chains,
    exp_chains,
    points,
    sphere_homology,
)
from finsub.homology import (
    HomologyGroup,
    _restrict,
    _submatrix,
    homology,
    zigzag_free_index,
)
from finsub.simplicial import sphere_model
from finsub.spectral import einfty_totals, filtered_complex, pages
from finsub.subsetspace import DEFAULT_CELL_CEILING as CEILING
from finsub.subsetspace import BudgetError, keyed_complex
from subsetspace_reference import keyed_connecting

PINNED = json.loads((Path(__file__).resolve().parent.parent / "scripts"
                     / "reach_groups.json").read_text())

# every (n, d) with nd <= 9; the nd <= 12 cases that take 1-30 s on the
# keyed side are covered by `finsub verify fn-exp` runs in CHANGES.md
KEYED_CASES = [(n, d) for n in range(1, 10) for d in range(1, 10)
               if n * d <= 9]


def _keyed(n, d, variant, reduced):
    c = keyed_complex(sphere_model(d, n * d + 1), n, variant, reduced=reduced,
                      ceiling=10 ** 7)
    return homology(c, through=n * d)


@pytest.mark.parametrize("n,d", KEYED_CASES)
def test_groups_match_keyed(n, d):
    # torsion included, in every degree 0..nd
    assert homology(exp_chains(n, d, CEILING)) == _keyed(n, d, "exp", False)
    assert homology(exp_chains(n, d, CEILING, based=True)) == \
        _keyed(n, d, "based", False)
    assert homology(bar_chains(n, d, CEILING)) == _keyed(n, d, "bar", True)
    conf = sphere_homology(n, d, "conf", CEILING)
    assert conf == _keyed(n, d, "conf-bar", True)
    assert conf == _keyed(n, d, "conf-based", True)


@pytest.mark.parametrize("d", range(1, 9))
def test_one_point_is_the_sphere(d):
    assert homology(exp_chains(1, d, CEILING)) == _sphere_groups(d, d)


@pytest.mark.parametrize("n", range(1, 10))
def test_circle(n):
    # exp_n(S^1) is S^n for odd n and S^(n-1) for even n
    assert homology(exp_chains(n, 1, CEILING)) == \
        _sphere_groups(n if n % 2 else n - 1, n)


@pytest.mark.parametrize("d", range(1, 9))
def test_two_points_is_the_symmetric_square(d):
    groups = homology(exp_chains(2, d, CEILING))
    assert groups[0] == HomologyGroup(1)
    assert groups[1:] == [reduced_sp2(d, k) for k in range(1, 2 * d + 1)]


@pytest.mark.parametrize("n,d", [(1, 3), (2, 2), (3, 3), (4, 2), (5, 3),
                                 (3, 5)])
def test_cells(n, d):
    # 1 + sum_(k<=n) d^(k-1) + sum_(k<n) d^(k-1) cells for exp, the
    # unmarked ones for bar and the marked ones for based, each of
    # dimension kd - sum_j (s_j - 1)
    ex = exp_chains(n, d, CEILING)
    unmarked = sum(d ** (k - 1) for k in range(1, n + 1))
    marked = 1 + sum(d ** (k - 1) for k in range(1, n))
    assert sum(ex.dims) == unmarked + marked
    assert sum(bar_chains(n, d, CEILING).dims) == unmarked
    assert sum(exp_chains(n, d, CEILING, based=True).dims) == marked
    assert ex.basis[0] == [INFINITY]
    for dim, cells in enumerate(ex.basis):
        for cell in cells:
            if cell != INFINITY:
                s, _ = cell
                assert dim == (points(cell) - cell[1]) * d - \
                    sum(i - 1 for i in s)
    assert sum(exp_chains(4, 2, CEILING).dims) == 23
    assert sum(bar_chains(4, 2, CEILING).dims) == 15


@pytest.mark.parametrize("n,d", [(3, 1), (3, 2), (4, 2), (3, 3), (4, 3)])
def test_no_face_raises_the_points(n, d):
    # with inf counted, merges and escapes keep the number of points and
    # collisions lower it: exp_(n-1) and the marked cells are subcomplexes
    assert points(INFINITY) == 1
    ex = exp_chains(n, d, CEILING)
    for dim in range(1, n * d + 1):
        for col, cell in enumerate(ex.basis[dim]):
            for row in ex.boundary[dim].column(col):
                face = ex.basis[dim - 1][row]
                assert points(face) <= points(cell)
                assert face[1] or not cell[1]


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 4),
                                 (2, 6), (2, 8)])
def test_collision_block_gives_the_keyed_connecting_index(n, d):
    # the connecting map of the bar tower in degree nd - d + 1, as the
    # `connecting` claim reads it: the n-point cells of bar_n, the
    # (n-1)-point cells and the collision block between them
    k = n * d - d + 1
    keyed = zigzag_free_index(*keyed_connecting(sphere_model(d, k + 1), n, k),
                              k)
    bar = bar_chains(n, d, CEILING)
    cols = [[i for i, c in enumerate(b) if points(c) == n] for b in bar.basis]
    rows = [[i for i, c in enumerate(b) if points(c) == n - 1]
            for b in bar.basis]
    block = _submatrix(bar.boundary[k], rows[k - 1], cols[k])
    fn = zigzag_free_index(_restrict(bar, cols), _restrict(bar, rows), block,
                           k)
    assert fn == keyed == n - 1


@pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 2)])
def test_ceiling_counts_each_degree(n, d):
    # a ceiling of the heaviest degree's weight admits the build, one
    # less refuses it in that degree
    for build in (lambda c: exp_chains(n, d, c), lambda c: bar_chains(n, d, c),
                  lambda c: exp_chains(n, d, c, based=True)):
        full = build(CEILING)
        weights = [sum(max(points(c) - c[1] - 1, 1) for c in b)
                   for b in full.basis]
        most = max(weights)
        assert build(most).dims == full.dims
        with pytest.raises(BudgetError, match=(
                f", degree {weights.index(most)}[,:] .* over the ceiling "
                f"of {most - 1}$")):
            build(most - 1)
    with pytest.raises(BudgetError, match=r"^exp_1\(S\^2\), degree 0: the "
                       r"0-cell \{inf\} weighs 1, over the ceiling of 0$"):
        exp_chains(1, 2, 0)


@pytest.mark.parametrize("faces", ["collision_faces", "escape_faces"])
def test_every_column_is_checked(monkeypatch, faces):
    # a sign flipped on one collision or escape term breaks d.d, and the
    # build refuses the complex
    original = getattr(fncells, faces)
    flipped = []

    def corrupt(s, m):
        out = original(s, m)
        if s == (1, 3):
            face = next(iter(out))
            out[face] = -out[face]
            flipped.append(face)
        return out

    monkeypatch.setattr(fncells, faces, corrupt)
    with pytest.raises(RuntimeError, match="double differential"):
        exp_chains(3, 3, CEILING)
    assert flipped


@pytest.mark.parametrize("d,n", [(3, 5), (2, 8)])
def test_past_the_keyed_reach(d, n):
    # both jobs were refused by the keyed ceiling; the Fox-Neuwirth cells
    # give the pinned groups in well under a second
    runner = CliRunner()
    with time_limit(1):
        res = runner.invoke(main, ["homology", "--space", "sphere", "--d",
                                   str(d), "--n", str(n)])
    assert res.exit_code == 0, res.output
    groups = {str(g["degree"]): str(HomologyGroup(g["rank"],
                                                  tuple(g["torsion"])))
              for g in json.loads(res.output)["groups"]
              if g["rank"] or g["torsion"]}
    assert groups == PINNED[f"{d} {n} exp"]


def test_pinned_groups_past_the_keyed_reach():
    for key in ("3 5 exp", "2 7 exp", "2 8 exp", "4 4 exp"):
        d, n = map(int, key.split()[:2])
        groups = homology(exp_chains(n, d, CEILING))
        assert {str(k): str(g) for k, g in enumerate(groups)
                if not g.trivial} == PINNED[key]


# every (n, d) with nd <= 8
PAGE_CASES = [(n, d) for n in range(1, 9) for d in range(1, 9) if n * d <= 8]


def _sphere_page(n, d, variant, *trunc):
    res = CliRunner().invoke(main, ["page", "--space", "sphere", "--d", str(d),
                                    "--n", str(n), "--variant", variant,
                                    *trunc])
    assert res.exit_code == 0, res.output
    return json.loads(res.output)


def _below(entries, top):
    return [e for e in entries if sum(e["from"] if "from" in e
                                      else (e["p"], e["q"])) < top]


@pytest.mark.parametrize("variant", ["exp", "based", "bar"])
@pytest.mark.parametrize("n,d", PAGE_CASES)
def test_pages_match_keyed(n, d, variant):
    # `page --space sphere` filters the cells by their points; the keyed
    # chains of sphere_model(d, nd + 1), whose degree nd + 1 is empty,
    # gave the same pages, entries and differential ranks
    keyed = filtered_complex(sphere_model(d, n * d + 1), n, variant)
    assert keyed.dims[-1] == 0
    got = _sphere_page(n, d, variant)
    assert got["pages"] == [p.to_json() for p in pages(keyed)]
    assert got["einfty_totals"] == einfty_totals(keyed)


@pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (2, 3), (4, 1)])
def test_page_trunc_keeps_the_degrees_below_it(n, d):
    # `page --trunc T` on a sphere gave the keyed pages of
    # sphere_model(d, T), trusted below degree T: the cells give the same
    # entries and differentials there, and degree T as the full pages do
    for variant in ("exp", "based", "bar"):
        full = _sphere_page(n, d, variant)["pages"]
        for trunc in range(1, n * d + 3):
            got = _sphere_page(n, d, variant, "--trunc", str(trunc))
            assert len(got["einfty_totals"]) == trunc + 1
            keyed = pages(filtered_complex(sphere_model(d, trunc), n, variant))
            for page, want, exact in zip(got["pages"], keyed, full,
                                         strict=True):
                want = want.to_json()
                for part in ("entries", "differentials"):
                    assert _below(page[part], trunc) == \
                        _below(want[part], trunc), (variant, trunc)
                    assert page[part] == _below(exact[part], trunc + 1)
