"""Differential tests for kernel lattices read off the unit echelon.

``homology_basis`` takes the kernel lattice of the outgoing differential
from ``snf.kernel_lattice``, which eliminates only the residue of the
unit echelon with a tracked column transform.  Its bases are compared
with ``homology_reference.homology_basis``, which ran that elimination
on the whole differential, and checked on their own: every generator is
a cycle, the free generators have unit coordinates, every torsion
generator has its order at the lattice level, and the reference's free
generators are a unimodular change of the new ones.

Its second stage puts the transpose of the incoming image b (in kernel
coordinates) in Smith form with a tracked column transform, in place of
b with a tracked row transform; that stage is compared with the row
transform of ``snf_reference`` on the same b.
"""

import random
import sys

import pytest

import homology_reference as reference
import snf_reference
from conftest import conjugated, in_image_lattice, peak_traced, time_limit
from finsub import snf
from finsub.groupcoh import CoefficientAction, bar_cochain_complex
from finsub.homology import homology, homology_basis
from finsub.simplicial import sphere_model, torus_model
from finsub.snf import SparseIntMatrix, invariant_factors, kernel_lattice, rank
from finsub.subsetspace import keyed_complex

# the module; ``finsub.homology`` on the package is the function
homology_module = sys.modules["finsub.homology"]


def prime_factors(n):
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def matrix_of(columns, rows):
    m = SparseIntMatrix(rows, len(columns))
    for j, col in enumerate(columns):
        for r, v in col.items():
            m.set(r, j, v)
    return m


def assert_kernel_lattice(m):
    kernel, rk, coords = kernel_lattice(m)
    assert rk == rank(m)
    assert len(kernel) == len(coords) == m.cols - rk
    for j, vec in enumerate(kernel):
        assert not m.mul_col(vec)
        assert [sum(w * vec.get(c, 0) for c, w in row.items())
                for row in coords] == [int(i == j) for i in range(len(kernel))]
    if kernel:
        # a basis of a saturated lattice has all invariant factors 1
        assert invariant_factors(matrix_of(kernel, m.cols)) == [1] * len(kernel)


def assert_basis(c, k, group, compare=True):
    """Check the new basis of H_k on its own and, with ``compare``,
    against the reference."""
    new = homology_basis(c, k)
    assert new.group == group
    out, inc = c.out_matrix(k), c.in_matrix(k)
    for g in new.free_gens + new.torsion_gens:
        assert not out.mul_col(g)
    rank_k = new.group.rank
    for i, g in enumerate(new.free_gens):
        free, tors = new.coords(g)
        assert free == [int(i == j) for j in range(rank_k)]
        assert not any(tors)
    for g, order in zip(new.torsion_gens, new.torsion_orders):
        assert in_image_lattice(inc, {l: order * v for l, v in g.items()})
        for p in prime_factors(order):
            assert not in_image_lattice(inc, {l: order // p * v for l, v in g.items()})
    if not compare:
        return
    old = reference.homology_basis(c, k)
    assert old.group == group
    if rank_k:
        change = [new.coords(g)[0] for g in old.free_gens]
        assert invariant_factors(SparseIntMatrix.from_dense(change)) == [1] * rank_k


def assert_bases_match_reference(c, degrees, skip_reference=()):
    groups = homology(c)
    for k in degrees:
        assert_kernel_lattice(c.out_matrix(k))
        assert_basis(c, k, groups[k], compare=k not in skip_reference)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("action", ["trivial", "sign"])
def test_basis_matches_reference_on_bar_complexes(n, action):
    assert_bases_match_reference(
        bar_cochain_complex(n, CoefficientAction(action), 2), (1, 2))


@pytest.mark.parametrize("x,n", [
    (sphere_model(2, 5), 2), (sphere_model(2, 7), 3), (sphere_model(2, 9), 4),
    (sphere_model(3, 7), 2), (sphere_model(3, 10), 3), (torus_model(5), 2)])
def test_basis_matches_reference_on_keyed_complexes(x, n):
    for variant in ("exp", "bar"):
        c = keyed_complex(x, n, variant)
        assert_bases_match_reference(c, range(c.top_degree + 1))


def test_basis_matches_reference_on_conjugated_complexes():
    cases = [bar_cochain_complex(3, CoefficientAction("trivial"), 2),
             bar_cochain_complex(3, CoefficientAction("sign"), 2),
             keyed_complex(sphere_model(2, 5), 2, "exp"),
             keyed_complex(torus_model(5), 2, "bar", reduced=True)]
    residues = 0
    for i, c in enumerate(cases):
        for seed in range(3):
            conj = conjugated(c, 100 * i + seed, 2)
            # the reference takes minutes on H_3 of the torus conjugate
            # 302; test_basis_of_conjugated_torus_stays_small covers it
            skip = (3,) if 100 * i + seed == 302 else ()
            assert_bases_match_reference(conj, range(conj.top_degree + 1), skip)
            residues += sum(bool(snf._unit_echelon(conj.out_matrix(k))[2])
                            for k in range(conj.top_degree + 1))
    # the cases reach the residue step of ``kernel_lattice``
    assert residues > 0


def test_basis_of_conjugated_torus_stays_small():
    # The whole-matrix elimination of the reference gives this 24x30
    # differential a kernel basis with 54 495-bit entries and coordinate
    # rows with 4 816-bit entries, and its Smith form of the incoming
    # image in those coordinates then runs for minutes.  The echelon's
    # kernel basis stays within 63 bits.
    c = conjugated(keyed_complex(torus_model(5), 2, "bar", reduced=True), 302, 2)
    kernel, _, coords = kernel_lattice(c.out_matrix(3))
    assert max(abs(v).bit_length() for vec in kernel + coords
               for v in vec.values()) <= 64
    with time_limit(1.5):
        assert_basis(c, 3, homology(c)[3], compare=False)


def test_kernel_lattice_of_bar_coboundary_tracks_only_the_residue(monkeypatch):
    # S_4 trivial: the 12167x529 coboundary leaving degree 2 has a unit
    # echelon of 505 rows, so only the residue on its 24 other columns
    # gets a tracked column transform.  Its 5 352 rows with no +-1 are
    # only 8 up to sign, and keeping every one, with every streamed row,
    # took kernel_lattice to a 12 MB traced peak.
    c = bar_cochain_complex(4, CoefficientAction("trivial"), 2)
    m = c.out_matrix(2)
    with peak_traced() as peak:
        kernel_lattice(m)
    assert peak.mb < 6
    tracked = []
    init = snf._Elimination.__init__

    def record(self, m, track_v):
        if track_v:
            tracked.append((m.rows, m.cols))
        init(self, m, track_v)

    monkeypatch.setattr(snf._Elimination, "__init__", record)
    assert str(homology_basis(c, 2).group) == "Z/2"
    assert c.out_matrix(2).cols == 529
    assert tracked and all(cols < 529 for _, cols in tracked)
    assert all(rows < 100 for rows, _ in tracked)


def assert_transposed_stage(b):
    """The chain factors of b^T equal the reference's chain factors of b
    with a tracked row transform, and V^T.b, V the column transform of
    b^T, has no nonzero row past the rank."""
    res = snf.diagonalize(b.transpose(), chain=True)
    old = snf_reference.diagonalize(b, True, False, chain=True)
    assert res.factors == old.factors
    vtb = res.V.transpose().mul(b)
    assert all(not row for row in vtb.row_dicts()[res.rank:])


def incoming_images(monkeypatch, c, degrees):
    """The b of each degree's second stage, caught from ``homology_basis``."""
    seen = []
    diagonalize = homology_module.diagonalize

    def record(m, chain=False):
        seen.append(m.transpose())
        return diagonalize(m, chain)

    monkeypatch.setattr(homology_module, "diagonalize", record)
    for k in degrees:
        homology_basis(c, k)
    monkeypatch.undo()
    assert len(seen) == len(degrees)
    return seen


def test_transposed_stage_matches_reference_on_random_matrices():
    rng = random.Random(2101)
    for _ in range(60):
        nr, nc = rng.randint(1, 7), rng.randint(1, 7)
        assert_transposed_stage(SparseIntMatrix.from_dense(
            [[rng.choice([0, 0, 0, 1, -1, 2, -3, 4, 6]) for _ in range(nc)]
             for _ in range(nr)]))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("action", ["trivial", "sign"])
def test_transposed_stage_matches_reference_on_bar_images(monkeypatch, n, action):
    c = bar_cochain_complex(n, CoefficientAction(action), 2)
    for b in incoming_images(monkeypatch, c, (1, 2)):
        assert_transposed_stage(b)


@pytest.mark.parametrize("x,n", [
    (sphere_model(2, 5), 2), (sphere_model(2, 7), 3), (sphere_model(3, 7), 2),
    (torus_model(5), 2)])
def test_transposed_stage_matches_reference_on_keyed_images(monkeypatch, x, n):
    for variant in ("exp", "bar"):
        c = keyed_complex(x, n, variant)
        for b in incoming_images(monkeypatch, c, range(c.top_degree + 1)):
            assert_transposed_stage(b)
