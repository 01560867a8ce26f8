"""Differential tests for the kernel-lattice stream stopped at a rank bound.

``snf.kernel_lattice(m, bound)`` stops streaming the rows of ``m`` once
the rows streamed so far reach ``bound``.  The integer kernel is
Z^n intersected with the rational kernel, which depends only on the
rational row space, so the stopped stream must give the same lattice as
the full one: the same rank, coordinate rows L with L.K = I, and bases
that lie in each other's lattice with a unimodular change matrix.
``homology_basis`` and ``zigzag_free_index`` take the d.d bound
cols - rank(in_k) on tall differentials; the guards below check that the
bound is passed and that it cuts the S_4 bar stream short.
"""

import random

import pytest

from conftest import conjugated
from finsub import snf
from finsub.groupcoh import CoefficientAction, bar_cochain_complex
from finsub.homology import homology_basis, zigzag_free_index
from finsub.simplicial import sphere_model, torus_model
from finsub.snf import SparseIntMatrix, invariant_factors, kernel_lattice, rank
from finsub.subsetspace import keyed_complex
from subsetspace_reference import keyed_connecting
from test_snf import random_reference_cases, random_sparse


def coordinates(coords, vectors):
    """L.x for the coordinate rows L and each vector x."""
    by_column = {}
    for i, row in enumerate(coords):
        for c, w in row.items():
            by_column.setdefault(c, []).append((i, w))
    out = []
    for vec in vectors:
        x = [0] * len(coords)
        for c, v in vec.items():
            for i, w in by_column.get(c, ()):
                x[i] += w * v
        out.append(x)
    return out


def combine(kernel, weights):
    out = {}
    for w, vec in zip(weights, kernel):
        if not w:
            continue
        for c, v in vec.items():
            nv = out.get(c, 0) + w * v
            if nv:
                out[c] = nv
            else:
                out.pop(c, None)
    return out


def assert_change_is_unimodular(kernel, coords, other):
    """Every vector of ``other`` is an integer combination of ``kernel``,
    read off by ``coords``, and the change matrix is unimodular."""
    change = coordinates(coords, other)
    for weights, vec in zip(change, other):
        assert combine(kernel, weights) == vec
    if change:
        assert invariant_factors(SparseIntMatrix.from_dense(change)) == \
            [1] * len(change)


def assert_stop_keeps_lattice(m, bound):
    full, full_rank, full_coords = kernel_lattice(m)
    stopped, stopped_rank, stopped_coords = kernel_lattice(m, bound)
    assert stopped_rank == full_rank
    assert len(stopped) == len(stopped_coords) == m.cols - stopped_rank
    for vec in stopped:
        assert not m.mul_col(vec)
    for kernel, coords in ((full, full_coords), (stopped, stopped_coords)):
        assert coordinates(coords, kernel) == \
            [[int(i == j) for i in range(len(kernel))] for j in range(len(kernel))]
    assert_change_is_unimodular(stopped, stopped_coords, full)
    assert_change_is_unimodular(full, full_coords, stopped)


def assert_complex(c, degrees=None):
    """The d.d bound in every degree of ``c``, tall or wide."""
    for k in range(c.top_degree + 1) if degrees is None else degrees:
        m = c.out_matrix(k)
        assert_stop_keeps_lattice(m, m.cols - rank(c.in_matrix(k)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("action", ["trivial", "sign"])
def test_stop_keeps_lattice_on_bar_coboundaries(n, action):
    assert_complex(bar_cochain_complex(n, CoefficientAction(action), 2), (1, 2))


@pytest.mark.parametrize("action", ["trivial", "sign"])
def test_stop_keeps_lattice_on_s5_first_coboundary(action):
    assert_complex(bar_cochain_complex(5, CoefficientAction(action), 1), (1,))


@pytest.mark.parametrize("x,n", [
    (sphere_model(2, 5), 2), (sphere_model(2, 7), 3), (sphere_model(2, 9), 4),
    (sphere_model(3, 7), 2), (sphere_model(3, 10), 3), (torus_model(5), 2)])
def test_stop_keeps_lattice_on_keyed_complexes(x, n):
    for variant in ("exp", "bar"):
        assert_complex(keyed_complex(x, n, variant))


def test_stop_keeps_lattice_on_conjugated_complexes():
    cases = [bar_cochain_complex(3, CoefficientAction("trivial"), 2),
             bar_cochain_complex(3, CoefficientAction("sign"), 2),
             keyed_complex(sphere_model(2, 5), 2, "exp"),
             keyed_complex(torus_model(5), 2, "bar", reduced=True)]
    for i, c in enumerate(cases):
        for seed in range(3):
            assert_complex(conjugated(c, 100 * i + seed, 2))


def test_stop_keeps_lattice_on_random_matrices():
    cases = list(random_reference_cases())
    rng = random.Random(4410)
    # tall ones, where the stop can leave rows out
    cases += [random_sparse(rng, rng.randint(20, 60), rng.randint(1, 12), 0.2,
                            [-2, -1, -1, 1, 1, 3]) for _ in range(30)]
    for m in cases:
        assert_stop_keeps_lattice(m, rank(m))


def spy_bounds(monkeypatch):
    """Record (rows, cols, bound) of every ``_unit_echelon`` call."""
    seen = []
    unit_echelon = snf._unit_echelon

    def spy(m, skip_cols=(), bound=None):
        seen.append((m.rows, m.cols, bound))
        return unit_echelon(m, skip_cols, bound)

    monkeypatch.setattr(snf, "_unit_echelon", spy)
    return seen


def expected_bound(c, k):
    """What ``homology_basis`` passes for the kernel of degree k: the
    d.d bound on a tall differential, none on a wide one."""
    m = c.out_matrix(k)
    return m.cols - rank(c.in_matrix(k)) if m.rows > m.cols else None


@pytest.mark.parametrize("c", [
    keyed_complex(sphere_model(2, 7), 3, "exp"),
    keyed_complex(torus_model(5), 2, "bar", reduced=True),
    # degree 3 of the bar complexes lacks its outgoing coboundary
    bar_cochain_complex(4, CoefficientAction("trivial"), 2),
    bar_cochain_complex(4, CoefficientAction("sign"), 2)])
def test_homology_basis_passes_the_bound_in_every_degree(monkeypatch, c):
    degrees = range(c.top_degree + (0 if c.cochain else 1))
    want = {k: expected_bound(c, k) for k in degrees}
    assert any(b is not None for b in want.values())
    seen = spy_bounds(monkeypatch)
    for k in degrees:
        del seen[:]
        homology_basis(c, k)
        m = c.out_matrix(k)
        # the kernel's stream is the last one of the outgoing shape
        kernel_calls = [b for rows, cols, b in seen
                        if (rows, cols) == (m.rows, m.cols)]
        assert kernel_calls[-1] == want[k]


def test_bound_on_the_s4_bar_coboundary_stops_its_stream(monkeypatch):
    c = bar_cochain_complex(4, CoefficientAction("trivial"), 2)
    top = c.out_matrix(2)
    assert (top.rows, top.cols) == (12167, 529)
    seen = spy_bounds(monkeypatch)
    reduce = snf._reduce
    streamed = [0]

    def counting(x, echelon):
        if seen and seen[-1][:2] == (12167, 529):
            streamed[0] += 1
        reduce(x, echelon)

    monkeypatch.setattr(snf, "_reduce", counting)
    assert str(homology_basis(c, 2).group) == "Z/2"
    assert seen[-1] == (12167, 529, 506)
    # each streamed row is reduced once; the rank checks and the final
    # residue pass add a few hundred more
    assert 0 < streamed[0] < 12167 // 4


def test_zigzag_free_index_passes_the_bound(monkeypatch):
    # the connecting claim at n=4, d=2: H_7 of the 4-point quotient onto
    # H_6 of the 3-point one; its relative delta_7 is 330 x 315
    src, tgt, block = keyed_connecting(sphere_model(2, 8), 4, 7)
    m = src.out_matrix(7)
    assert (m.rows, m.cols) == (330, 315)
    seen = spy_bounds(monkeypatch)
    assert zigzag_free_index(src, tgt, block, 7) == 3
    assert [b for rows, cols, b in seen if (rows, cols) == (330, 315)] == \
        [expected_bound(src, 7)] == [315 - rank(src.in_matrix(7))]


@pytest.mark.parametrize("c", [
    keyed_complex(sphere_model(2, 5), 2, "exp"),
    bar_cochain_complex(3, CoefficientAction("sign"), 2)])
def test_homology_basis_refuses_a_degree_out_of_range(c):
    top = c.top_degree
    for k in (-1, top + 1):
        with pytest.raises(ValueError, match=rf"degree must be in 0\.\.{top}, got {k}"):
            homology_basis(c, k)

