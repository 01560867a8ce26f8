"""``ChainComplex.validate`` against the one-``mul_col``-per-column
reference, on sound complexes and on seeded corrupted ones."""

import random

import pytest

import homology_reference as reference
from conftest import conjugated, keyed_cases, simplex_model
from finsub.fncells import fn_cochains
from finsub.groupcoh import CoefficientAction, bar_cochain_complex
from finsub.homology import ChainComplex, normalized_complex
from finsub.snf import SparseIntMatrix
from finsub.subsetspace import DEFAULT_CELL_CEILING as CEILING
from finsub.subsetspace import keyed_complex

VARIANTS = ["exp", "based", "bar", "conf-bar", "conf-based"]


def _bar_complexes():
    for n, maxdeg in ((1, 3), (2, 4), (3, 3), (4, 2)):
        for action in ("trivial", "sign"):
            yield bar_cochain_complex(n, CoefficientAction(action), maxdeg)


def _corrupted(c, seed, changes):
    """``c`` with ``changes`` seeded entries added to, overwritten or
    put where there was none, in random differentials."""
    rng = random.Random(seed)
    boundary = [m.copy() for m in c.boundary]
    live = [k for k, m in enumerate(boundary) if m.rows and m.cols]
    for _ in range(changes):
        m = boundary[rng.choice(live)]
        r, col = rng.randrange(m.rows), rng.randrange(m.cols)
        m.set(r, col, m.get(r, col) + rng.choice([-3, -2, -1, 1, 2, 3]))
    return ChainComplex(c.dims, boundary, reduced=c.reduced, cochain=c.cochain)


@pytest.mark.parametrize("variant", VARIANTS)
def test_validate_matches_reference_on_keyed_complexes(variant):
    for name, x, n in keyed_cases():
        for reduced in (False, True):
            c = keyed_complex(x, n, variant, reduced=reduced)
            assert c.validate() == reference.validate(c) == [], (name, n)


def test_validate_matches_reference_on_bar_and_fox_neuwirth_complexes():
    complexes = list(_bar_complexes())
    complexes += [fn_cochains(n, m, (n - 1) * (m - 1), CEILING)
                  for n, m in ((3, 3), (4, 3), (5, 2))]
    for c in complexes:
        assert c.validate() == reference.validate(c) == []


@pytest.mark.parametrize("seed", range(12))
def test_validate_matches_reference_on_corrupted_complexes(seed):
    sound = [keyed_complex(x, n, "exp", reduced=True)
             for name, x, n in keyed_cases() if name.startswith("S^2")]
    sound += list(_bar_complexes())[2:6]
    sound += [conjugated(fn_cochains(4, 3, 6, CEILING), seed, 2),
              fn_cochains(5, 3, 8, CEILING)]
    found = 0
    for i, c in enumerate(sound):
        bad = _corrupted(c, 1000 * seed + i, 1 + seed % 4)
        got = bad.validate()
        assert got == reference.validate(bad), i
        found += bool(got)
    assert found


def test_validate_names_every_bad_column():
    # d1 . d2 = [2, 0, -1]: columns 0 and 2 of degree 2 fail, column 1 holds
    d1 = SparseIntMatrix.from_dense([[1, -1]])
    d2 = SparseIntMatrix.from_dense([[1, 1, 0], [-1, 1, 1]])
    c = ChainComplex([1, 2, 3], [SparseIntMatrix(0, 1), d1, d2])
    assert c.validate() == reference.validate(c) == [(1, 0), (1, 2)]


def _one_entry_changed(c, j, rng):
    """``c`` with one seeded entry of boundary[j] changed."""
    boundary = [m.copy() for m in c.boundary]
    m = boundary[j]
    r, col = rng.randrange(m.rows), rng.randrange(m.cols)
    m.set(r, col, m.get(r, col) + rng.choice([-2, -1, 1, 3]))
    return ChainComplex(c.dims, boundary, reduced=c.reduced, cochain=c.cochain)


@pytest.mark.parametrize("kind", ["chain", "reduced", "cochain"])
def test_validate_flags_a_changed_entry_where_the_reference_does(kind):
    # boundary[j] meets only the pairs reported at degrees j-1 and j:
    # for a reduced chain complex boundary[0] is the augmentation, met
    # at degree 0 only; for a cochain complex boundary[top] is met at
    # top-1 only, against the zero coboundary past it.
    simplex = simplex_model(3, 4)
    c = {"chain": normalized_complex(simplex),
         "reduced": normalized_complex(simplex, reduced=True),
         "cochain": bar_cochain_complex(3, CoefficientAction("sign"), 3)}[kind]
    assert c.validate() == []
    rng = random.Random(kind)
    for j, m in enumerate(c.boundary):
        if not (m.rows and m.cols):
            continue
        found = 0
        for _ in range(6):
            bad = _one_entry_changed(c, j, rng)
            got = bad.validate()
            assert got == reference.validate(bad), j
            assert {k for k, _ in got} <= {j - 1, j}
            found += bool(got)
        assert found, j
    # the augmentation pair, and the last stored pair with entries:
    # for the cochain complex, the top coboundary
    last = max(j for j, m in enumerate(c.boundary) if m.nnz)
    assert last == c.top_degree or not c.cochain
    changes = [(last, {last - 1})] + ([(0, {0})] if c.reduced else [])
    for j, want in changes:
        bad = _one_entry_changed(c, j, rng)
        assert {k for k, _ in bad.validate()} == want
