"""Relative complexes, connecting blocks and LES checks as restrictions of
one normalized-complex build, against the face loops they replaced
(``homology_reference``)."""

import random

import pytest

import homology_reference as reference
from conftest import make_random_subcomplex
from finsub.homology import (
    _connecting_chains,
    connecting_free_index,
    connecting_map,
    les_check,
    relative_complex,
)
from finsub.simplicial import (
    SimplicialMap,
    identity_map,
    point_model,
    sphere_model,
    torus_model,
)
from finsub.subsetspace import exp, tower


def _same(got, want, case):
    assert (got.dims, got.reduced, got.basis) == \
        (want.dims, want.reduced, want.basis), case
    assert got.boundary == want.boundary, case


def _tower_pairs():
    """(name, x, a, rel) for consecutive stages of bar, based and exp
    towers; ``rel`` is the inclusion one stage further down, if any."""
    for name, x in (("S^1", sphere_model(1, 4)), ("S^2", sphere_model(2, 6)),
                    ("T^2", torus_model(4))):
        for variant in ("bar", "based", "exp"):
            tw = tower(x, 3, variant)
            yield (name, variant, 2), tw.stage(2), tw.inclusions[0], None
            yield (name, variant, 3), tw.stage(3), tw.inclusions[1], \
                tw.inclusions[0]


def _identity_pairs():
    for name, x in (("S^2", sphere_model(2, 4)), ("T^2", torus_model(3)),
                    ("exp S^1", exp(sphere_model(1, 4), 2))):
        yield (name, "identity"), x, identity_map(x), None


def _random_pairs(count=8):
    """Subcomplexes of exp(S^1, 3) drawn as the benchmark's library job
    draws them, from a seeded generator."""
    space = exp(sphere_model(1, 4), 3)
    rng = random.Random(5)
    for i in range(count):
        yield ("random", i), space, make_random_subcomplex(space, rng)[1], None


def _pairs():
    yield from _tower_pairs()
    yield from _identity_pairs()
    yield from _random_pairs()


def test_relative_complex_equals_face_loop():
    for case, x, a, _ in _pairs():
        for maxdeg in (None, 2):
            _same(relative_complex(x, a, maxdeg), reference.relative_complex(
                x, a, maxdeg), (case, maxdeg))


def test_connecting_chains_equal_face_loop():
    for case, x, a, rel in _pairs():
        trunc = min(x.trunc, a.trunc)
        for k in range(1, trunc):
            for r in (None, rel) if rel else (None,):
                src, tgt, block = _connecting_chains(x, a, k, r)
                ref_src, ref_tgt = reference.connecting_complexes(x, a, k, r)
                _same(src, ref_src, (case, k, r))
                _same(tgt, ref_tgt, (case, k, r))
                assert block == reference.connecting_block(
                    x, a, k, ref_src, ref_tgt), (case, k, r)


def _nodes(report):
    return [(n.degree, n.kind, n.betti, n.group, n.rank_in, n.rank_out)
            for n in report.nodes]


@pytest.mark.parametrize("with_torsion", [True, False])
def test_les_check_equals_face_loop(with_torsion):
    pairs = [(case, x, a) for case, x, a, _ in _pairs()]
    pairs.append((("S^2", "empty"), sphere_model(2, 4), None))
    for case, x, a in pairs:
        got = les_check(x, a, with_torsion=with_torsion)
        assert _nodes(got) == _nodes(
            reference.les_check(x, a, with_torsion=with_torsion)), case


def _bad_subspaces():
    """(x, map, reason) for maps that give no relative complex of x."""
    x = sphere_model(2, 4)
    circle, pt = sphere_model(1, 4), point_model(4)
    at = [x.basepoint_at(k) for k in range(5)]
    yield x, identity_map(circle), "does not land"
    yield x, SimplicialMap(point_model(2), x, [[t] for t in at[:3]]), \
        "truncated below"
    yield x, SimplicialMap(circle, x, [[t] * circle.level_size(k)
                                       for k, t in enumerate(at)]), "injective"
    # the point goes to the non-degenerate 2-simplex at level 2 only
    yield x, SimplicialMap(pt, x, [[t if k != 2 else 1]
                                   for k, t in enumerate(at)]), "not closed"


ENTRIES = {
    "relative_complex": lambda x, a: relative_complex(x, a, 4),
    "les_check": lambda x, a: les_check(x, a, 4),
    "connecting_map": lambda x, a: connecting_map(x, a, 3),
    "connecting_free_index": lambda x, a: connecting_free_index(x, a, 3),
}


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_every_entry_point_checks_the_subspace(name):
    for x, a, reason in _bad_subspaces():
        if name.startswith("connecting") and reason == "truncated below":
            reason = "needs truncation"  # the connecting maps' own check
        with pytest.raises(ValueError, match=reason):
            ENTRIES[name](x, a)
