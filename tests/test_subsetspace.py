"""Subset-space functors: tables, filtrations, configuration models."""

from itertools import combinations
from math import comb

import pytest

from conftest import (
    bar_reference,
    conf_reference,
    filtered_from_tower,
    keyed_cases,
    random_based_spaces,
    time_limit,
)
from finsub.simplicial import (
    identity_map,
    sphere_model,
    torus_model,
    underlying,
    validate,
)
from finsub.subsetspace import (
    BudgetError,
    exp,
    exp_based,
    keyed_complex,
    tower,
)
from finsub import subsetspace
from finsub.homology import (
    connecting_free_index,
    connecting_map,
    normalized_complex,
    space_homology,
    zigzag_free_index,
    zigzag_map,
)
from finsub.spectral import filtered_complex
from homology_reference import connecting_block, connecting_complexes
from subsetspace_reference import keyed_connecting


BASES = {"S^1": sphere_model(1, 4), "S^2": sphere_model(2, 5),
         "S^3": sphere_model(3, 5), "T^2": torus_model(3),
         **random_based_spaces(4)}


def test_exp_rejects_n_zero():
    with pytest.raises(ValueError):
        exp(sphere_model(1, 2), 0)


def test_exp_one_is_identity_relabeling():
    c = sphere_model(1, 3)
    e1 = exp(c, 1)
    assert underlying(e1) == underlying(c)
    assert e1.basepoint == c.basepoint


def test_exp_level_sizes_formula():
    c = sphere_model(1, 4)
    for n in (1, 2, 3):
        e = exp(c, n)
        for k in range(5):
            m = c.level_size(k)
            assert e.level_size(k) == sum(comb(m, j) for j in range(1, min(n, m) + 1))
    assert exp(c, 2).level_size(2) == 6


def test_exp_sphere2_vertex():
    assert exp(sphere_model(2, 4), 3).level_size(0) == 1


def test_exp_validates():
    assert validate(exp(sphere_model(1, 4), 3)).ok
    assert validate(exp(sphere_model(2, 5), 2)).ok
    assert validate(exp(torus_model(3), 2)).ok


def test_exp_based_counts_and_inclusion():
    c = sphere_model(1, 4)
    based, incl = exp_based(c, 2)
    # subsets of size <= 2 containing the basepoint: {*} plus pairs
    assert based.level_size(2) == 3
    assert incl.is_valid()
    assert incl.is_injective()
    assert validate(based).ok
    assert exp_based(c, 1)[0].levels == [1] * 5


def test_exp_bar_counts():
    c = sphere_model(1, 4)
    bar = tower(c, 2, "bar").stage(2)
    assert bar.level_size(2) == 4  # 6 - 3 collapsed + 1 basepoint
    _, qmap = bar_reference(c, 2)
    assert qmap.is_valid()
    for k in range(5):
        assert set(qmap.maps[k]) == set(range(bar.level_size(k)))


def test_exp_bar_one_keeps_reduced_homology():
    s2 = sphere_model(2, 4)
    bar1 = tower(s2, 1, "bar").stage(1)
    assert space_homology(bar1, reduced=True, maxdeg=3) == \
        space_homology(s2, reduced=True, maxdeg=3)


def test_exp_bar_s2_two_top_class():
    bar = tower(sphere_model(2, 5), 2, "bar").stage(2)
    h = space_homology(bar, reduced=True)
    assert [str(g) for g in h] == ["0", "0", "0", "0", "Z"]


def test_conf_plus_point_is_sphere():
    cp = conf_reference(sphere_model(2, 3), 1, "based")
    assert [str(g) for g in space_homology(cp, reduced=True)] == ["0", "0", "Z"]


@pytest.mark.parametrize("n,d", [(1, 2), (2, 2), (1, 3), (2, 3)])
def test_conf_plus_models_agree(n, d):
    base = sphere_model(d, n * d + 1)
    ha = space_homology(conf_reference(base, n, "based"), reduced=True)
    hb = space_homology(conf_reference(base, n, "bar"), reduced=True)
    assert ha == hb


def test_conf_plus_two_in_plane():
    cp = conf_reference(sphere_model(2, 5), 2, "bar")
    h = space_homology(cp, reduced=True)
    assert [str(g) for g in h] == ["0", "0", "0", "Z", "Z"]


def test_tower_inclusions_validate():
    tw = tower(sphere_model(2, 5), 3, "bar", trunc=5)
    assert tw.n == 3
    for incl in tw.inclusions:
        assert incl.is_valid()
        assert incl.is_injective()
    for space in tw.spaces:
        assert validate(space).ok


@pytest.fixture(scope="module", params=["exp", "based", "bar"])
def grid_towers(request):
    """The 4-point towers of BASES in one variant, shared by the tests
    that read them (pytest groups those tests by variant)."""
    return {name: tower(x, 4, request.param) for name, x in BASES.items()}


def test_tower_composition_functorial(grid_towers):
    # inclusion(i, j) is read off the kept simplices; it must be the
    # composite of the consecutive inclusions, the identity when i = j
    for name, tw in sorted(grid_towers.items()):
        for i in range(1, 5):
            composed = identity_map(tw.stage(i))
            for j in range(i, 5):
                if j > i:
                    composed = composed.compose(tw.inclusions[j - 2])
                direct = tw.inclusion(i, j)
                assert (direct.source, direct.target) == (tw.stage(i), tw.stage(j))
                assert direct.maps == composed.maps, (name, i, j)


def test_tower_stages_are_smaller_towers(grid_towers):
    # stage k of an n-tower is restricted from the top stage; it must be
    # the top stage of the k-tower, and exp(x, k) or exp_based(x, k)
    for name, tw in sorted(grid_towers.items()):
        x, variant = BASES[name], tw.variant
        alone = {"exp": lambda k: exp(x, k),
                 "based": lambda k: exp_based(x, k)[0]}.get(variant)
        for k in range(1, 5):
            if k < 4:
                assert tw.stage(k) == tower(x, k, variant).stage(k), (name, k)
            if alone:
                assert tw.stage(k) == alone(k), (name, k)


@pytest.mark.parametrize("variant", ["exp", "based", "bar"])
def test_tower_level_sizes_weakly_increase(variant):
    tw = tower(sphere_model(2, 5), 3, variant)
    for a, b in zip(tw.spaces, tw.spaces[1:]):
        for k in range(a.trunc + 1):
            assert a.level_size(k) <= b.level_size(k)


def test_tower_filtration_property():
    # faces and degeneracies of a lower stage, computed upstairs, stay in
    # the lower stage's image: exactly the nested-tables property
    tw = tower(sphere_model(1, 4), 3, "exp")
    big = tw.spaces[2]
    incl = tw.inclusion(2, 3)
    img = [set(incl.maps[k]) for k in range(big.trunc + 1)]
    for k in range(1, big.trunc + 1):
        for i in range(k + 1):
            for s in img[k]:
                assert big.face(k, i, s) in img[k - 1]
    for k in range(big.trunc):
        for j in range(k + 1):
            for s in img[k]:
                assert big.degeneracy(k, j, s) in img[k + 1]


def test_budget_guard():
    with pytest.raises(BudgetError, match="ceiling"):
        exp(sphere_model(2, 9), 4, ceiling=1000)


def test_based_tables_are_admitted_on_the_full_count():
    # level 4 of the circle has 5 simplices: 15 subsets of at most 2, of
    # which 5 hold the basepoint
    c = sphere_model(1, 4)
    assert exp_based(c, 2, ceiling=15)[0].level_size(4) == 5
    with pytest.raises(BudgetError, match="15 simplices at level 4"):
        exp_based(c, 2, ceiling=14)
    with pytest.raises(BudgetError, match="15 simplices at level 4"):
        tower(c, 2, "based", ceiling=14)


def test_default_ceiling_refuses_before_listing_keys():
    # 37 simplices at level 9 have 510 415 subsets of at most 5 elements
    # (4 216 422 at level 11), over the default cell ceiling
    with time_limit(2):
        with pytest.raises(BudgetError, match="510415 simplices at level 9"):
            exp(sphere_model(2, 11), 5)


def test_trunc_validation():
    with pytest.raises(ValueError):
        exp(sphere_model(1, 3), 2, trunc=5)


# -- key filters against the quotient constructions they replace -------------

@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(BASES))
def test_key_filters_match_quotients(name, n):
    x = BASES[name]
    assert exp(x, 1) == x  # the basepoint singleton is the basepoint
    # bar-tower stage k is exp(x, k) / exp_based(x, k), structure maps and
    # basepoint; its inclusions are the maps that the reference quotient
    # maps induce from the exp tower's inclusions
    bars = tower(x, n, "bar")
    qmaps = []
    for k in range(1, n + 1):
        ref, qmap = bar_reference(x, k)
        assert bars.stage(k) == ref
        qmaps.append(qmap)
    exps = tower(x, n, "exp")
    for k, incl in enumerate(bars.inclusions):
        for lev, mp in enumerate(exps.inclusions[k].maps):
            induced = {}
            for s, t in enumerate(mp):
                image = qmaps[k + 1].maps[lev][t]
                assert induced.setdefault(qmaps[k].maps[lev][s], image) == image
            assert incl.maps[lev] == [induced[c] for c in range(len(induced))]


# -- keyed chains against the normalized chains of the level tables ----------

LEVELWISE = {
    "exp": lambda x, n: exp(x, n),
    "based": lambda x, n: exp_based(x, n)[0],
    "bar": lambda x, n: bar_reference(x, n)[0],
    "conf-bar": lambda x, n: conf_reference(x, n, "bar"),
    "conf-based": lambda x, n: conf_reference(x, n, "based"),
}

FILTERS = {"exp": lambda n: (1, n, "any"), "based": lambda n: (1, n, "contains"),
           "bar": lambda n: (1, n, "avoids"), "conf-bar": lambda n: (n, n, "avoids"),
           "conf-based": lambda n: (n + 1, n + 1, "contains")}


def _table_keys(x, k, variant, n):
    """Keys of the level-k table in table order: lexicographic, after the
    collapsed basepoint of a filter that is not closed under faces."""
    lo, hi, rule = FILTERS[variant](n)
    bp = x.basepoint_at(k)
    keys = sorted(s for j in range(lo, hi + 1)
                  for s in combinations(range(x.level_size(k)), j)
                  if rule == "any" or (bp in s) == (rule == "contains"))
    return ([()] if rule == "avoids" or lo > 1 else []) + keys


@pytest.mark.parametrize("variant", sorted(LEVELWISE))
def test_keyed_complex_matches_levelwise(variant):
    for name, x, n in keyed_cases():
        space = LEVELWISE[variant](x, n)
        for reduced in (False, True):
            ref = normalized_complex(space, reduced=reduced)
            got = keyed_complex(x, n, variant, reduced=reduced)
            assert (got.dims, got.reduced) == (ref.dims, ref.reduced), (name, n)
            assert got.boundary == ref.boundary, (name, n, reduced)
        for k, cells in enumerate(ref.basis):
            table = _table_keys(x, k, variant, n)
            assert got.basis[k] == [table[s] for s in cells], (name, n, k)


@pytest.mark.parametrize("variant", ["exp", "based", "bar"])
def test_keyed_filtration_matches_tower(variant):
    bases = [(sphere_model(2, 7), 3), (sphere_model(3, 7), 2),
             (torus_model(5), 2)]
    bases += [(x, 3) for x in random_based_spaces(2).values()]
    for x, n in bases:
        ref = filtered_from_tower(tower(x, n, variant))
        got = filtered_complex(x, n, variant)
        assert (got.dims, got.filt, got.n) == (ref.dims, ref.filt, ref.n)
        assert got.boundary == ref.boundary


def _covers(k, d, m):
    """Covers of {1..k} by at most m distinct d-subsets, by
    inclusion-exclusion over the points left uncovered."""
    return sum((-1) ** j * comb(k, j)
               * sum(comb(comb(k - j, d), i) for i in range(1, m + 1))
               for j in range(k + 1))


@pytest.mark.parametrize("d, n", [(1, 2), (1, 3), (2, 2), (2, 3), (2, 4),
                                  (3, 2), (3, 3), (4, 2)])
def test_keyed_sphere_cells_match_closed_form(d, n):
    # a non-degenerate level-k key of the sphere model is a cover of
    # {1..k} by at most n base d-simplices, plus the basepoint for at
    # most n-1 of them
    dims = keyed_complex(sphere_model(d, n * d + 1), n, "exp").dims
    assert dims[1:] == [_covers(k, d, n) + _covers(k, d, n - 1)
                        for k in range(1, len(dims))]


def test_keyed_ceiling_counts_nondegenerate_cells():
    x = sphere_model(2, 7)
    most = max(keyed_complex(x, 3).dims)
    assert keyed_complex(x, 3, ceiling=most).dims == keyed_complex(x, 3).dims
    with pytest.raises(BudgetError, match=f"{most} non-degenerate cells in degree"):
        keyed_complex(x, 3, ceiling=most - 1)


def test_keyed_complex_rejects_bad_arguments():
    x = sphere_model(1, 3)
    with pytest.raises(ValueError):
        keyed_complex(x, 0)
    with pytest.raises(ValueError):
        keyed_complex(x, 2, "conf")


# -- keyed connecting maps against the levelwise bar tower -------------------

def _connecting_cases():
    for n, k in ((2, 3), (3, 4), (3, 5), (4, 7)):
        yield "S^2", sphere_model(2, k + 1), n, k
    for n in (2, 3, 4):
        yield "S^1", sphere_model(1, n + 1), n, n
    yield "T^2", torus_model(4), 2, 3
    # several vertices, so that degree 0 of the n=2 target is reached
    for name, x in random_based_spaces(2).items():
        for n in (2, 3):
            for k in (1, 2):
                yield name, x, n, k


def _same_chains(x, n, got, ref):
    """Keyed chains equal levelwise ones of bar stage n in the levelwise
    degrees: dims, boundaries and basis keys in order."""
    top = len(ref.dims)
    assert (got.dims[:top], got.reduced) == (ref.dims, ref.reduced)
    assert got.boundary[:top] == ref.boundary
    for lev, cells in enumerate(ref.basis):
        table = _table_keys(x, lev, "bar", n)
        assert got.basis[lev] == [table[s] for s in cells]


def test_keyed_connecting_matches_levelwise():
    for name, x, n, k in _connecting_cases():
        tw = tower(x, n, "bar")
        top, sub = tw.stage(n), tw.inclusions[n - 2]
        rel = tw.inclusions[n - 3] if n > 2 else None
        ref_src, ref_tgt = connecting_complexes(top, sub, k, rel)
        ref_block = connecting_block(top, sub, k, ref_src, ref_tgt)
        src, tgt, block = keyed_connecting(x, n, k)
        case = (name, n, k)
        _same_chains(x, n, src, ref_src)
        _same_chains(x, n - 1, tgt, ref_tgt)
        assert block == ref_block, case
        assert zigzag_map(src, tgt, block, k) == connecting_map(
            top, sub, k, rel), case
        try:
            want = connecting_free_index(top, sub, k, rel)
        except ValueError as exc:  # the target free part is not of rank 1
            with pytest.raises(ValueError, match=str(exc)):
                zigzag_free_index(src, tgt, block, k)
        else:
            assert zigzag_free_index(src, tgt, block, k) == want, case


def test_keyed_connecting_missing_target_key_is_an_engine_fault(monkeypatch):
    enumerate_level = subsetspace._level_keys

    def lossy(masks, k, *rest):
        keys = enumerate_level(masks, k, *rest)
        if k == 4:  # the target of the n=3 map loses a degree-4 key
            keys.remove(max(key for key in keys if len(key) == 2))
        return keys

    monkeypatch.setattr(subsetspace, "_level_keys", lossy)
    with pytest.raises(RuntimeError, match="not enumerated"):
        keyed_connecting(sphere_model(2, 6), 3, 5)


def test_keyed_connecting_builds_bar_chains_once(monkeypatch):
    calls = []
    build = subsetspace.keyed_complex

    def counting(*args, **kwargs):
        calls.append(args[2:])
        return build(*args, **kwargs)

    monkeypatch.setattr(subsetspace, "keyed_complex", counting)
    for n, k in ((2, 3), (3, 5)):
        calls.clear()
        keyed_connecting(sphere_model(2, k + 1), n, k)
        assert calls == [("bar",)], (n, k)


def test_keyed_connecting_rejects_bad_arguments():
    with pytest.raises(ValueError):
        keyed_connecting(sphere_model(2, 6), 1, 5)
    with pytest.raises(ValueError):
        keyed_connecting(sphere_model(2, 6), 2, 0)
    with pytest.raises(ValueError, match="truncation"):
        keyed_connecting(sphere_model(2, 5), 2, 5)
