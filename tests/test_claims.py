"""Verification matrix: claim-level behavior beyond the acceptance runs."""

import importlib

import pytest

from cli_runner import CliRunner
from conftest import time_limit
from finsub.claims import CLAIMS, MISMATCH, ParameterError, run_claim
from finsub.cli import main
from finsub.subsetspace import DEFAULT_CELL_CEILING, BudgetError

TORUS_CLAIMS = sorted(name for name, entry in CLAIMS.items() if entry.torus)


def claim(name, n, d=None, space="sphere", budget_nd=8):
    return run_claim(name, n, d, ceiling=DEFAULT_CELL_CEILING,
                     budget_nd=budget_nd, space=space)


def all_match(reports):
    return all(r.verdict == "match" for r in reports)


def test_thm1_even_and_odd():
    assert all_match(claim("thm1", 2, 2))
    assert all_match(claim("thm1", 3, 2))
    assert all_match(claim("thm1", 2, 3))


def test_thm1_rejects_d1():
    with pytest.raises(ValueError):
        claim("thm1", 2, 1)


def test_thm2_d2_all_match():
    for n in (2, 3, 4):
        assert all_match(claim("thm2", n, 2))


def test_thm2_odd_n2_adjudicates_top_degree():
    reports = claim("thm2", 2, 3)
    verdicts = {r.params["r"]: r.verdict for r in reports}
    assert verdicts == {0: "match", 1: "match", 2: "adjudicated"}


def test_thm2a_partial_even():
    assert all_match(claim("thm2a-partial", 3, 2))
    assert all_match(claim("thm2a-partial", 4, 2))


def test_thm2a_needs_n3():
    with pytest.raises(ValueError):
        claim("thm2a-partial", 2, 2)


def test_groupcoh_xcheck_both_sizes():
    assert all_match(claim("groupcoh-xcheck", 2))
    with pytest.raises(ValueError):
        claim("groupcoh-xcheck", 4)


def test_groupcoh_xcheck_n3_torsion_three():
    # strongest cross-module check: H~_7 of the compactified 3-point space
    # of R^3 must be Z + Z/3 with the Z/3 coming out of the bar resolution
    # of S_3 with sign coefficients, through duality
    reports = claim("groupcoh-xcheck", 3, budget_nd=9)
    assert all_match(reports)
    by_r = {r.params["r"]: r for r in reports}
    assert by_r[2].computed == "Z + Z/3"


def test_generaltwo_torus():
    assert all_match(claim("generaltwo", 2, space="torus"))


@pytest.mark.parametrize("n,d", [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_generaltwo_spheres(n, d):
    reports = claim("generaltwo", n, d, budget_nd=max(8, n * d))
    if n == 2 and d % 2:
        # codimension d-1 is the node thm2 adjudicates: H_(d+1) of
        # SP^2(S^d) is 0, where the configuration side has a Z; for d = 1
        # no codimension is left to compare
        assert [r.verdict for r in reports] == \
            ["match"] * (d > 1) + ["adjudicated"]
        assert reports[-1].params["r"] == d - 1
        assert reports[-1].expected["correspondence"] == "Z"
        assert reports[-1].computed == "0"
    else:
        assert all_match(reports) and len(reports) == 1


def test_e1_collapse_small():
    assert all_match(claim("e1-collapse", 2, 2))
    assert all_match(claim("e1-collapse", 2, 3))


def test_e1_collapse_builds_bar_chains_once(monkeypatch):
    # the pages filter the Fox-Neuwirth cells of bar_n, built once, and
    # E^1 is checked against the configuration space of each p <= n
    from finsub import fncells
    built = []

    def counting(name):
        build = getattr(fncells, name)

        def run(n, *args, **kwargs):
            built.append((name, n))
            return build(n, *args, **kwargs)
        return run

    for name in ("_chains", "fn_cochains"):
        monkeypatch.setattr(fncells, name, counting(name))
    assert all_match(claim("e1-collapse", 3, 2))
    assert sorted(built) == [("_chains", 3), ("fn_cochains", 1),
                             ("fn_cochains", 2), ("fn_cochains", 3)]


KEYED_SUBJECTS = ("fn-bar", "fn-conf", "fn-exp", "lemma-quo")


@pytest.fixture
def no_keyed(monkeypatch):
    """Every sphere model and keyed build raises "keyed path"."""
    def keyed(*args, **kwargs):
        raise AssertionError("keyed path")

    for module in ("claims", "cli", "spectral", "subsetspace", "simplicial"):
        module = importlib.import_module(f"finsub.{module}")
        for name in ("keyed_complex", "sphere_model"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, keyed)


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_sphere_claims_build_no_keyed_chains(no_keyed, name):
    # a sphere claim reads the Fox-Neuwirth cells; only the claims whose
    # subject is the keyed model build a sphere model and keyed chains
    entry = CLAIMS[name]
    n, d = max(entry.n[0], 2), entry.default_d or max(entry.d[0], 2)
    if name in KEYED_SUBJECTS:
        with pytest.raises(AssertionError, match="keyed path"):
            claim(name, n, d)
    else:
        assert MISMATCH not in {r.verdict for r in claim(name, n, d)}


@pytest.mark.parametrize("variant", ["exp", "based", "bar"])
def test_sphere_pages_build_no_keyed_chains(no_keyed, variant):
    res = CliRunner().invoke(main, ["page", "--space", "sphere", "--d", "2",
                                    "--n", "3", "--variant", variant])
    assert res.exit_code == 0, res.output
    res = CliRunner().invoke(main, ["page", "--space", "torus", "--n", "2",
                                    "--variant", variant])
    assert str(res.exception) == "keyed path"


def test_connecting_n2():
    assert all_match(claim("connecting", 2, 2))


def test_connecting_n3():
    assert all_match(claim("connecting", 3, 2))


def test_connecting_n4():
    reports = claim("connecting", 4, 2)
    assert all_match(reports)
    assert reports[0].computed == 3


def test_connecting_builds_no_level_tables(monkeypatch):
    from finsub import subsetspace

    def refuse(*args, **kwargs):
        raise AssertionError("a levelwise subset space was built")

    for name in ("exp", "exp_based", "tower", "_table"):
        monkeypatch.setattr(subsetspace, name, refuse)
    for n in (2, 3, 4):
        assert all_match(claim("connecting", n, 2))


def test_torus_only_for_the_claims_that_take_a_space():
    assert TORUS_CLAIMS == ["generaltwo", "lemma-quo"]
    for name in sorted(set(CLAIMS) - set(TORUS_CLAIMS)):
        with pytest.raises(ParameterError, match="runs on spheres only"):
            claim(name, 2, 2, space="torus")
    for name in TORUS_CLAIMS:
        with pytest.raises(ParameterError, match="unknown space 'banana'"):
            claim(name, 1, 2, space="banana")
        assert all_match(claim(name, 1, 2, space="torus"))
        with pytest.raises(ParameterError, match="dimension 2, not -d 3"):
            claim(name, 1, 3, space="torus")


def test_lemma_quo_sphere_needs_d():
    with pytest.raises(ValueError):
        claim("lemma-quo", 2)


def test_unknown_claim():
    with pytest.raises(ValueError, match="unknown claim"):
        claim("nonsense", 2)


def test_budget_nd_guard():
    with pytest.raises(BudgetError):
        claim("thm2", 3, 3)
    # raising the budget turns the same call into a (legitimately) big run;
    # just confirm the guard itself is the only obstacle
    with pytest.raises(BudgetError):
        claim("tuffley-s2", 5, budget_nd=8)


def test_reports_carry_statements_and_provenance():
    for rep in claim("circle", 2):
        assert rep.statement
        assert rep.provenance
        assert rep.wall_time >= 0
        as_json = rep.to_json()
        assert "wall_time_s" not in as_json
        assert as_json["claim"] == "circle"


def test_thm2_reports_share_the_claim_time():
    reports = claim("thm2", 3, 2)
    assert len(reports) == 2
    assert reports[0].wall_time > 0
    assert reports[0].wall_time == reports[1].wall_time


def test_fn_conf_reports_every_degree():
    reports = claim("fn-conf", 3, 3, budget_nd=9)
    assert [r.params["degree"] for r in reports] == list(range(10))
    assert all_match(reports)
    assert {r.params["degree"]: r.computed for r in reports
            if r.computed != "0"} == {7: "Z + Z/3", 8: "Z/2"}
    with pytest.raises(ValueError, match="needs -d"):
        claim("fn-conf", 3)
    with pytest.raises(BudgetError):
        claim("fn-conf", 3, 3)


@pytest.mark.parametrize("name, groups", [
    ("fn-bar", {5: "Z/2", 7: "Z + Z/3", 8: "Z/2"}),
    ("fn-exp", {0: "Z", 5: "Z/2 + Z/2", 7: "Z + Z/3", 8: "Z/2"}),
])
def test_fn_sphere_claims_report_every_degree(name, groups):
    reports = claim(name, 3, 3, budget_nd=9)
    assert [r.params["degree"] for r in reports] == list(range(10))
    assert all_match(reports)
    assert {r.params["degree"]: r.computed for r in reports
            if r.computed != "0"} == groups
    with pytest.raises(ValueError, match="needs -d"):
        claim(name, 3)
    with pytest.raises(BudgetError):
        claim(name, 3, 3)


def _out_of_domain(name):
    """(arguments, kind) of runs just outside the domain of a claim in
    CLAIMS: n and d each one below the least and one above the most,
    and n*dim one over the budget, on the sphere and, where admitted,
    the torus."""
    entry = CLAIMS[name]
    (n, most_n), (d, most_d) = entry.n, entry.d
    runs = [(f"-n {n - 1} -d {d}", "usage"), (f"-n {n} -d {d - 1}", "usage")]
    if most_n is not None:
        runs.append((f"-n {most_n + 1} -d {d}", "usage"))
    if most_d is not None:
        runs.append((f"-n {n} -d {most_d + 1}", "usage"))
    runs.append((f"-n {n} -d {d} --budget-nd {n * d - 1}", "resource"))
    if entry.torus:
        runs.append((f"-n {n} --space torus --budget-nd {2 * n - 1}",
                     "resource"))
    return [(args.split(), kind) for args, kind in runs]


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_out_of_domain_runs_exit_2_before_the_claim_runs(monkeypatch, name):
    def refuse(n, d, opts):
        raise AssertionError(f"{name} ran with n={n}, d={d}")

    monkeypatch.setattr(CLAIMS[name], "run", refuse)
    for args, kind in _out_of_domain(name):
        res = CliRunner().invoke(main, ["verify", name] + args)
        assert res.exit_code == 2, (args, res.output, res.exception)
        errors = [line for line in res.output.splitlines()
                  if line.startswith("Error: ")]
        if kind == "usage":
            assert len(errors) == 1 and f"claim {name!r}" in errors[0], args
        else:
            assert not errors and "resource error: n*d = " in res.output, args


@pytest.mark.parametrize("args, nd", [
    ("lemma-quo -n 5 --space torus", 10),
    ("generaltwo -n 5 --space torus", 10),
    ("circle -n 9", 9),
], ids=["lemma-quo-torus", "generaltwo-torus", "circle"])
def test_budget_covers_the_torus_and_the_circle(args, nd):
    # n*dim, with dim 2 on the torus and 1 on the circle, is refused
    # before any chains are built; these runs take minutes otherwise
    with time_limit(5):
        res = CliRunner().invoke(main, ["verify"] + args.split())
    assert res.exit_code == 2, (res.output, res.exception)
    assert f"resource error: n*d = {nd} exceeds the budget of 8" in res.output
