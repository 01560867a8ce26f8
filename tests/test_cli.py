"""Command-line surface: flags, exit codes, JSON determinism, cache."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cli_runner import CliRunner
from conftest import time_limit

from finsub.cli import main
from finsub.simplicial import save_space, sphere_model
from finsub.snf import SparseIntMatrix


@pytest.fixture
def runner():
    return CliRunner()


def groups_of(payload):
    return {g["degree"]: (g["rank"], tuple(g["torsion"]))
            for g in payload["groups"]}


def test_version_needs_no_installed_metadata(runner):
    import finsub
    res = runner.invoke(main, ["--version"])
    assert res.exit_code == 0, res.output
    assert res.output == f"finsub, version {finsub.__version__}\n"


def test_homology_circle_three(runner):
    res = runner.invoke(main, ["homology", "--space", "sphere", "--d", "1",
                               "--n", "3"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert groups_of(payload) == {0: (1, ()), 1: (0, ()), 2: (0, ()), 3: (1, ())}


def test_homology_symmetric_square_s2(runner):
    res = runner.invoke(main, ["homology", "--space", "sphere", "--d", "2",
                               "--n", "2"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert groups_of(payload) == {0: (1, ()), 1: (0, ()), 2: (1, ()),
                                  3: (0, ()), 4: (1, ())}


def test_homology_based_construction(runner):
    # subsets of size <= 2 containing the basepoint form a copy of the
    # base sphere
    res = runner.invoke(main, ["homology", "--space", "sphere", "--d", "2",
                               "--n", "2", "--construction", "based"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["reduced"] is False
    assert groups_of(payload) == {0: (1, ()), 1: (0, ()), 2: (1, ()),
                                  3: (0, ()), 4: (0, ())}


def test_homology_rational_coeffs(runner):
    res = runner.invoke(main, ["homology", "--space", "sphere", "--d", "2",
                               "--n", "3", "--coeffs", "Q", "--max-degree", "6"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["coeffs"] == "Q"
    assert groups_of(payload) == {0: (1, ()), 1: (0, ()), 2: (0, ()),
                                  3: (0, ()), 4: (1, ()), 5: (0, ()),
                                  6: (1, ())}


def test_homology_conf_point(runner):
    res = runner.invoke(main, ["homology", "--space", "sphere", "--d", "2",
                               "--n", "1", "--construction", "conf"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["reduced"] is True
    assert groups_of(payload) == {0: (0, ()), 1: (0, ()), 2: (1, ())}


def test_homology_deterministic_output(runner, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        res = runner.invoke(main, ["homology", "--space", "sphere", "--d", "2",
                                   "--n", "2", "--construction", "bar",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
    assert out1.read_bytes() == out2.read_bytes()


def test_homology_usage_errors(runner):
    assert runner.invoke(main, ["homology", "--n", "2"]).exit_code == 2
    assert runner.invoke(main, ["homology", "--space", "nowhere", "--n", "2"]
                         ).exit_code == 2
    assert runner.invoke(main, ["homology", "--space", "sphere", "--d", "1",
                                "--n", "0"]).exit_code == 2


def test_homology_rejects_negative_max_degree(runner):
    args = ["homology", "--space", "sphere", "--d", "2", "--n", "2"]
    res = runner.invoke(main, args + ["--max-degree", "-3"])
    assert res.exit_code == 2
    assert "--max-degree must be >= 0" in res.output
    res = runner.invoke(main, args + ["--max-degree", "0"])
    assert res.exit_code == 0, res.output
    assert groups_of(json.loads(res.output)) == {0: (1, ())}


@pytest.mark.parametrize("space", [["--space", "sphere", "--d", "2", "--n", "2"],
                                   ["--space", "torus", "--n", "1"]])
def test_homology_rejects_trunc_without_trusted_degree(runner, space):
    res = runner.invoke(main, ["homology", *space, "--trunc", "0"])
    assert res.exit_code == 2
    assert "--trunc must be >= 1" in res.output
    res = runner.invoke(main, ["homology", *space, "--trunc", "1"])
    assert res.exit_code == 0, res.output
    assert groups_of(json.loads(res.output)) == {0: (1, ())}


@pytest.mark.parametrize("space", [["--space", "sphere", "--d", "2", "--n", "2"],
                                   ["--space", "torus", "--n", "2"]])
def test_page_rejects_trunc_without_trusted_degree(runner, space):
    res = runner.invoke(main, ["page", *space, "--trunc", "0"])
    assert res.exit_code == 2
    errors = [line for line in res.output.splitlines() if line.startswith("Error")]
    assert len(errors) == 1 and "--trunc must be >= 1" in errors[0]
    res = runner.invoke(main, ["page", *space, "--trunc", "1"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["pages"]


@pytest.mark.parametrize("args", [
    ["homology", "--space", "sphere", "--d", "2", "--n", "2"],
    ["verify", "thm2", "-n", "2", "-d", "2"],
    ["groupcoh", "-n", "3", "--max-degree", "1"],
    ["page", "--space", "sphere", "--d", "2", "--n", "2"],
])
@pytest.mark.parametrize("where", ["no such folder", "a folder"])
def test_unwritable_out_is_refused_before_any_work(runner, monkeypatch, tmp_path,
                                                   args, where):
    def no_work(*args, **kwargs):
        raise AssertionError("the job ran before --out was checked")

    cli_module = importlib.import_module("finsub.cli")
    for name in ("keyed_complex", "sphere_homology", "run_claim",
                 "duality_cochains", "filtered_complex", "filtration"):
        monkeypatch.setattr(cli_module, name, no_work)
    out = tmp_path / "missing" / "x.json" if where == "no such folder" else tmp_path
    res = runner.invoke(main, args + ["--out", str(out)])
    assert res.exit_code == 2, res.output
    errors = [line for line in res.output.splitlines() if line.startswith("Error")]
    assert len(errors) == 1 and "'--out'" in errors[0]
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("args, option", [
    (["homology", "--space", "sphere", "--d", "2", "--n", "2"], "--ceiling"),
    (["page", "--space", "sphere", "--d", "2", "--n", "2"], "--ceiling"),
    (["verify", "lemma-quo", "-n", "1", "-d", "2"], "--ceiling"),
    (["verify", "lemma-quo", "-n", "1", "-d", "2"], "--budget-nd"),
    (["groupcoh", "-n", "3", "--max-degree", "1"], "--ceiling"),
])
def test_negative_budget_is_a_usage_error(runner, args, option):
    res = runner.invoke(main, args + [option, "-1"])
    assert res.exit_code == 2
    assert f"{option} must be >= 0" in res.output
    assert "resource error" not in res.output


def test_homology_rejects_unbased_file(runner, tmp_path):
    import json as _json
    from finsub.simplicial import space_to_json, product, sphere_model as sm
    unbased = product(sm(1, 2), sm(1, 2))  # plain space, no basepoint field
    path = tmp_path / "unbased.json"
    path.write_text(_json.dumps(space_to_json(unbased)))
    res = runner.invoke(main, ["homology", "--space", f"file:{path}", "--n", "2"])
    assert res.exit_code == 2
    assert "basepoint" in res.output


def test_homology_budget_breach(runner):
    # the Fox-Neuwirth cells of exp_4(S^2) weigh 13 in degree 6, the most
    # of any degree: 2 for the 3-point cell, 3 for each of the three
    # 4-point cells, and 2 for the marked 3-point cell, counted last
    args = ["homology", "--space", "sphere", "--d", "2", "--n", "4",
            "--ceiling"]
    assert runner.invoke(main, args + ["13"]).exit_code == 0
    res = runner.invoke(main, args + ["12"])
    assert res.exit_code == 2
    assert ("resource error: exp_4(S^2), degree 6, marked cells of 3 points: "
            "Fox-Neuwirth chains pass 1 cells in codimension 0; at 2 per "
            "cell, one per separator, that is 2, and 13 with the cells "
            "counted before them, over the ceiling of 12") in res.output


def test_homology_from_file(runner, tmp_path):
    path = tmp_path / "circle.json"
    save_space(sphere_model(1, 3), str(path))
    res = runner.invoke(main, ["homology", "--space", f"file:{path}",
                               "--n", "2"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert groups_of(payload)[1] == (1, ())


def test_homology_from_file_with_trunc_cut(runner, tmp_path):
    path = tmp_path / "circle.json"
    save_space(sphere_model(1, 4), str(path))
    res = runner.invoke(main, ["homology", "--space", f"file:{path}",
                               "--n", "2", "--trunc", "3"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert max(groups_of(payload)) == 2  # trusted range shrank with trunc


@pytest.mark.parametrize("command", ["homology", "page"])
def test_trunc_above_the_space_file_is_a_usage_error(runner, tmp_path, command):
    path = tmp_path / "circle.json"
    save_space(sphere_model(1, 3), str(path))
    args = [command, "--space", f"file:{path}", "--n", "2"]
    res = runner.invoke(main, args + ["--trunc", "7"])
    assert res.exit_code == 2, res.output
    errors = [line for line in res.output.splitlines() if line.startswith("Error")]
    assert errors == ["Error: --trunc 7 exceeds the space file's truncation 3"]
    res = runner.invoke(main, args + ["--trunc", "3"])
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("command", ["homology", "page"])
@pytest.mark.parametrize("where, value, field", [
    (("levels", 0), "1", "levels"),
    (("levels", 0), True, "levels"),
    (("faces", 0), 7, "faces"),
    (("faces", 1, 0), 7, "faces"),
    (("faces", 1, 0, 0), "0", "faces"),
    (("faces", 1, 0, 0), False, "faces"),
    (("degeneracies", 0, 0, 0), 0.0, "degeneracies"),
], ids=["size-str", "size-bool", "level-int", "map-int", "index-str",
        "index-bool", "index-float"])
def test_mistyped_space_file_is_a_usage_error(runner, tmp_path, command,
                                               where, value, field):
    path = tmp_path / "circle.json"
    save_space(sphere_model(1, 3), str(path))
    data = json.loads(path.read_text())
    *outer, last = where
    holder = data
    for key in outer:
        holder = holder[key]
    holder[last] = value
    path.write_text(json.dumps(data))
    res = runner.invoke(main, [command, "--space", f"file:{path}", "--n", "2"])
    assert res.exit_code == 2, res.output
    errors = [line for line in res.output.splitlines() if line.startswith("Error")]
    assert len(errors) == 1 and f"field '{field}'" in errors[0], errors


@pytest.mark.parametrize("labels", [[["*"], ["*", "01"]], 7])
def test_space_file_labels_are_ignored(runner, tmp_path, labels):
    path = tmp_path / "circle.json"
    save_space(sphere_model(1, 3), str(path))
    plain = path.read_text()
    assert "labels" not in json.loads(plain)
    labelled = json.dumps(dict(json.loads(plain), labels=labels))
    for trunc in ([], ["--trunc", "2"]):
        outputs = []
        for text in (plain, labelled):
            path.write_text(text)
            res = runner.invoke(main, ["homology", "--space", f"file:{path}",
                                       "--n", "2", *trunc])
            assert res.exit_code == 0, res.output
            outputs.append(res.output)
        assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["homology", "page"])
def test_d_is_refused_for_a_space_file(runner, tmp_path, command):
    path = tmp_path / "circle.json"
    save_space(sphere_model(1, 3), str(path))
    res = runner.invoke(main, [command, "--space", f"file:{path}", "--d", "7",
                               "--n", "1"])
    assert res.exit_code == 2, res.output
    errors = [line for line in res.output.splitlines() if line.startswith("Error")]
    assert errors == ["Error: --d applies to --space sphere and torus, "
                      "not to a space file"]


@pytest.mark.parametrize("command", ["homology", "page"])
def test_torus_takes_d_two(runner, command):
    res = runner.invoke(main, [command, "--space", "torus", "--d", "2",
                               "--n", "1"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["d"] == 2


def test_homology_cache_roundtrip(runner, tmp_path):
    cache_dir = tmp_path / "cache"
    args = ["homology", "--space", "torus", "--n", "2",
            "--cache-dir", str(cache_dir)]
    res1 = runner.invoke(main, args)
    assert res1.exit_code == 0, res1.output
    stats = runner.invoke(main, ["cache", "stats", "--cache-dir", str(cache_dir)])
    assert json.loads(stats.output)["entries"] > 0
    res2 = runner.invoke(main, args)
    assert res2.output == res1.output
    cleared = runner.invoke(main, ["cache", "clear", "--cache-dir", str(cache_dir)])
    assert json.loads(cleared.output)["removed"] > 0
    stats2 = runner.invoke(main, ["cache", "stats", "--cache-dir", str(cache_dir)])
    assert json.loads(stats2.output) == {"entries": 0, "bytes": 0}


def test_homology_tampered_cache_entry_is_recomputed(runner, tmp_path):
    cache_dir = tmp_path / "cache"
    args = ["homology", "--space", "torus", "--n", "2",
            "--cache-dir", str(cache_dir)]
    first = runner.invoke(main, args)
    assert first.exit_code == 0, first.output
    paths = {int(p.stem.rsplit("-d", 1)[1]): p for p in cache_dir.glob("*.json")}
    stored = {k: json.loads(p.read_text()) for k, p in paths.items()}
    # change one entry of d_k in a column that d_{k+1} hits, so d.d != 0
    k, i = next((k, i) for k in sorted(stored) if k + 1 in stored
                for i, (_, col, _) in enumerate(stored[k]["triplets"])
                if any(r == col for r, _, _ in stored[k + 1]["triplets"]))
    original = paths[k].read_text()
    tampered = json.loads(original)
    tampered["triplets"][i][2] += 1
    paths[k].write_text(json.dumps(tampered))
    again = runner.invoke(main, args)
    assert again.exit_code == 0, again.output
    assert again.output == first.output
    assert paths[k].read_text() == original  # recomputed and overwritten


def test_cache_clear_and_stats_touch_only_cache_files(runner, tmp_path,
                                                     monkeypatch):
    from finsub import cache as cache_mod
    args = ["homology", "--space", "torus", "--n", "2",
            "--cache-dir", str(tmp_path)]
    assert runner.invoke(main, args).exit_code == 0
    entries = {p.name: p.stat().st_size for p in tmp_path.iterdir()}
    # a write that never reached its rename leaves the cache's temp file
    monkeypatch.setattr(cache_mod.os, "replace", lambda src, dst: None)
    cache_mod.BoundaryCache(str(tmp_path)).put("0" * 64, 0,
                                              SparseIntMatrix.identity(2))
    monkeypatch.undo()
    leftover = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
    assert len(leftover) == 1
    foreign = ["notes.json", "notes.tmp", ("a" * 64) + "-d1.json.bak",
               ("A" * 64) + "-d0.json"]
    for name in foreign:
        (tmp_path / name).write_text("{}")
    stats = runner.invoke(main, ["cache", "stats", "--cache-dir", str(tmp_path)])
    assert json.loads(stats.output) == {"entries": len(entries),
                                        "bytes": sum(entries.values())}
    cleared = runner.invoke(main, ["cache", "clear", "--cache-dir", str(tmp_path)])
    assert json.loads(cleared.output)["removed"] == len(entries) + 1
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(foreign)


MALFORMED_ENTRIES = {
    "top-level list": [],
    "triplet outside the shape": {"rows": 2, "cols": 2, "triplets": [[2, 0, 1]]},
    "bare int triplet": {"rows": 2, "cols": 2, "triplets": [5]},
    "short triplet": {"rows": 2, "cols": 2, "triplets": [[0, 1]]},
    "non-int value": {"rows": 2, "cols": 2, "triplets": [[0, 1, 1.5]]},
    "negative shape": {"rows": -1, "cols": 2, "triplets": []},
    "string shape": {"rows": "2", "cols": 2, "triplets": []},
    "missing triplets": {"rows": 2, "cols": 2},
}


@pytest.mark.parametrize("data", MALFORMED_ENTRIES.values(),
                         ids=MALFORMED_ENTRIES.keys())
def test_malformed_cache_entry_is_a_miss(tmp_path, data):
    from finsub.cache import BoundaryCache
    cache = BoundaryCache(str(tmp_path))
    key = "f" * 64
    cache.put(key, 0, SparseIntMatrix.identity(2))
    assert cache.get(key, 0) == SparseIntMatrix.identity(2)
    (tmp_path / f"{key}-d0.json").write_text(json.dumps(data))
    assert cache.get(key, 0) is None


@pytest.mark.parametrize("data", MALFORMED_ENTRIES.values(),
                         ids=MALFORMED_ENTRIES.keys())
def test_homology_recomputes_a_malformed_cache_entry(runner, tmp_path, data):
    args = ["homology", "--space", "torus", "--n", "2",
            "--cache-dir", str(tmp_path)]
    first = runner.invoke(main, args)
    assert first.exit_code == 0, first.output
    entry = next(tmp_path.glob("*-d3.json"))
    original = entry.read_text()
    entry.write_text(json.dumps(data))
    again = runner.invoke(main, args)
    assert again.exit_code == 0, again.output
    assert again.output == first.output
    assert entry.read_text() == original  # recomputed and overwritten


def test_homology_cache_keys_are_pinned(runner, tmp_path):
    # entries written by earlier releases must still hit
    key = "856af28c45a19bd6baa74dbe3ee538cc3dd502270eadd7c75b78084f41ab62a6"
    res = runner.invoke(main, ["homology", "--space", "torus", "--n", "2",
                               "--cache-dir", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        [f"{key}-d{k}.json" for k in range(6)]


@pytest.mark.parametrize("construction, model", [
    ("expn", "based"), ("based", "based"), ("bar", "based"), ("conf", "based"),
    ("conf", "bar")])
def test_sphere_homology_builds_no_keyed_chains(runner, monkeypatch, tmp_path,
                                                construction, model):
    # a sphere job reads the Fox-Neuwirth cells: no sphere model, no keyed
    # chains and no cache, even with a cache directory; a torus job still
    # builds keyed chains through the cache
    def keyed(*args, **kwargs):
        raise AssertionError("keyed path")

    cli_module = importlib.import_module("finsub.cli")
    monkeypatch.setattr(cli_module, "keyed_complex", keyed)
    monkeypatch.setattr(importlib.import_module("finsub.simplicial"),
                        "sphere_model", keyed)
    monkeypatch.setattr(cli_module.cache_mod, "BoundaryCache", keyed)
    res = runner.invoke(main, ["homology", "--space", "sphere", "--d", "3",
                               "--n", "3", "--construction", construction,
                               "--model", model, "--cache-dir", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert not list(tmp_path.iterdir())
    for cache in ([], ["--cache-dir", str(tmp_path)]):
        res = runner.invoke(main, ["homology", "--space", "torus", "--n", "2",
                                   "--construction", construction,
                                   "--model", model] + cache)
        assert isinstance(res.exception, AssertionError)
        assert str(res.exception) == "keyed path"


def _fresh_interpreter(script, *args):
    """The last stderr line of a fresh interpreter that runs ``script``
    with ``args``, the package on its path and no cache directory set."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {k: v for k, v in os.environ.items() if k != "FINSUB_CACHE_DIR"}
    env["PYTHONPATH"] = str(src)
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    return done.stderr.splitlines()[-1]


def _loads_hashlib(*jobs):
    """Whether a fresh interpreter that runs ``jobs`` through the CLI ends
    up with ``_hashlib`` (and so OpenSSL's libcrypto) loaded."""
    script = ("import sys\nfrom finsub.cli import main\n"
              "for job in sys.argv[1:]:\n"
              "    main(job.split())\n"
              "sys.stderr.write(str('_hashlib' in sys.modules))\n")
    return _fresh_interpreter(script, *jobs) == "True"


def test_jobs_without_a_cache_never_load_hashlib(tmp_path):
    # a sphere job builds no keyed chains, so a cache directory leaves it
    # without hashlib too
    sphere = "homology --space sphere --d 2 --n 2"
    jobs = ["groupcoh -n 3 --max-degree 1", sphere,
            f"{sphere} --cache-dir {tmp_path}", "homology --space torus --n 2"]
    assert not _loads_hashlib(*jobs)
    assert _loads_hashlib(*jobs, f"{jobs[-1]} --cache-dir {tmp_path}")


def test_cache_needs_dir(runner, monkeypatch):
    monkeypatch.delenv("FINSUB_CACHE_DIR", raising=False)
    assert runner.invoke(main, ["cache", "stats"]).exit_code == 2


def test_cache_dir_from_environment(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("FINSUB_CACHE_DIR", str(tmp_path / "envcache"))
    res = runner.invoke(main, ["homology", "--space", "torus", "--n", "2"])
    assert res.exit_code == 0, res.output
    stats = runner.invoke(main, ["cache", "stats"])
    assert json.loads(stats.output)["entries"] > 0


@pytest.mark.parametrize("args", [
    ["cache", "stats"],
    ["cache", "clear"],
    ["homology", "--space", "sphere", "--d", "1", "--n", "2"],
])
@pytest.mark.parametrize("where", ["a file", "under a file"])
@pytest.mark.parametrize("source", ["option", "environment"])
def test_cache_dir_that_names_a_file_is_a_usage_error(runner, monkeypatch,
                                                      tmp_path, args, where,
                                                      source):
    def no_work(*args, **kwargs):
        raise AssertionError("the job ran before --cache-dir was checked")

    cli_module = importlib.import_module("finsub.cli")
    for name in ("keyed_complex", "sphere_homology"):
        monkeypatch.setattr(cli_module, name, no_work)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a cache\n")
    cache_dir = blocker if where == "a file" else blocker / "cache"
    if source == "option":
        monkeypatch.delenv("FINSUB_CACHE_DIR", raising=False)
        args = args + ["--cache-dir", str(cache_dir)]
    else:
        monkeypatch.setenv("FINSUB_CACHE_DIR", str(cache_dir))
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert res.exception is None
    lines = res.output.splitlines()
    assert lines[0].startswith(f"Usage: finsub {args[0]} ")
    errors = [line for line in lines if line.startswith("Error: ")]
    assert len(errors) == 1
    assert errors[0].startswith("Error: Invalid value for '--cache-dir': ")
    assert blocker.read_text() == "not a cache\n"


def test_verify_match_and_exit_codes(runner):
    res = runner.invoke(main, ["verify", "circle", "-n", "3"])
    assert res.exit_code == 0, res.output
    assert "[ok]" in res.output
    res = runner.invoke(main, ["verify", "no-such-claim", "-n", "2"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["verify", "thm1", "-n", "3"])
    assert res.exit_code == 2  # missing -d


def test_verify_budget(runner):
    res = runner.invoke(main, ["verify", "thm1", "-n", "3", "-d", "3"])
    assert res.exit_code == 2
    assert "resource error" in res.output


def test_verify_mismatch_exit_code(runner, monkeypatch):
    from finsub import claims

    def fake(n, d, opts):
        return [claims.VerificationReport(
            "fake", {"n": n}, "forced mismatch", "test", 1, 2, "mismatch")]

    monkeypatch.setitem(claims.CLAIMS, "fake",
                        claims.Claim(fake, (1, None), (1, None), 1))
    res = runner.invoke(main, ["verify", "fake", "-n", "1"])
    assert res.exit_code == 1
    assert "FAIL" in res.output


def test_verify_adjudicated_never_fails(runner, tmp_path):
    out = tmp_path / "adj.json"
    res = runner.invoke(main, ["verify", "thm2", "-n", "2", "-d", "3",
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    payload = json.loads(out.read_text())
    verdicts = [r["verdict"] for r in payload["reports"]]
    assert "adjudicated" in verdicts
    assert all("wall_time_s" not in r for r in payload["reports"])


def test_verify_json_deterministic(runner, tmp_path):
    outs = []
    for name in ("x.json", "y.json"):
        out = tmp_path / name
        res = runner.invoke(main, ["verify", "lemma-quo", "-n", "1", "-d", "2",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_groupcoh_command(runner):
    res = runner.invoke(main, ["groupcoh", "-n", "3", "--action", "sign",
                               "--max-degree", "1"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["group"] == "S_3"
    assert groups_of(payload)[1] == (0, (2,))


def test_groupcoh_budget(runner):
    # --max-degree 5 takes the Fox-Neuwirth cells of UConf_4(R^8)^+ of
    # codimension <= 6: 1, 3, 6, 10, 15, ... of them, 3 separators each,
    # counted together: codimensions 0..2 weigh 30, so codimension 3 is
    # refused at its 5th cell
    res = runner.invoke(main, ["groupcoh", "-n", "4", "--max-degree", "5",
                               "--ceiling", "44"])
    assert res.exit_code == 2
    assert ("resource error: Fox-Neuwirth chains pass 5 cells in "
            "codimension 3; at 3 per cell, one per separator, that is 15, "
            "and 45 with the cells counted before them, over the ceiling "
            "of 44") in res.output


def test_groupcoh_many_points(runner):
    # a cell weighs its n-1 separators: at n = 100 through degree 1 the
    # 4 950 cells of codimension 2 weigh 490 050 and run, at n = 101 the
    # 5 050 weigh 505 000 and are refused, and n = 1000 is refused in
    # codimension 1, at its 501st cell
    res = runner.invoke(main, ["groupcoh", "-n", "100", "--max-degree", "1"])
    assert res.exit_code == 0, res.output
    assert groups_of(json.loads(res.output)) == {0: (1, ()), 1: (0, ())}
    for n, codim in (("101", 2), ("1000", 1)):
        res = runner.invoke(main, ["groupcoh", "-n", n, "--max-degree", "1"])
        assert res.exit_code == 2
        assert f"cells in codimension {codim}; at" in res.output


def test_groupcoh_ceiling_counts_every_codimension(runner):
    # S_9 through degree 7 (sign) takes the cells of UConf_9(R^9)^+ of
    # codimension <= 8: 12 870 cells of 8 separators, 102 960 together,
    # though no codimension weighs more than 51 480.  Counted together
    # they are refused at once; one codimension at a time they were
    # admitted, and elimination then ran for about 26 s
    args = ["groupcoh", "-n", "9", "--max-degree", "7", "--action", "sign",
            "--ceiling", "100000"]
    with time_limit(1):
        res = runner.invoke(main, args)
    assert res.exit_code == 2
    assert ("resource error: Fox-Neuwirth chains pass 6066 cells in "
            "codimension 8; at 8 per cell, one per separator, that is "
            "48528, and 100008 with the cells counted before them, over "
            "the ceiling of 100000") in res.output


def test_groupcoh_past_the_bar_reach(runner):
    # 21 cells, where the bar resolution would need 719^2 = 516961 tuples
    res = runner.invoke(main, ["groupcoh", "-n", "6", "--max-degree", "1"])
    assert res.exit_code == 0, res.output
    assert groups_of(json.loads(res.output)) == {0: (1, ()), 1: (0, ())}


@pytest.mark.parametrize("action", ["trivial", "sign"])
def test_groupcoh_degrees_match_group_cohomology(runner, action):
    from finsub.groupcoh import group_cohomology
    res = runner.invoke(main, ["groupcoh", "-n", "3", "--action", action,
                               "--max-degree", "3"])
    assert res.exit_code == 0, res.output
    want = {r: group_cohomology(3, action, r) for r in range(4)}
    assert groups_of(json.loads(res.output)) == \
        {r: (g.rank, g.torsion) for r, g in want.items()}


def test_page_command(runner):
    res = runner.invoke(main, ["page", "--space", "sphere", "--d", "2",
                               "--n", "3", "--variant", "bar"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    last = payload["pages"][-1]
    assert last["entries"] == [{"p": 3, "q": 3, "dim": 1}]
    assert payload["einfty_totals"][6] == 1


def test_page_json_shape(runner):
    res = runner.invoke(main, ["page", "--space", "sphere", "--d", "2",
                               "--n", "2"])
    payload = json.loads(res.output)
    p1 = payload["pages"][0]
    assert p1["r"] == 1
    assert {"from", "rank"} == set(p1["differentials"][0].keys())


def test_homology_ceiling_counts_nondegenerate_cells(runner):
    # the keyed subset space of <= 2 points on the torus has 1, 9, 26, 30,
    # 12, 0 non-degenerate cells in degrees 0..5, far fewer than its level
    # tables
    args = ["homology", "--space", "torus", "--n", "2", "--ceiling"]
    assert runner.invoke(main, args + ["30"]).exit_code == 0
    res = runner.invoke(main, args + ["29"])
    assert res.exit_code == 2
    assert "resource error" in res.output
    assert "degree 3" in res.output


def test_verify_connecting_ceiling_counts_nondegenerate_cells(runner):
    # the connecting claim builds the Fox-Neuwirth cells of bar_4 once;
    # its heaviest degree, 6, holds one 3-point cell and three 4-point
    # cells, each counted once per separator: 11
    args = ["verify", "connecting", "-n", "4", "-d", "2", "--ceiling"]
    assert runner.invoke(main, args + ["11"]).exit_code == 0
    res = runner.invoke(main, args + ["10"])
    assert res.exit_code == 2
    assert "resource error: bar_4(S^2), degree 6" in res.output


def test_homology_lost_key_is_an_engine_fault(runner, monkeypatch):
    from finsub import subsetspace
    enumerate_level = subsetspace._level_keys

    def lossy(masks, k, *rest):
        keys = enumerate_level(masks, k, *rest)
        return keys[:-1] if k == 3 else keys

    monkeypatch.setattr(subsetspace, "_level_keys", lossy)
    res = runner.invoke(main, ["homology", "--space", "torus", "--n", "2"])
    assert res.exit_code != 2
    assert "Usage" not in res.output and "Error:" not in res.output
    assert isinstance(res.exception, RuntimeError)
    assert "not enumerated" in str(res.exception)


def test_homology_over_reported_rank_is_an_engine_fault(runner, monkeypatch):
    homology_module = importlib.import_module("finsub.homology")
    untracked = homology_module._untracked_diagonal

    def over_reporting(m, skip_cols=()):
        pivot_rows, diagonal = untracked(m, skip_cols)
        return pivot_rows, diagonal + [1]

    monkeypatch.setattr(homology_module, "_untracked_diagonal", over_reporting)
    res = runner.invoke(main, ["homology", "--space", "sphere", "--d", "2",
                               "--n", "2"])
    assert res.exit_code != 2
    assert "Usage" not in res.output and "Error:" not in res.output
    assert isinstance(res.exception, RuntimeError)
    assert str(res.exception) == \
        "degree 0: 1 cells but differential ranks 1 out + 1 in"


@pytest.mark.parametrize("script", [
    "import finsub.cli\n"
    "for job in sys.argv[1:]:\n"
    "    finsub.cli.main(job.split())\n",
    "import finsub\n",
], ids=["cli", "library"])
def test_startup_loads_only_the_standard_library(script):
    # module presence, not time: a third-party or heavyweight import
    # would cost every CLI process its start-up time again
    jobs = ["groupcoh -n 3 --max-degree 1",
            "homology --space sphere --d 2 --n 2"]
    loaded = _fresh_interpreter(
        "import sys\nbefore = set(sys.modules)\n" + script +
        "sys.stderr.write(' '.join(sorted(set(sys.modules) - before)))\n",
        *jobs).split()
    assert "finsub" in loaded
    tops = {name.split(".")[0] for name in loaded}
    assert not tops & {"click", "dataclasses", "inspect"}
    assert tops <= set(sys.stdlib_module_names) | {"finsub"}


HELP_OPTIONS = {
    "homology": ["--space", "--d", "--n", "--construction", "--model",
                 "--coeffs", "--max-degree", "--trunc", "--out", "--cache-dir",
                 "--ceiling"],
    "verify": ["-n", "-d", "--space", "--budget-nd", "--ceiling", "--out"],
    "groupcoh": ["-n", "--action", "--max-degree", "--ceiling", "--out"],
    "page": ["--space", "--d", "--n", "--variant", "--trunc", "--ceiling",
             "--out"],
    "cache": ["--cache-dir"],
}


def test_ceiling_help_is_one_text(runner):
    texts = set()
    for command in ("homology", "page", "verify", "groupcoh"):
        res = runner.invoke(main, [command, "--help"])
        assert res.exit_code == 0, res.output
        entry = re.search(r"--ceiling CEILING\s+(.*?)(?:\n  -|\Z)",
                          res.output, re.S)
        # help lines may break after the hyphen of Fox-Neuwirth
        texts.add(re.sub(r"-\s+", "-", " ".join(entry.group(1).split())))
    assert texts == {"non-degenerate cells allowed in any one degree, a "
                     "Fox-Neuwirth cell counting once per separator (at "
                     "least once); groupcoh and configuration spaces of "
                     "spheres count all their codimensions together "
                     "[default: 500000]"}


@pytest.mark.parametrize("command", sorted(HELP_OPTIONS))
def test_help_names_every_option(runner, command):
    res = runner.invoke(main, [command, "--help"])
    assert res.exit_code == 0, res.output
    named = set(re.findall(r"(?<![\w-])(--?[a-z][\w-]*)", res.output))
    assert set(HELP_OPTIONS[command]) | {"--help"} <= named


@pytest.mark.parametrize("args", [
    ["homology", "--d", "2", "--n", "2", "--no-such-option"],
    ["homology", "--d", "2", "--n", "2", "--construction", "nope"],
    ["homology", "--d", "2"],
    ["homology", "--d", "2", "--n", "x"],
    ["cache", "bogus"],
])
def test_parse_errors_are_usage_errors(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    lines = res.output.splitlines()
    assert lines[0].startswith("Usage: ") and f" {args[0]} " in lines[0]
    assert len([line for line in lines if line.startswith("Error: ")]) == 1


@pytest.mark.parametrize("args, message", [
    (["homology", "--space", "sphere", "--d", "0", "--n", "2"],
     "--d must be >= 1"),
    (["page", "--space", "torus", "--n", "2", "--trunc", "-2"],
     "--trunc must be >= 1"),
    (["verify", "lemma-quo", "-n", "1", "-d", "0"], "-d must be >= 1"),
    (["homology", "--space", "torus", "--d", "9", "--n", "1"],
     "--space torus has dimension 2, not --d 9"),
    (["page", "--space", "torus", "--d", "9", "--n", "1"],
     "--space torus has dimension 2, not --d 9"),
    (["verify", "thm1", "-n", "2", "-d", "2", "--space", "torus"],
     "claim 'thm1' runs on spheres only"),
    (["verify", "lemma-quo", "-n", "1", "-d", "2", "--space", "banana"],
     "unknown space 'banana'"),
    (["verify", "lemma-quo", "-n", "1", "-d", "7", "--space", "torus"],
     "--space torus has dimension 2, not -d 7"),
    (["verify", "generaltwo", "-n", "2", "-d", "3", "--space", "torus"],
     "--space torus has dimension 2, not -d 3"),
])
def test_out_of_range_parameters_are_usage_errors(runner, args, message):
    res = runner.invoke(main, args)
    assert res.exit_code == 2
    errors = [line for line in res.output.splitlines()
              if line.startswith("Error: ")]
    assert len(errors) == 1 and message in errors[0]


def test_version_from_the_module_entry_point():
    import finsub
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "finsub.cli", "--version"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"finsub, version {finsub.__version__}\n"


def test_launcher_call_with_a_program_name(capsys):
    main(["groupcoh", "-n", "3", "--max-degree", "1"], prog_name="finsub")
    assert groups_of(json.loads(capsys.readouterr().out))[1] == (0, ())
    with pytest.raises(SystemExit) as done:
        main(["groupcoh"], prog_name="finsub")
    assert done.value.code == 2
    assert capsys.readouterr().err.startswith("Usage: finsub groupcoh ")


@pytest.mark.parametrize("args, target", [
    (["homology", "--space", "torus", "--n", "2"], "keyed_complex"),
    (["verify", "thm2", "-n", "2", "-d", "2"], "run_claim"),
    (["page", "--space", "torus", "--n", "2"], "filtered_complex"),
    (["homology", "--space", "sphere", "--d", "2", "--n", "2"], "exp_chains"),
    (["page", "--space", "sphere", "--d", "2", "--n", "2"], "filtration"),
])
def test_engine_value_error_is_not_a_usage_error(runner, monkeypatch, args,
                                                  target):
    def boom(*args, **kwargs):
        raise ValueError("boom")

    for name in ("cli", "fncells"):  # sphere homology builds in fncells
        module = importlib.import_module(f"finsub.{name}")
        if hasattr(module, target):
            monkeypatch.setattr(module, target, boom)
    res = runner.invoke(main, args)
    assert res.exit_code != 2
    assert "Usage" not in res.output and "Error:" not in res.output
    assert isinstance(res.exception, ValueError)
    assert str(res.exception) == "boom"
