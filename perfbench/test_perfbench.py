"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest perfbench -q

They check that every traced name resolves and is wrapped wherever finsub
binds it, that each layer records spans on the workload meant to load
it, and that the correctness gate counts a changed output or exit code
as a failure.  One traced pass of every workload runs, about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracer
from layers import CACHE, METRICS, absent, pass_metrics

INSTALL_CHECK = """
import sys
import tracer
tr = tracer.Tracer("selftest")
import finsub.cli, finsub.cache
originals = {}
for layer, names in tracer.LAYERS.items():
    for name in names:
        owner, _, attr = name.rpartition(".")
        holder = sys.modules[f"finsub.{layer}"]
        if owner:
            holder = getattr(holder, owner)
        originals[f"{layer}.{name}"] = getattr(holder, attr)
tr.install()
left = sorted({f"{mod}.{key}" for mod, m in sys.modules.items()
               if mod == "finsub" or mod.startswith("finsub.")
               for key, value in vars(m).items()
               if any(value is fn for fn in originals.values())})
print(tr.missing, left)
"""

# Layers each workload must load (a span recorded), per the README table.
LOADS = {
    "verify": ["cli", "claims", "simplicial", "subsetspace", "homology", "snf",
               "spectral", "groupcoh"],
    "groupcoh": ["cli", "groupcoh", "homology", "snf"],
    "rerun": ["cli", "cache", "simplicial", "subsetspace", "homology", "snf",
              "spectral"],
    "library": ["simplicial", "subsetspace", "homology", "snf", "groupcoh"],
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    path = tmp_path_factory.mktemp("work")
    saved, run.WORK = run.WORK, path
    yield path
    run.WORK = saved


@pytest.fixture(scope="module")
def reference():
    return json.loads(run.REFERENCE.read_text())


@pytest.fixture(scope="module")
def traced_passes(work, reference):
    passes = {}
    for i, name in enumerate(run.WORKLOADS):
        passes[name] = run.run_pass(name, 5, i, True, reference,
                                    time.monotonic() + run.JOB_LIMIT_S)
    return passes


def test_every_traced_name_resolves_and_is_wrapped_everywhere():
    out = subprocess.run([sys.executable, "-c", INSTALL_CHECK],
                         cwd=run.BENCH, env=run.job_env(), check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[] []"


def test_benchmark_json_matches_run_py():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == \
        list(METRICS) + ["trace.overhead"]


@pytest.mark.parametrize("workload", list(LOADS))
def test_each_layer_records_spans_on_its_workload(traced_passes, workload):
    p = traced_passes[workload]
    assert p.failed == 0
    assert len(p.docs) == len(run.WORKLOADS[workload][0])
    layers = {s[0] for doc in p.docs for s in doc["spans"]}
    assert set(LOADS[workload]) <= layers


def test_workload_rationale_counts(traced_passes):
    metrics = {name: pass_metrics(p.docs, p.bytes_written)
               for name, p in traced_passes.items()}
    assert metrics["groupcoh"]["subsetspace.calls"] == 0
    assert metrics["rerun"]["cache.hit_ratio"] == 0.5
    assert metrics["rerun"]["cache.bytes_written"] > 0
    for name in ("verify", "groupcoh", "library"):
        assert metrics[name]["cache.requests"] == 0
    assert metrics["library"]["snf.tracked_calls"] > 0
    assert metrics["groupcoh"]["snf.tracked_calls"] == 0


def test_nested_spans_of_one_sizer_are_sized_once():
    import finsub
    tr = tracer.Tracer("nested")
    inner = tr.wrap("homology", "normalized_complex", finsub.normalized_complex)
    outer = tr.wrap("homology", "relative_complex", lambda x: inner(x))
    outer(finsub.sphere_model(1, 2))
    assert [(s[1], s[5] is not None) for s in tr.spans] == \
        [("relative_complex", True), ("normalized_complex", False)]


def test_metrics_of_deleted_names_are_absent():
    docs = [{"missing": CACHE + ["simplicial.quotient"], "spans": []}]
    assert absent(docs) == {name for name in METRICS
                            if name.startswith("cache.")
                            or name.startswith("simplicial.quotient")}


def _job(key: str) -> run.Job:
    return next(job for jobs, _ in run.WORKLOADS.values() for job in jobs
                if job.key == key)


def test_gate_counts_changed_output_and_exit_code(work, reference):
    job = _job("finsub groupcoh -n 5 --max-degree 1 --action sign")
    launched = run.launch(job, run.job_env(), 0, "gate", False,
                          time.monotonic() + run.JOB_TIMEOUT_S)
    assert run.check(launched, reference, 0) is None
    wrong_exit = dict(reference, **{job.key: dict(reference[job.key], exit=1)})
    assert "exit code" in run.check(launched, wrong_exit, 0)
    out = work / "gate.stdout"
    right = out.read_bytes()
    out.write_bytes(right.replace(b'"rank": 0', b'"rank": 1', 1))
    assert out.read_bytes() != right
    assert "different" in run.check(launched, reference, 0)


def test_gate_rejects_inexact_or_foreign_les_verdicts(work, reference):
    job = _job("library")
    launched = run.Launch(job, "lib", 0, 0.0, 0.0, 0.0)
    doc = {"bar_s4": {}, "les_checks": 3, "les": {"seed": 3, "exact": [True] * 3}}
    fake = dict(reference, library={"exit": 0, "sha256": run.library_digest(
        json.loads(json.dumps(doc)), 3)})
    for seed, exact, ok in ((3, True, True), (3, False, False), (4, True, False)):
        doc["les"]["exact"][-1] = exact
        (work / "lib.out").write_text(json.dumps(doc))
        assert (run.check(launched, fake, seed) is None) == ok


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, str(Path(run.BENCH.name) / "run.py"), "--workload",
         "groupcoh", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
