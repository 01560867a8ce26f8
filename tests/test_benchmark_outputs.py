"""Benchmark outputs as a tier-1 check.

The ``library`` job and ``finsub verify connecting -n 4 -d 2`` run the
relative complexes, connecting maps and LES checks of
``finsub.homology``.  Each runs here in a fresh interpreter, as
``perfbench/run.py`` runs it, and its output digest must equal the one
in ``perfbench/reference.json``, computed by ``run.py``'s own digest
functions.  So output drift fails the tests, not only the benchmark.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SEED = 1


@pytest.fixture(scope="module")
def bench_run():
    """``perfbench/run.py`` as a module (it imports ``layers`` from its
    own directory)."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run",
                                                      BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # its dataclasses look it up there
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


def _launch(args):
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run([sys.executable, str(BENCH / "launch.py")] + args,
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)


def test_library_job_matches_reference(bench_run, tmp_path):
    out = tmp_path / "library.json"
    done = _launch(["library", "--seed", str(SEED), "--out", str(out)])
    want = json.loads(bench_run.REFERENCE.read_text())["library"]
    assert done.returncode == want["exit"], done.stderr
    # None when a LES verdict is not exact
    assert bench_run.library_digest(json.loads(out.read_text()), SEED) \
        == want["sha256"]


def test_verify_connecting_matches_reference(bench_run, tmp_path):
    command = "verify connecting -n 4 -d 2"
    out = tmp_path / "connecting.json"
    done = _launch(["cli"] + command.split() + ["--out", str(out)])
    want = json.loads(bench_run.REFERENCE.read_text())[f"finsub {command}"]
    assert done.returncode == want["exit"], done.stderr
    assert bench_run.digest(out.read_bytes()) == want["sha256"]
