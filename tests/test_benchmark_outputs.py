"""Benchmark outputs as a tier-1 check.

Every job of the ``WORKLOADS`` of ``perfbench/run.py`` -- each CLI
command once, and the ``library`` job -- runs here in a fresh
interpreter through ``perfbench/launch.py``, with ``run.job_env()`` and
no cache directory, as ``run.py`` runs it.  Its exit code and output
digest must equal those in ``perfbench/reference.json``, computed by
``run.py``'s own digest functions.  So output drift fails the tests, not
only the benchmark.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SEED = 1


def _load_run():
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


RUN = _load_run()
REFERENCE = json.loads(RUN.REFERENCE.read_text())
# one of each job: the rerun workload repeats its commands
JOBS = {job.key: job for jobs, _ in RUN.WORKLOADS.values() for job in jobs}
CLI_JOBS = [job for job in JOBS.values() if job.output != "library"]


def _launch(job, out):
    argv = [a.replace(RUN.OUT, str(out)).replace(RUN.SEED, str(SEED))
            for a in job.argv]
    return subprocess.run([sys.executable, str(BENCH / "launch.py")] + argv,
                          env=RUN.job_env(), cwd=ROOT, capture_output=True,
                          timeout=300)


def test_every_reference_entry_is_a_job():
    assert sorted(JOBS) == sorted(REFERENCE)
    assert len(CLI_JOBS) == 13


def test_library_job_matches_reference(tmp_path):
    out = tmp_path / "library.json"
    done = _launch(JOBS["library"], out)
    want = REFERENCE["library"]
    assert done.returncode == want["exit"], done.stderr.decode()
    # None when a LES verdict is not exact
    assert RUN.library_digest(json.loads(out.read_text()), SEED) \
        == want["sha256"]


@pytest.mark.parametrize("job", CLI_JOBS, ids=[
    job.key.removeprefix("finsub ").replace(" ", "_") for job in CLI_JOBS])
def test_cli_job_matches_reference(job, tmp_path):
    out = tmp_path / "job.out"
    done = _launch(job, out)
    want = REFERENCE[job.key]
    assert done.returncode == want["exit"], done.stderr.decode()
    data = done.stdout if job.output == "stdout" else out.read_bytes()
    assert RUN.digest(data) == want["sha256"]
