"""finsub benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout of the repository; the package is
taken from the checkout's ``src``.  Each job is a fresh interpreter
(``perfbench/launch.py``), run one at a time from this single
process: a closed loop with one client.  Passes over the workload's jobs
repeat for the whole number of passes closest to ``--seconds`` (at
least one).

``--trace 0`` reports the end-to-end metrics: wall_s, cpu_s,
peak_rss_mb and setup_s.  ``--trace 1`` alternates traced and untraced
passes, starting with a traced one, and reports the per-layer metrics
of ``layers.py`` plus trace.overhead.  Every job's output is checked
against ``reference.json``; a job fails on an unexpected exit code, a
timeout or an output that differs.  The last line of stdout is one JSON
object with keys correct, attempted, failed and metrics; the lines
before it give each metric's median, quartiles and sample count, and
fail_ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from layers import METRICS, absent, pass_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench-work"
REFERENCE = BENCH / "reference.json"
SPEC = ROOT / "BENCHMARK.json"  # metric names and units
CACHE_ENV = "FINSUB_CACHE_DIR"

SETUP_LAUNCHES = 21
JOB_TIMEOUT_S = 120.0
# A run must end within 180 s: no pass starts that would end after
# PASS_LIMIT_S, and every job is killed at JOB_LIMIT_S.
PASS_LIMIT_S = 150.0
JOB_LIMIT_S = 170.0

OUT, SEED = "{out}", "{seed}"  # placeholders in job arguments


@dataclass(frozen=True)
class Job:
    key: str  # the command as typed; names the job's reference entry
    argv: tuple[str, ...]  # launcher arguments
    output: str  # "out" (the --out file), "stdout" or "library"


def _cli(command: str, output: str = "stdout") -> Job:
    argv = ("cli",) + tuple(command.split())
    if output == "out":
        argv += ("--out", OUT)
    return Job(f"finsub {command}", argv, output)


_S2N4 = "homology --space sphere --d 2 --n 4"

# workload -> (jobs, whether the jobs get a fresh cache directory per pass)
WORKLOADS: dict[str, tuple[list[Job], bool]] = {
    "verify": ([_cli(c, "out") for c in (
        "verify tuffley-s2 -n 4", "verify thm2 -n 4 -d 2",
        "verify connecting -n 4 -d 2", "verify e1-collapse -n 3 -d 2",
        "verify thm1 -n 2 -d 4", "verify groupcoh-xcheck -n 3 --budget-nd 9")],
        False),
    "groupcoh": ([_cli(f"groupcoh -n {n} --max-degree {r} --action {a}")
                  for n, r in ((4, 2), (5, 1)) for a in ("trivial", "sign")],
                 False),
    "rerun": ([_cli(c) for c in (
        _S2N4, _S2N4,
        f"{_S2N4} --construction bar --coeffs Q",
        f"{_S2N4} --construction bar --coeffs Q",
        "page --space sphere --d 2 --n 4")],
        True),
    "library": ([Job("library", ("library", "--seed", SEED, "--out", OUT),
                     "library")],
                False),
}


@dataclass
class Launch:
    job: Job
    tag: str
    code: int
    wall: float
    cpu: float
    rss_mb: float


@dataclass
class Pass:
    traced: bool
    wall: float
    cpu: float
    rss_mb: float
    failed: int
    attempted: int
    docs: list[dict]
    bytes_written: int


def job_env(cache_dir: Path | None = None) -> dict[str, str]:
    """The caller's environment with the checkout's package and, only
    where given, a cache directory.

    Every PYTHON* variable is dropped: settings such as
    PYTHONDONTWRITEBYTECODE or PYTHONPYCACHEPREFIX would make each job
    recompile the package, or write its bytecode outside the checkout.
    """
    env = {k: v for k, v in os.environ.items()
           if k != CACHE_ENV and not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    if cache_dir is not None:
        env[CACHE_ENV] = str(cache_dir)
    return env


def spawn(argv: list[str], env: dict[str, str], timeout: float,
          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL):
    """Run one process to its end; (exit code, wall s, rusage)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=stdout,
                            stderr=stderr)
    done = threading.Event()

    def kill() -> None:
        if not done.is_set():
            proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        done.set()
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def launch(job: Job, env: dict[str, str], seed: int, tag: str, traced: bool,
           deadline: float) -> Launch:
    argv = [a.replace(OUT, str(WORK / f"{tag}.out")).replace(SEED, str(seed))
            for a in job.argv]
    if traced:
        argv = ["--trace", str(WORK / f"{tag}.spans")] + argv
    timeout = max(0.1, min(JOB_TIMEOUT_S, deadline - time.monotonic()))
    with open(WORK / f"{tag}.stdout", "wb") as out, \
            open(WORK / f"{tag}.stderr", "wb") as err:
        code, wall, usage = spawn(
            [sys.executable, str(BENCH / "launch.py")] + argv, env, timeout,
            out, err)
    return Launch(job, tag, code, wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def library_digest(doc: dict, seed: int) -> str | None:
    """Digest of the seed-independent part of a library dump, or None
    when its LES verdicts are not all exact for this seed."""
    les = doc.pop("les", None)
    if les is None or les["seed"] != seed or not all(les["exact"]):
        return None
    return digest(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode())


def output_digest(run: Launch, seed: int) -> str | None:
    """Digest of a job's output, or None when it has none or, for the
    library job, when its LES verdicts are not all exact."""
    source = "stdout" if run.job.output == "stdout" else "out"
    try:
        data = (WORK / f"{run.tag}.{source}").read_bytes()
    except FileNotFoundError:
        return None
    if run.job.output != "library":
        return digest(data)
    try:
        return library_digest(json.loads(data), seed)
    except (ValueError, AttributeError, KeyError, TypeError):
        return None


def check(run: Launch, reference: dict, seed: int) -> str | None:
    """Why the job failed, or None when it ran correctly."""
    want = reference[run.job.key]
    if run.code != want["exit"]:
        return f"exit code {run.code}, expected {want['exit']}"
    if output_digest(run, seed) != want["sha256"]:
        return "output missing or different from the reference"
    return None


def run_pass(workload: str, seed: int, index: int, traced: bool,
             reference: dict, deadline: float) -> Pass:
    jobs, uses_cache = WORKLOADS[workload]
    cache = WORK / f"cache-{index}" if uses_cache else None
    if cache is not None:
        cache.mkdir()
    env = job_env(cache)
    start = time.perf_counter()
    runs = [launch(job, env, seed, f"p{index}j{i}", traced, deadline)
            for i, job in enumerate(jobs)]
    wall = time.perf_counter() - start
    bytes_written = 0
    if cache is not None:
        bytes_written = sum(p.stat().st_size for p in cache.iterdir())
        shutil.rmtree(cache)
    failed = 0
    docs = []
    for run in runs:
        why = check(run, reference, seed)
        if why is not None:
            failed += 1
            err = (WORK / f"{run.tag}.stderr").read_text(errors="replace")
            print(f"perfbench: {run.job.key} failed: {why}\n{err[-2000:]}",
                  file=sys.stderr)
        spans = WORK / f"{run.tag}.spans"
        if traced and spans.exists():
            docs.append(json.loads(spans.read_text()))
    return Pass(traced, wall, sum(r.cpu for r in runs),
                max(r.rss_mb for r in runs), failed, len(runs), docs,
                bytes_written)


def setup_times(env: dict[str, str], launches: int) -> list[float]:
    """Wall time of fresh interpreters that import finsub.cli."""
    times = []
    for _ in range(launches):
        code, wall, _ = spawn([sys.executable, "-c", "import finsub.cli"],
                              env, JOB_TIMEOUT_S)
        if code != 0:
            raise SystemExit(f"perfbench: importing finsub.cli exited {code}")
        times.append(wall)
    return times


def summary(name: str, unit: str, values: list[float]) -> str:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return (f"{name}: median {statistics.median(values):.6g} {unit} "
            f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")


def measure(workload: str, seed: int, seconds: int, traced: bool,
            reference: dict, units: dict[str, str]
            ) -> tuple[dict, list[str], int, int]:
    t_start = time.monotonic()
    env = job_env()
    # Untimed warm-up: compiles the package's bytecode, so that neither
    # setup_s nor the first pass pays for it.
    setup_times(env, 1)
    setup = [] if traced else setup_times(env, SETUP_LAUNCHES)
    passes: list[Pass] = []
    t0 = time.monotonic()
    while True:
        want_traced = traced and len(passes) % 2 == 0
        passes.append(run_pass(workload, seed, len(passes), want_traced,
                               reference, t_start + JOB_LIMIT_S))
        now = time.monotonic()
        # Stop at the whole number of passes closest to --seconds; a
        # traced run needs a traced and an untraced pass.
        enough = ((now - t0) * (1 + 0.5 / len(passes)) >= seconds
                  and len(passes) >= 1 + traced)
        if enough or now - t_start + passes[-1].wall > PASS_LIMIT_S:
            break
    plain = [p for p in passes if not p.traced]
    lines, metrics = [], {}

    def report(name: str, values: list[float]) -> None:
        metrics[name] = {"value": statistics.median(values), "unit": units[name]}
        lines.append(summary(name, units[name], values))

    if traced:
        spanned = [p for p in passes if p.traced]
        per_pass = [pass_metrics(p.docs, p.bytes_written) for p in spanned]
        gone = absent([d for p in spanned for d in p.docs])
        for name in METRICS:
            if name in gone:
                print(f"perfbench: {name} is absent: the names it is "
                      f"computed from no longer exist", file=sys.stderr)
                continue
            report(name, [m[name] for m in per_pass])
        lines.append(summary("traced wall_s", "s", [p.wall for p in spanned]))
        if plain:  # none when one traced pass used up the time limit
            overhead = (statistics.median(p.wall for p in spanned)
                        / statistics.median(p.wall for p in plain) - 1)
            report("trace.overhead", [overhead])
    else:
        report("wall_s", [p.wall for p in plain])
        report("cpu_s", [p.cpu for p in plain])
        report("peak_rss_mb", [p.rss_mb for p in plain])
        report("setup_s", setup)
    failed = sum(p.failed for p in passes)
    attempted = sum(p.attempted for p in passes)
    lines.append(f"fail_ratio: {failed / attempted:.6g} ratio "
                 f"({failed} of {attempted} jobs, {len(passes)} passes)")
    return metrics, lines, failed, attempted


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "finsub" / "cli.py").is_file():
        print(f"perfbench: no finsub package under {ROOT / 'src'}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        metrics, lines, failed, attempted = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), reference,
            units)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
