"""Records reference.json: each job's exit code and output digest.

    python3 perfbench/capture.py

Run it only at a commit whose outputs are known to be right: the
benchmark counts every later difference as a failed job.  A job that
appears twice in a workload (the rerun workload's cache miss and hit)
must give the same output both times.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import (JOB_TIMEOUT_S, REFERENCE, WORK, WORKLOADS, job_env, launch,
                 output_digest)


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    jobs: dict[str, dict] = {}
    try:
        for workload, (joblist, uses_cache) in WORKLOADS.items():
            cache = WORK / f"cache-{workload}" if uses_cache else None
            if cache is not None:
                cache.mkdir()
            env = job_env(cache)
            for i, job in enumerate(joblist):
                run = launch(job, env, 0, f"{workload}{i}", False,
                             time.monotonic() + JOB_TIMEOUT_S)
                entry = {"exit": run.code, "sha256": output_digest(run, 0)}
                if entry["sha256"] is None:
                    raise SystemExit(f"{job.key}: no usable output")
                if jobs.setdefault(job.key, entry) != entry:
                    raise SystemExit(f"{job.key}: repeats gave different output")
                print(f"{job.key}: exit {run.code}, {run.wall:.2f} s", flush=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    REFERENCE.write_text(json.dumps(jobs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
