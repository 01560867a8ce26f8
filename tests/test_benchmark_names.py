"""The benchmark's traced names must keep resolving in the package.

``perfbench/tracer.py`` wraps finsub functions by name.  A metric whose
every source name has vanished is left out of the benchmark's result
line, which then no longer carries the metrics ``BENCHMARK.json`` lists.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_benchmark_metric_keeps_a_traced_name():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    script = ("import json, layers, tracer\n"
              "t = tracer.Tracer('t')\n"
              "t.install()\n"
              "print(json.dumps(sorted(layers.absent([{'missing': t.missing}]))))\n")
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(done.stdout.splitlines()[-1]) == []
