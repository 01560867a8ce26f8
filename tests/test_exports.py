"""The package's public names: every name in ``finsub.__all__`` imports."""

import os
import subprocess
import sys
from pathlib import Path


def test_star_import_in_a_fresh_interpreter():
    # a name left in __all__ after its definition is deleted fails here
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    script = ("from finsub import *\n"
              "import finsub\n"
              "missing = [n for n in finsub.__all__ if n not in globals()]\n"
              "assert not missing, missing\n")
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
