"""Smoke tests for the scripts under ``scripts/``."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


def test_reach_record_on_s2_two_points():
    done = subprocess.run([sys.executable, str(SCRIPTS / "reach.py"), "2", "2"],
                          capture_output=True, text=True, check=True, timeout=120)
    lines = done.stdout.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert {k: record[k] for k in ("d", "n", "variant", "cells", "largest_degree",
                                   "largest_degree_cells", "groups")} == {
        "d": 2, "n": 2, "variant": "exp", "cells": 9, "largest_degree": 3,
        "largest_degree_cells": 3, "groups": {"0": "Z", "2": "Z", "4": "Z"}}
    assert record["build_s"] >= 0 and record["homology_s"] >= 0
    assert record["peak_rss_mb"] > 0


def test_reach_record_times_pages_on_s2_two_points():
    done = subprocess.run([sys.executable, str(SCRIPTS / "reach.py"), "2", "2",
                           "--pages"],
                          capture_output=True, text=True, check=True, timeout=120)
    record = json.loads(done.stdout)
    assert record["groups"] == {"0": "Z", "2": "Z", "4": "Z"}
    assert sorted(record["pages_s"]) == ["bar", "based", "exp"]
    assert record["build_s"] >= 0 and record["homology_s"] >= 0
    assert all(t >= 0 for t in record["pages_s"].values())


def test_reach_record_times_bases_on_s2_two_points():
    done = subprocess.run([sys.executable, str(SCRIPTS / "reach.py"), "2", "2",
                           "--bases"],
                          capture_output=True, text=True, check=True, timeout=120)
    record = json.loads(done.stdout)
    assert record["groups"] == {"0": "Z", "2": "Z", "4": "Z"}
    assert sorted(record["basis_s"]) == ["0", "2", "4"]
    assert all(t >= 0 for t in record["basis_s"].values())
    assert "pages_s" not in record


@pytest.mark.parametrize("d,n", [(2, 5), (3, 3)])
def test_reach_matches_the_pinned_groups(d, n):
    pinned = json.loads((SCRIPTS / "reach_groups.json").read_text())
    done = subprocess.run([sys.executable, str(SCRIPTS / "reach.py"), str(d), str(n)],
                          capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(done.stdout)["groups"] == pinned[f"{d} {n} exp"]


def test_reach_exits_1_on_a_group_that_differs_from_the_pinned_one(tmp_path):
    # a copy of the script beside a pinned file with H_5 of S^3 n=3 tampered
    shutil.copy(SCRIPTS / "reach.py", tmp_path / "reach.py")
    pinned = json.loads((SCRIPTS / "reach_groups.json").read_text())
    pinned["3 3 exp"]["5"] = "Z/2"
    (tmp_path / "reach_groups.json").write_text(json.dumps(pinned))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, str(tmp_path / "reach.py"), "3", "3"],
                          capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 1
    assert done.stderr.strip() == "degree 5: Z/2 + Z/2, pinned Z/2"
    assert json.loads(done.stdout)["groups"]["5"] == "Z/2 + Z/2"
