"""Smoke tests for the scripts under ``scripts/``."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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
