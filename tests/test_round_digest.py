"""Smoke test of `tools/round_digest.py`, the check that two checkouts return
the same benchmark solves bit for bit.

No digest value is pinned: a change that alters results changes it on
purpose. The test checks that the tool runs against the package's current
names, that one round hashes to the same sha256 twice, that the command
line hashes only the workloads it is given, and that --envelope prints one
range per case.
"""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parent.parent / "tools" / "round_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("round_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_round_digest_is_a_repeatable_sha256():
    tool = load_tool()
    first = tool.round_digest("digital-emax-sweep", 1)
    assert re.fullmatch(r"[0-9a-f]{64}", first)
    assert tool.round_digest("digital-emax-sweep", 1) == first


def test_command_line_hashes_one_named_workload():
    out = subprocess.run(
        [sys.executable, str(TOOL), "--workload", "single-user-brute", "--seed", "1"],
        check=True, capture_output=True, text=True).stdout
    assert re.fullmatch(r"single-user-brute [0-9a-f]{64}\n", out)


def test_envelope_prints_one_range_per_case():
    out = subprocess.run(
        [sys.executable, str(TOOL), "--envelope", "1", "--workload", "digital-emax-sweep"],
        check=True, capture_output=True, text=True).stdout
    rows = [json.loads(line) for line in out.splitlines()]
    labels = [case.label for case in load_tool().workloads.ordered_cases("digital-emax-sweep", 1)]
    assert [row["case"] for row in rows] == labels
    for row in rows:
        assert row["workload"] == "digital-emax-sweep" and row["k"] == 1
        assert row["rate"][0] <= row["rate"][1] and row["rbe"][0] <= row["rbe"][1]
        assert row["splits"] and row["verdicts"]
        assert row["first_diverging_probe"] is None or row["first_diverging_probe"] >= 0


def test_nudge_moves_each_positive_threshold_by_whole_ulps():
    tool = load_tool()
    cfg = tool.workloads.ordered_cases("digital-emax-sweep", 1)[0].cfg
    args = (cfg, 10.0, np.array([64, 64]), "fbl")
    base = tool.tlbs._gamma_thresholds(*args)
    with tool.nudged_thresholds(-2):
        low = tool.tlbs._gamma_thresholds(*args)
    with tool.nudged_thresholds(1):
        high = tool.tlbs._gamma_thresholds(*args)
    assert np.all(base > 0)
    np.testing.assert_array_equal(low, np.nextafter(np.nextafter(base, 0), 0))
    np.testing.assert_array_equal(high, np.nextafter(base, np.inf))
    np.testing.assert_array_equal(tool.tlbs._gamma_thresholds(*args), base)
