"""Smoke test of `tools/round_digest.py`, the check that two checkouts return
the same benchmark solves bit for bit.

No digest value is pinned: a change that alters results changes it on
purpose. The test checks that the tool runs against the package's current
names, that one round hashes to the same sha256 twice, and that the command
line hashes only the workloads it is given.
"""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

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
