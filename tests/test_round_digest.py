"""Smoke test of `tools/round_digest.py`, the check that two checkouts return
the same benchmark solves bit for bit.

No digest value is pinned: a change that alters results changes it on
purpose. The test checks that the tool runs against the package's current
names and that one round hashes to the same sha256 twice.
"""

import importlib.util
import re
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
