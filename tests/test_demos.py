"""Every demo script runs to completion, writes nothing to stderr, and prints
the same bytes as when it was pinned."""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))

# sha256 of each demo's stdout. A refactor that keeps the ranked bytes keeps
# these; a deliberate change to a demo's text updates its entry.
STDOUT_SHA256 = {
    "01_ingest_and_validate.py": "d7d27480b73f40b5c291130226d7650f65e2e73b63d06b583cc7542765575c33",
    "02_time_buckets.py": "1064dc579478c5766926618018ef5b2b84b2bb2d31df2dd09fcbfdc7c4f5b6ec",
    "03_matching_and_timeliness.py": "ce99e946783e7801e5404b81f306ecc14be1618c04a9684efd81029f3f1ff7b8",
    "04_scoring_walkthrough.py": "91599c5c266aa3d5763edfe4a746ee58d0b55c1509ad2c4750244c64e8b8d2e6",
}


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(script):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[script.name], proc.stdout
