"""Every demo script runs to completion and writes nothing to stderr."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import child_env

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(script):
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
