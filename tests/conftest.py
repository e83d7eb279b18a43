from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

from chronorank import cli

# No per-example deadline: the first examples of a property pay for imports and
# caches, and a shared host's timing varies. Built on the profile hypothesis
# already loaded, so CI keeps its derandomized "ci" profile.
settings.register_profile("chronorank", settings(), deadline=None)
settings.load_profile("chronorank")

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def fixture_corpus_path() -> Path:
    return DATA_DIR / "fixture_corpus.jsonl"


@pytest.fixture
def fixture_catalog_path() -> Path:
    return DATA_DIR / "fixture_catalog.jsonl"


@pytest.fixture
def run_cli(capsys):
    """Invoke the CLI in-process and capture (exit_code, stdout, stderr)."""

    def invoke(*argv: str) -> tuple[int, str, str]:
        code = cli.main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke
