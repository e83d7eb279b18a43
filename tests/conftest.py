from __future__ import annotations

from pathlib import Path

import pytest

from chronorank import cli

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
