from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import settings

from chronorank import cli
from chronorank import corpus as corpus_module

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


@pytest.fixture
def forked(monkeypatch):
    """The pids os.fork returns in this process during the test."""
    pids = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


@pytest.fixture
def decoded(monkeypatch):
    """For each pass of corpus ingest during the test, in order, how many
    lines it drew to decode."""
    counts = []
    records = corpus_module._records

    def counting_records(source, report, **kwargs):
        counts.append(0)
        number = len(counts) - 1

        def drawn():
            for line in source:
                counts[number] += 1
                yield line

        return records(drawn(), report, **kwargs)

    monkeypatch.setattr(corpus_module, "_records", counting_records)
    return counts
