"""Command line behaviour: outputs, formats, and exit codes."""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from datetime import date
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronorank import Granularity, Query, Semantics, build_index, cli, load_corpus, rank
from chronorank import corpus as corpus_module
from helpers import child_env, golden

RANK_FLAGS = [
    "--entity", "ent:a", "--entity", "ent:b",
    "--from", "1984-05-01", "--to", "1984-06-30",
    "--granularity", "month", "--beta", "0.5",
]


def fixture_args(fixture_corpus_path, *extra):
    return ["rank", str(fixture_corpus_path), *RANK_FLAGS, *extra]


def test_validate_clean_corpus(run_cli, fixture_corpus_path):
    code, out, err = run_cli("validate", str(fixture_corpus_path))
    assert code == 0
    assert "accepted: 6" in out
    assert "skipped: 0" in out
    assert err == ""


def test_validate_reports_reason_tallies(run_cli, tmp_path):
    path = tmp_path / "mixed.jsonl"
    path.write_text(
        '{"id": "a", "date": "1990-01-01", "mentions": []}\n'
        "garbage\n"
        '{"id": "b", "date": "1990-99-01", "mentions": []}\n'
        '{"id": "a", "date": "1990-01-02", "mentions": []}\n'
    )
    code, out, _ = run_cli("validate", str(path))
    assert code == 0
    assert "accepted: 1" in out
    assert "skipped: 3" in out
    assert "malformed: 1" in out
    assert "dateless: 1" in out
    assert "duplicate: 1" in out


def test_validate_empty_corpus_is_a_domain_error(run_cli, tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("\n\n")
    code, out, err = run_cli("validate", str(path))
    assert code == 1
    assert "accepted: 0" in out
    assert "error" in err


def test_validate_missing_file_is_an_io_error(run_cli, tmp_path):
    code, _, err = run_cli("validate", str(tmp_path / "nope.jsonl"))
    assert code == 2
    assert "error" in err


def test_validate_missing_catalog_prints_no_tallies(run_cli, fixture_corpus_path, tmp_path):
    code, out, err = run_cli("validate", str(fixture_corpus_path), "--catalog", str(tmp_path / "nope.jsonl"))
    assert code == 2
    assert out == ""
    assert "error" in err


def test_validate_with_catalog(run_cli, fixture_corpus_path, fixture_catalog_path):
    code, out, _ = run_cli("validate", str(fixture_corpus_path), "--catalog", str(fixture_catalog_path))
    assert code == 0
    assert "catalog entities: 4" in out
    assert "catalog skipped: 0" in out


@pytest.mark.parametrize("granularity", ["day", "week", "month", "year"])
def test_rank_widest_range_explains_like_the_corpus_span(run_cli, fixture_corpus_path, granularity):
    """A range out to the calendar's ends changes neither the rows nor the exit."""

    def explain(start: str, end: str) -> tuple[int, str, str]:
        return run_cli(
            "rank", str(fixture_corpus_path), "--entity", "ent:a", "--semantics", "any",
            "--from", start, "--to", end, "--granularity", granularity, "--explain",
        )

    code, out, err = explain("0001-01-01", "9999-12-31")
    assert (code, err) == (0, "")
    assert out and out == explain("1984-05-03", "1984-06-20")[1]


def test_rank_indexes_only_the_documents_naming_a_query_entity(run_cli, fixture_corpus_path, monkeypatch):
    indexed = []

    def recording_build_index(corpus):
        indexed.append(len(corpus))
        return build_index(corpus)

    monkeypatch.setattr(cli, "build_index", recording_build_index)
    code, out, err = run_cli(*fixture_args(fixture_corpus_path, "--semantics", "all", "--explain"))
    assert (code, err, out) == (0, "", golden("rank_all_month.tsv"))
    documents = load_corpus(fixture_corpus_path)[0].documents
    naming = [d for d in documents if {"ent:a", "ent:b"} & d.mentions.keys()]
    assert len(naming) < len(documents)
    assert indexed == [len(naming)]


def test_validate_keeps_no_document(run_cli, fixture_corpus_path, monkeypatch):
    built = []
    document = corpus_module._document

    def recording_document(*fields):
        built.append(fields[0])
        return document(*fields)

    monkeypatch.setattr(corpus_module, "_document", recording_document)
    code, out, _ = run_cli("validate", str(fixture_corpus_path))
    assert (code, built) == (0, [])
    assert "accepted: 6" in out
    # stats keeps every document, each built as it is accepted.
    assert run_cli("stats", str(fixture_corpus_path))[0] == 0
    assert len(built) == 6


def test_rank_default_columns_are_rank_id_total(run_cli, fixture_corpus_path):
    code, out, _ = run_cli(*fixture_args(fixture_corpus_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1\td2\t0.666667"
    assert all(len(line.split("\t")) == 3 for line in lines)


def test_rank_records_format_carries_identical_values(run_cli, fixture_corpus_path):
    _, tsv_out, _ = run_cli(*fixture_args(fixture_corpus_path, "--explain"))
    _, rec_out, _ = run_cli(*fixture_args(fixture_corpus_path, "--explain", "--format", "records"))
    tsv_rows = [line.split("\t") for line in tsv_out.splitlines()]
    rec_rows = [json.loads(line) for line in rec_out.splitlines()]
    assert len(tsv_rows) == len(rec_rows)
    for tsv_row, rec in zip(tsv_rows, rec_rows):
        assert rec["rank"] == int(tsv_row[0])
        assert rec["doc_id"] == tsv_row[1]
        assert rec["total"] == float(tsv_row[2])
        assert rec["timeliness"] == float(tsv_row[3])
        assert rec["relativeness"] == float(tsv_row[4])
        assert rec["relatedness_term"] == float(tsv_row[5])
        assert rec["period"] == tsv_row[6]
        assert list(rec) == ["rank", "doc_id", "total", "timeliness", "relativeness", "relatedness_term", "period"]


# sha256 of the fixture query's stdout in records format. The TSV goldens pin
# the tsv bytes; these pin the JSON records byte for byte.
RECORDS_SHA256 = {
    ("all", False): "885ddcfae6dc5f7fbb2f8a130f797bc000c76e512e48dbe5fcb3b9df06e70282",
    ("all", True): "c2a13d575fc292c2886a754f0d0bf4e52049de7c440873e163341d53e3c39218",
    ("any", False): "303e34b8223e7d26cd2611f6cb01a75db3d8fb1e6c600babaf97887ee52e0b37",
    ("any", True): "bae37282e4937f3ac4ce0da7bfabdc4c6302c36e325bb3e572f2f587de597421",
}


@pytest.mark.parametrize("semantics, explain", sorted(RECORDS_SHA256))
def test_rank_records_bytes_are_pinned(run_cli, fixture_corpus_path, semantics, explain):
    extra = ["--semantics", semantics, "--format", "records"] + (["--explain"] if explain else [])
    code, out, err = run_cli(*fixture_args(fixture_corpus_path, *extra))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == RECORDS_SHA256[semantics, explain], out


def test_rank_top_one_emits_one_row(run_cli, fixture_corpus_path):
    code, out, _ = run_cli(*fixture_args(fixture_corpus_path, "--top", "1"))
    assert code == 0
    assert len(out.splitlines()) == 1


def test_rank_category_expansion_equals_explicit_entities(run_cli, fixture_corpus_path, fixture_catalog_path):
    _, explicit, _ = run_cli(*fixture_args(fixture_corpus_path, "--semantics", "any", "--explain"))
    code, expanded, _ = run_cli(
        "rank", str(fixture_corpus_path),
        "--catalog", str(fixture_catalog_path),
        "--category", "cat:focus",
        "--from", "1984-05-01", "--to", "1984-06-30",
        "--granularity", "month", "--beta", "0.5",
        "--semantics", "any", "--explain",
    )
    assert code == 0
    assert expanded == explicit


def test_rank_empty_result_is_success(run_cli, fixture_corpus_path):
    code, out, err = run_cli(
        "rank", str(fixture_corpus_path),
        "--entity", "ent:ghost",
        "--from", "1984-05-01", "--to", "1984-06-30",
    )
    assert code == 0
    assert out == ""
    assert err == ""


@pytest.mark.parametrize(
    "extra",
    [
        ["--semantics", "both"],
        ["--granularity", "fortnight"],
        ["--beta", "-1"],
        ["--beta", "x"],
        ["--top", "0"],
        ["--format", "xml"],
        ["--from", "1984-07-01"],  # lands after --to, so the range is reversed
        ["--category", "cat:focus"],  # no --catalog to expand it
    ],
)
def test_rank_bad_flag_values_exit_one(run_cli, fixture_corpus_path, extra):
    # argparse keeps the last occurrence, so appending overrides the good value
    code, out, err = run_cli("rank", str(fixture_corpus_path), *RANK_FLAGS, *extra)
    assert code == 1
    assert out == ""
    assert "error" in err


def test_rank_requires_dates(run_cli, fixture_corpus_path):
    code, _, err = run_cli("rank", str(fixture_corpus_path), "--entity", "ent:a")
    assert code == 1
    assert "date" in err


@pytest.mark.parametrize("missing", ["from", "to"])
def test_rank_names_the_missing_date_flag(run_cli, fixture_corpus_path, tmp_path, capsys, missing):
    flags = {"--from": "1984-05-01", "--to": "1984-06-30"}
    del flags[f"--{missing}"]
    code, out, err = run_cli("rank", str(fixture_corpus_path), "--entity", "ent:a", *flags.popitem())
    assert (code, out, err) == (1, "", f"error: missing --{missing} date (required unless --query-file is given)\n")
    qfile = tmp_path / "query.json"
    qfile.write_text(json.dumps({"entities": ["ent:a"], {"from": "to", "to": "from"}[missing]: "1984-05-01"}))
    code, out, err = run_cli("rank", str(fixture_corpus_path), "--query-file", str(qfile))
    assert (code, out, err) == (1, "", f"error: missing or non-string '{missing}' date\n")
    with pytest.raises(SystemExit):
        cli.main(["rank", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert help_text.count("(required unless --query-file is given)") == 2


def test_rank_requires_entities(run_cli, fixture_corpus_path):
    code, _, err = run_cli(
        "rank", str(fixture_corpus_path), "--from", "1984-05-01", "--to", "1984-06-30"
    )
    assert code == 1
    assert "no entities of interest" in err


def test_rank_empty_corpus_exits_one(run_cli, tmp_path):
    path = tmp_path / "none.jsonl"
    path.write_text("junk\n")
    code, _, err = run_cli("rank", str(path), *RANK_FLAGS[2:], "--entity", "ent:a")
    assert code == 1
    assert "no documents" in err


def test_rank_reads_the_whole_corpus_only_when_no_line_it_reads_is_accepted(run_cli, fixture_corpus_path, tmp_path, forked, decoded):
    # Nothing names the entity. Line 0, which is always read, is accepted in
    # the fixture, so the answer is empty (exit 0). Otherwise rank reads the
    # file again from the start, up to the first accepted line: with none, the
    # corpus has no usable line (exit 1). It never forks.
    ghost = ["--entity", "ent:ghost", "--from", "1984-05-01", "--to", "1984-06-30"]
    assert run_cli("rank", str(fixture_corpus_path), *ghost) == (0, "", "")
    assert decoded == [1]
    junk = tmp_path / "junk.jsonl"
    junk.write_text('junk\n{"id": "x", "mentions": [{"entity": "ent:ghost", "count": 1}]}\n')
    assert run_cli("rank", str(junk), *ghost) == (1, "", "error: no documents ingested\n")
    late = tmp_path / "late.jsonl"
    late.write_text("junk\n" + fixture_corpus_path.read_text())
    assert run_cli("rank", str(late), *ghost) == (0, "", "")
    # Lines decoded by each pass: the fixture's line 0; both lines of junk,
    # then both again from the start; late's line 0, then its lines 0 and 1,
    # where the read stops at the first accepted line.
    assert decoded == [1, 2, 2, 1, 2]
    decoded.clear()
    assert run_cli(*fixture_args(fixture_corpus_path, "--explain")) == (0, golden("rank_all_month.tsv"), "")
    assert len(decoded) == 1
    assert forked == []


def test_rank_drops_a_document_whose_id_an_earlier_line_took(run_cli, tmp_path, forked, decoded):
    # d1 first comes on a line that names no query entity, so its later line,
    # which names one, is a duplicate; the \u0031 spells d1 with an escape.
    # Line 0 is always read in full, so d1 comes after it.
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(line + "\n" for line in (
        json.dumps({"id": "d0", "date": "1990-01-01", "mentions": [{"entity": "B", "count": 1}]}),
        json.dumps({"id": "d1", "date": "1990-01-02", "mentions": [{"entity": "B", "count": 1}]}),
        json.dumps({"id": "d2", "date": "1990-01-03", "mentions": [{"entity": "A", "count": 2}, {"entity": "B", "count": 1}]}),
        json.dumps({"id": "d1", "date": "1990-01-04", "mentions": [{"entity": "A", "count": 5}]}),
        '{"id": "d\\u0031", "date": "1990-01-05", "mentions": [{"entity": "A", "count": 7}]}',
        json.dumps({"id": "d3", "date": "1990-01-06", "mentions": [{"entity": "A", "count": 1}]}),
    )))
    flags = ["--entity", "A", "--from", "1990-01-01", "--to", "1990-01-31", "--explain"]
    code, out, err = run_cli("rank", str(path), *flags)
    passes = list(decoded)
    query = Query(entities=frozenset({"A"}), semantics=Semantics.ALL, start=date(1990, 1, 1),
                  end=date(1990, 1, 31), granularity=Granularity.MONTH)
    expected = io.StringIO()
    cli._emit(rank(build_index(load_corpus(path)[0]), query), "tsv", True, expected)
    assert (code, out, err) == (0, expected.getvalue(), "")
    assert sorted(line.split("\t")[1] for line in out.splitlines()) == ["d2", "d3"]
    # The five lines read in full keep d1 from line 3; line 1 shows d1 first,
    # so all six lines are ingested again, in file order. Nothing forks.
    assert (passes, forked) == ([5, 6], [])


def test_rank_missing_corpus_exits_two(run_cli, tmp_path):
    code, _, err = run_cli("rank", str(tmp_path / "gone.jsonl"), *RANK_FLAGS, "--entity", "x")
    assert code == 2
    assert "error" in err


def test_rank_reports_a_bad_query_before_reading_the_corpus(run_cli, tmp_path):
    code, out, err = run_cli("rank", str(tmp_path / "gone.jsonl"), *RANK_FLAGS, "--beta", "-1")
    assert (code, out) == (1, "")
    assert "invalid beta" in err


def test_rank_query_file_equivalent_to_flags(run_cli, fixture_corpus_path, tmp_path):
    qfile = tmp_path / "query.json"
    qfile.write_text(json.dumps({
        "entities": ["ent:a", "ent:b"],
        "semantics": "any",
        "from": "1984-05-01",
        "to": "1984-06-30",
        "granularity": "month",
        "beta": 0.5,
        "top_k": 3,
    }))
    code, out, _ = run_cli("rank", str(fixture_corpus_path), "--query-file", str(qfile), "--explain")
    assert code == 0
    assert out == "".join(golden("rank_any_month.tsv").splitlines(keepends=True)[:3])


def test_rank_query_file_conflicts_with_flags(run_cli, fixture_corpus_path, tmp_path):
    qfile = tmp_path / "query.json"
    qfile.write_text(json.dumps({"entities": ["ent:a"], "from": "1984-05-01", "to": "1984-06-30"}))
    code, _, err = run_cli(
        "rank", str(fixture_corpus_path), "--query-file", str(qfile), "--entity", "ent:b"
    )
    assert code == 1
    assert "cannot be combined" in err


@pytest.mark.parametrize("content", ["{bad", "[1,2]", '{"entities": ["ent:a"], "typo": 1, "from": "1984-05-01", "to": "1984-06-30"}'])
def test_rank_bad_query_file_exits_one(run_cli, fixture_corpus_path, tmp_path, content):
    qfile = tmp_path / "query.json"
    qfile.write_text(content)
    code, _, err = run_cli("rank", str(fixture_corpus_path), "--query-file", str(qfile))
    assert code == 1
    assert "error" in err


def test_rank_deeply_nested_query_file_exits_one(run_cli, fixture_corpus_path, tmp_path):
    qfile = tmp_path / "query.json"
    qfile.write_text("[" * 200000)
    code, out, err = run_cli("rank", str(fixture_corpus_path), "--query-file", str(qfile))
    assert code == 1
    assert out == ""
    assert "not valid JSON" in err


def test_rank_query_file_beta_beyond_float_range_exits_one(fixture_corpus_path, tmp_path):
    qfile = tmp_path / "query.json"
    qfile.write_text('{"entities": ["ent:a"], "from": "1984-05-01", "to": "1984-06-30", "beta": 1%s}' % ("0" * 400))
    proc = subprocess.run(
        [sys.executable, "-m", "chronorank.cli", "rank", str(fixture_corpus_path), "--query-file", str(qfile)],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "invalid beta" in proc.stderr


def test_rank_missing_query_file_exits_two(run_cli, fixture_corpus_path, tmp_path):
    code, _, _ = run_cli("rank", str(fixture_corpus_path), "--query-file", str(tmp_path / "gone.json"))
    assert code == 2


def test_stats_summary(run_cli, fixture_corpus_path):
    code, out, _ = run_cli("stats", str(fixture_corpus_path), "--granularity", "month")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "documents: 6"
    assert lines[1] == "entities: 4"
    assert lines[2] == "span: 1984-05-03..1984-06-20"
    assert lines[3] == "1984-05\t3"
    assert lines[4] == "1984-06\t3"


def test_stats_per_period_counts_sum_to_corpus_size(run_cli, tmp_path):
    path = tmp_path / "three.jsonl"
    path.write_text(
        '{"id": "a", "date": "1990-01-05", "mentions": []}\n'
        '{"id": "b", "date": "1990-01-25", "mentions": []}\n'
        '{"id": "c", "date": "1990-02-14", "mentions": []}\n'
    )
    code, out, _ = run_cli("stats", str(path), "--granularity", "month")
    assert code == 0
    rows = [line.split("\t") for line in out.splitlines() if "\t" in line]
    assert len(rows) == 2
    assert sum(int(count) for _, count in rows) == 3


def test_stats_empty_corpus_exits_one(run_cli, tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert run_cli("stats", str(path))[0] == 1


def test_stats_bad_granularity_exits_one(run_cli, fixture_corpus_path):
    assert run_cli("stats", str(fixture_corpus_path), "--granularity", "decade")[0] == 1


def test_stats_missing_file_exits_two(run_cli, tmp_path):
    assert run_cli("stats", str(tmp_path / "gone.jsonl"))[0] == 2


def test_rank_into_a_closed_pipe_exits_two_silently(tmp_path):
    """A reader that stops early (`| head -1`) closes stdout mid-output: the
    command exits 2 with nothing on stderr. The output is several times the
    pipe buffer, so the writer is still writing when the reader leaves."""
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": f"d{i:05d}", "date": "1990-01-15", "mentions": [{"entity": "A", "count": 1 + i % 7}]}) + "\n"
        for i in range(6000)
    ))
    proc = subprocess.Popen(
        [sys.executable, "-m", "chronorank.cli", "rank", str(corpus), "--entity", "A",
         "--from", "1990-01-01", "--to", "1990-01-31", "--explain"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    )
    try:
        assert proc.stdout.readline().startswith(b"1\t")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()  # does nothing once the child has exited
    assert proc.returncode == 2
    assert err == b""


@pytest.fixture
def in_parts(monkeypatch, forked):
    """The CLI splitting even a one-line corpus into up to four parts; the
    pids it forks."""
    monkeypatch.setattr(corpus_module, "_PART_FLOOR", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    return forked


def test_cli_ingest_in_parts_leaves_no_child_process(run_cli, fixture_corpus_path, tmp_path, in_parts):
    assert run_cli(*fixture_args(fixture_corpus_path, "--explain")) == (0, golden("rank_all_month.tsv"), "")
    mixed = tmp_path / "mixed.jsonl"
    mixed.write_text("".join(json.dumps({"id": i, "date": "1990-01-01", "mentions": []}) + "\n" for i in "abcab"))
    assert run_cli("validate", str(mixed)) == (0, "accepted: 3\nskipped: 2\nduplicate: 2\n", "")
    junk = tmp_path / "junk.jsonl"
    junk.write_text("junk\n" * 8)
    assert run_cli("rank", str(junk), *RANK_FLAGS) == (1, "", "error: no documents ingested\n")
    read_end, write_end = os.pipe()
    os.close(read_end)
    stdout = sys.stdout
    with open(write_end, "w") as closed:
        sys.stdout = closed
        try:
            code = cli.main(fixture_args(fixture_corpus_path))
        finally:
            sys.stdout = stdout
    assert code == 2
    # validate forks three children, one per part but its own; rank, even of a corpus with no usable line,
    # forks nothing.
    assert len(in_parts) == 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_with_a_live_thread_ingests_in_one_part(run_cli, fixture_corpus_path, in_parts):
    # Forking with another thread running can deadlock the child, and from
    # Python 3.12 warns; filterwarnings = error turns that warning into a
    # failure. validate is the one subcommand that can fork.
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(60,))
    thread.start()
    try:
        result = run_cli("validate", str(fixture_corpus_path))
    finally:
        stop.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert in_parts == []
    assert result == (0, "accepted: 6\nskipped: 0\n", "")


def run_on_a_pipe(data: bytes, *argv: str) -> tuple[int, str, str]:
    """Run the CLI in a child process whose stdin is a pipe fed data."""
    proc = subprocess.run(
        [sys.executable, "-m", "chronorank.cli", *argv], input=data, capture_output=True, env=child_env(), timeout=60
    )
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


@pytest.mark.parametrize("granularity", ["day", "week", "month", "year"])
def test_rank_reads_a_corpus_from_a_pipe(fixture_corpus_path, granularity):
    flags = [*RANK_FLAGS, "--granularity", granularity, "--explain"]
    result = run_on_a_pipe(fixture_corpus_path.read_bytes(), "rank", "/dev/stdin", *flags)
    assert result == (0, golden(f"rank_all_{granularity}.tsv"), "")


def test_rank_of_a_pipe_with_no_usable_line_is_a_domain_error():
    assert run_on_a_pipe(b"junk\n" * 8, "rank", "/dev/stdin", *RANK_FLAGS) == (1, "", "error: no documents ingested\n")


@pytest.mark.parametrize("command", [["validate"], ["stats", "--granularity", "week"]], ids=["validate", "stats"])
def test_validate_and_stats_read_a_pipe_as_they_read_the_file(run_cli, fixture_corpus_path, command):
    name, *flags = command
    from_file = run_cli(name, str(fixture_corpus_path), *flags)
    assert from_file[0] == 0
    assert run_on_a_pipe(fixture_corpus_path.read_bytes(), name, "/dev/stdin", *flags) == from_file


def test_rank_output_is_stable_across_hash_seeds(fixture_corpus_path):
    """Byte-identical stdout across processes with different hash seeds."""
    outputs = []
    for seed in ("0", "424242"):
        proc = subprocess.run(
            [sys.executable, "-m", "chronorank.cli", *fixture_args(fixture_corpus_path, "--semantics", "any", "--explain")[0:]],
            capture_output=True, env=child_env(PYTHONHASHSEED=seed), check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].decode() == golden("rank_any_month.tsv")


# The CLI boundary under hostile input. argv is drawn from the flag grammar,
# with each flag's value drawn from plausible, hostile and arbitrary strings;
# file arguments are drawn as Place tokens and resolved to real paths per
# example.


class Place(Enum):
    CORPUS = "fixture_corpus.jsonl"
    CATALOG = "fixture_catalog.jsonl"
    EMPTY = "empty.jsonl"
    MISSING = "missing.jsonl"
    DIRECTORY = "."
    QUERY = "query.json"


DATA_DIR = Path(__file__).parent / "data"


# Text that now and then holds a lone surrogate: a JSON escape ("\ud800")
# spells one, as a command line's undecodable bytes do, and no UTF-8 stream
# can print it.
def _text(max_size: int) -> st.SearchStrategy[str]:
    lone = st.tuples(st.text(max_size=max_size - 1), st.characters(categories=["Cs"])).map("".join)
    return st.text(max_size=max_size) | lone


def _values(*plausible: str) -> st.SearchStrategy[str]:
    return st.sampled_from(plausible) | _text(8)


def _main_through_a_pipe(argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI in-process with stdout encoding strictly to UTF-8 bytes,
    as a pipe's does; a StringIO would take any str and hide an encoding
    fault. Returns (exit code, stdout, stderr)."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors and --help
            code = exc.code
    out.flush()
    return code, out.buffer.getvalue().decode("utf-8"), err.getvalue()


ENTITIES = _values("ent:a", "ent:b", "ent:c", "ent:zz", "", " ", "\u3000", "ent a", "ent:\x00")
CATEGORIES = _values("cat:focus", "cat:none", "", " ")
DATES = _values(
    "1984-05-01", "1984-06-30", "0001-01-01", "9999-12-31", "1984-02-30", "1984-13-01",
    "\uff11\uff19\uff18\uff14-05-01", "1984-5-1", "1984-05-01T00:00", "",
)
NUMBERS = _values(
    "0.5", "0", "1", "3", "-1", "-0.0", "nan", "inf", "-inf", "1e400", "1e-400",
    "1" + "0" * 400, "9" * 5000, "0x10", "\uff11", " 2 ", "",
)
FILES = st.sampled_from(list(Place))
FLAG_VALUES = {
    "rank": {
        "--entity": ENTITIES,
        "--category": CATEGORIES,
        "--semantics": _values("all", "any", "ALL", "none"),
        "--from": DATES,
        "--to": DATES,
        "--granularity": _values("day", "week", "month", "year", "decade"),
        "--beta": NUMBERS,
        "--top": NUMBERS,
        "--format": _values("tsv", "records", "csv"),
        "--catalog": FILES,
        "--query-file": FILES,
    },
    "validate": {"--catalog": FILES},
    "stats": {"--granularity": _values("day", "week", "month", "year", "decade")},
}
SWITCHES = {"rank": ["--explain"], "validate": [], "stats": []}
STRAY = st.sampled_from(["--nope", "--oracle", "-z", "--", "-h", "--entity", "--from"]) | st.text(max_size=6)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
QUERY_OBJECTS = st.fixed_dictionaries({}, optional={
    "entities": st.lists(ENTITIES, max_size=3) | JSON_VALUES,
    "categories": st.lists(CATEGORIES, max_size=2) | JSON_VALUES,
    "semantics": st.sampled_from(["all", "any"]) | JSON_VALUES,
    "from": DATES | JSON_VALUES,
    "to": DATES | JSON_VALUES,
    "granularity": st.sampled_from(["day", "week", "month", "year"]) | JSON_VALUES,
    "beta": NUMBERS | JSON_VALUES,
    "top_k": NUMBERS | JSON_VALUES,
    "typo": JSON_VALUES,
})
QUERY_FILES = (QUERY_OBJECTS | JSON_VALUES).map(lambda value: json.dumps(value).encode()) | st.binary(max_size=16)


@st.composite
def argvs(draw) -> list[str | Place]:
    """A subcommand and corpus, a query for rank (flags, a query file, or
    none), then a few more flags that may override it; now and then a stray
    token, or the whole argv shuffled."""
    command = draw(st.sampled_from(["rank", "validate", "stats"]))
    argv: list[str | Place] = [command, draw(st.just(Place.CORPUS) | FILES)]
    if command == "rank":
        argv += draw(st.sampled_from([RANK_FLAGS, ["--query-file", Place.QUERY], []]))
    flags = FLAG_VALUES[command]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        choice = draw(st.sampled_from([*flags, *SWITCHES[command]]))
        argv += [choice, draw(flags[choice])] if choice in flags else [choice]
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        argv.insert(draw(st.integers(min_value=0, max_value=len(argv))), draw(STRAY))
    if draw(st.integers(min_value=0, max_value=9)) == 0:
        argv = draw(st.permutations(argv))
    return argv


@settings(max_examples=150)
@given(argv=argvs(), query_file=QUERY_FILES)
def test_cli_boundary_exits_cleanly_on_hostile_input(argv, query_file):
    """Any argv and query file: exit 0, 1 or 2, no traceback on stderr, and
    nothing on stdout unless the run succeeded."""
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        (scratch / Place.EMPTY.value).write_bytes(b"")
        (scratch / Place.QUERY.value).write_bytes(query_file)
        paths = {Place.CORPUS: DATA_DIR / Place.CORPUS.value, Place.CATALOG: DATA_DIR / Place.CATALOG.value}
        argv = [str(paths.get(arg, scratch / arg.value)) if isinstance(arg, Place) else arg for arg in argv]
        code, out, err = _main_through_a_pipe(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, (argv, err)
    # validate prints its tallies before an empty corpus makes it exit 1
    if code != 0 and not (argv[:1] == ["validate"] and code == 1):
        assert out == "", (argv, code, out)


# Corpus lines whose ids are arbitrary text, control characters, line breaks
# and lone surrogates included, dated in January 1990 and naming some of A, B
# and C.
ARBITRARY_ID_LINES = st.lists(
    st.builds(
        lambda doc_id, day, entities: json.dumps({
            "id": doc_id,
            "date": f"1990-01-{day:02d}",
            "mentions": [{"entity": e, "count": 1 + i} for i, e in enumerate(sorted(entities))],
        }),
        _text(6),
        st.integers(1, 31),
        st.sets(st.sampled_from("ABC"), max_size=3),
    ),
    max_size=8,
)


@settings(max_examples=150)
@given(lines=ARBITRARY_ID_LINES, semantics=st.sampled_from(["all", "any"]))
def test_rank_tsv_prints_one_seven_field_line_per_row_whatever_the_ids(lines, semantics):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = _main_through_a_pipe([
            "rank", str(path), "--entity", "A", "--entity", "B", "--semantics", semantics,
            "--from", "1990-01-01", "--to", "1990-01-31", "--explain",
        ])
        corpus, report = load_corpus(path)
    # the one failure rank may have is a corpus with no usable line
    assert code == 0 or report.accepted == 0, err
    query = Query(
        entities=frozenset({"A", "B"}), semantics=Semantics(semantics),
        start=date(1990, 1, 1), end=date(1990, 1, 31), granularity=Granularity.MONTH,
    )
    rows = [line.split("\t") for line in out.splitlines()]
    assert all(len(row) == 7 for row in rows), rows
    assert [row[0] for row in rows] == [str(n) for n in range(1, len(rows) + 1)]
    assert len(rows) == len(rank(build_index(corpus), query))


def test_a_lone_surrogate_id_is_malformed_not_half_printed(tmp_path):
    """Such an id has no UTF-8 form, so ingest skips its line instead of
    rank printing the rows before it and then failing."""
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(
        json.dumps({"id": doc_id, "date": "1990-01-05", "mentions": [{"entity": "A", "count": 1}]}) + "\n"
        for doc_id in ("a", "b\ud800")
    ))
    code, out, err = _main_through_a_pipe(["rank", str(path), "--entity", "A", "--from", "1990-01-01", "--to", "1990-01-31"])
    assert (code, err) == (0, "")
    assert [line.split("\t")[1] for line in out.splitlines()] == ["a"]
    code, out, _ = _main_through_a_pipe(["validate", str(path)])
    assert code == 0
    assert "malformed: 1" in out.splitlines()
