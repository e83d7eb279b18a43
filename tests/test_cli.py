"""Command line behaviour: outputs, formats, and exit codes."""

from __future__ import annotations

import io
import json
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronorank import cli
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


def test_rank_explain_matches_golden_all(run_cli, fixture_corpus_path):
    code, out, err = run_cli(*fixture_args(fixture_corpus_path, "--semantics", "all", "--explain"))
    assert code == 0
    assert err == ""
    assert out == golden("rank_all_month.tsv")


def test_rank_explain_matches_golden_any(run_cli, fixture_corpus_path):
    code, out, _ = run_cli(*fixture_args(fixture_corpus_path, "--semantics", "any", "--explain"))
    assert code == 0
    assert out == golden("rank_any_month.tsv")


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


def test_rank_top_one_emits_one_row(run_cli, fixture_corpus_path):
    code, out, _ = run_cli(*fixture_args(fixture_corpus_path, "--top", "1"))
    assert code == 0
    assert len(out.splitlines()) == 1


def test_rank_oracle_flag_reproduces_engine_output(run_cli, fixture_corpus_path):
    _, engine_out, _ = run_cli(*fixture_args(fixture_corpus_path, "--explain"))
    _, oracle_out, _ = run_cli(*fixture_args(fixture_corpus_path, "--explain", "--oracle"))
    assert oracle_out == engine_out


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


def test_rank_missing_corpus_exits_two(run_cli, tmp_path):
    code, _, err = run_cli("rank", str(tmp_path / "gone.jsonl"), *RANK_FLAGS, "--entity", "x")
    assert code == 2
    assert "error" in err


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


def _values(*plausible: str) -> st.SearchStrategy[str]:
    return st.sampled_from(plausible) | st.text(max_size=8)


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
SWITCHES = {"rank": ["--explain", "--oracle"], "validate": [], "stats": []}
STRAY = st.sampled_from(["--nope", "-z", "--", "-h", "--entity", "--from"]) | st.text(max_size=6)

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


@settings(max_examples=150, deadline=None)
@given(argv=argvs(), query_file=QUERY_FILES)
def test_cli_boundary_exits_cleanly_on_hostile_input(argv, query_file):
    """Any argv and query file: exit 0, 1 or 2, no traceback on stderr, and
    nothing on stdout unless the run succeeded."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        (scratch / Place.EMPTY.value).write_bytes(b"")
        (scratch / Place.QUERY.value).write_bytes(query_file)
        paths = {Place.CORPUS: DATA_DIR / Place.CORPUS.value, Place.CATALOG: DATA_DIR / Place.CATALOG.value}
        argv = [str(paths.get(arg, scratch / arg.value)) if isinstance(arg, Place) else arg for arg in argv]
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors and --help
                code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
    # validate prints its tallies before an empty corpus makes it exit 1
    if code != 0 and not (argv[:1] == ["validate"] and code == 1):
        assert out.getvalue() == "", (argv, code, out.getvalue())
