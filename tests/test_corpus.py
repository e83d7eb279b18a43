"""Ingest behaviour: what gets accepted, what gets skipped, and why."""

from __future__ import annotations

import errno
import gc
import hashlib
import importlib.util
import json
import os
import random
import sys
import tempfile
from dataclasses import FrozenInstanceError, replace
from datetime import date
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronorank import Granularity, Query, Semantics, build_index, load_corpus, parse_corpus, parse_entity_catalog, rank
from chronorank import corpus as corpus_module
from chronorank.corpus import (
    SKIP_DATELESS,
    SKIP_DUPLICATE,
    SKIP_MALFORMED,
    Corpus,
    Document,
    IngestReport,
    _ingest_span,
    _load_naming,
    _merge,
    is_valid_entity_id,
    load_in_parts,
)

from helpers import make_doc, random_case, reference_parse_corpus


def record(doc_id, day, mentions):
    payload = {"id": doc_id, "date": day, "mentions": [{"entity": e, "count": c} for e, c in mentions]}
    return json.dumps(payload)


GOOD_1 = record("a1", "1990-02-11", [("ent:x", 2)])
GOOD_2 = record("a2", "1990-02-12", [("ent:x", 1), ("ent:y", 3)])


def test_two_clean_records():
    corpus, report = parse_corpus([GOOD_1, GOOD_2])
    assert report.accepted == 2
    assert report.skipped == 0
    assert len(corpus) == 2
    assert corpus.documents[0].published_at == date(1990, 2, 11)
    assert corpus.documents[1].mentions == {"ent:x": 1, "ent:y": 3}
    assert corpus.entity_universe == {"ent:x", "ent:y"}


def test_bad_date_is_tallied_dateless():
    corpus, report = parse_corpus([GOOD_1, record("a2", "1990-13-99", [("ent:x", 1)])])
    assert report.accepted == 1
    assert report.skipped == 1
    assert report.reasons[SKIP_DATELESS] == 1
    assert [d.id for d in corpus.documents] == ["a1"]


def test_missing_date_is_dateless():
    line = json.dumps({"id": "a9", "mentions": []})
    _, report = parse_corpus([line])
    assert report.reasons[SKIP_DATELESS] == 1


def test_non_string_date_is_dateless():
    line = json.dumps({"id": "a9", "date": 1990, "mentions": []})
    _, report = parse_corpus([line])
    assert report.reasons[SKIP_DATELESS] == 1


def test_time_suffix_is_truncated_not_rejected():
    corpus, report = parse_corpus([record("a1", "1990-02-11T14:30:00Z", [("ent:x", 2)])])
    assert report.accepted == 1
    assert corpus.documents[0].published_at == date(1990, 2, 11)


def test_duplicate_id_keeps_first_record():
    corpus, report = parse_corpus(
        [GOOD_1, record("a1", "1991-01-01", [("ent:z", 5)])]
    )
    assert report.accepted == 1
    assert report.reasons[SKIP_DUPLICATE] == 1
    assert corpus.documents[0].mentions == {"ent:x": 2}


def test_a_record_naming_no_wanted_entity_still_shadows_a_later_duplicate():
    lines = [record("a1", "1990-02-11", [("ent:z", 1)]), record("a1", "1990-02-12", [("ent:x", 1)])]
    corpus, report = parse_corpus(lines, mentioning=frozenset({"ent:x"}))
    assert corpus.documents == []
    assert report.accepted == 1
    assert report.reasons == {SKIP_DUPLICATE: 1}


@pytest.mark.parametrize("mentioning", [None, frozenset({"ent:x"})])
def test_a_skipped_record_shadows_no_later_duplicate(mentioning):
    lines = [
        record("a1", "1990-02-11", [("ent:x", 0)]),
        record("a1", "1990-02-30", [("ent:x", 1)]),
        record("a1", "1990-02-12", [("ent:x", 2)]),
    ]
    corpus, report = parse_corpus(lines, mentioning=mentioning)
    assert [(d.id, d.mentions) for d in corpus.documents] == [("a1", {"ent:x": 2})]
    assert report.accepted == 1
    assert report.reasons == {SKIP_MALFORMED: 1, SKIP_DATELESS: 1}


def test_repeated_mention_entity_is_malformed():
    line = json.dumps(
        {"id": "a1", "date": "1990-02-11",
         "mentions": [{"entity": "ent:x", "count": 2}, {"entity": "ent:x", "count": 3}]}
    )
    corpus, report = parse_corpus([line])
    assert report.accepted == 0
    assert report.reasons[SKIP_MALFORMED] == 1
    assert len(corpus) == 0


@pytest.mark.parametrize(
    "count",
    [0, -1, 2.0, 1.0, "2", True, None],
)
def test_bad_mention_count_is_malformed(count):
    line = json.dumps({"id": "a1", "date": "1990-02-11", "mentions": [{"entity": "ent:x", "count": count}]})
    _, report = parse_corpus([line])
    assert report.reasons[SKIP_MALFORMED] == 1


@pytest.mark.parametrize("entity", ["", "has space", "tab\there", "ctl\x01", None, 7])
def test_bad_mention_entity_is_malformed(entity):
    line = json.dumps({"id": "a1", "date": "1990-02-11", "mentions": [{"entity": entity, "count": 1}]})
    _, report = parse_corpus([line])
    assert report.reasons[SKIP_MALFORMED] == 1


@pytest.mark.parametrize(
    "line",
    [
        "not json at all",
        "[1, 2, 3]",
        '"just a string"',
        json.dumps({"date": "1990-02-11", "mentions": []}),
        json.dumps({"id": "", "date": "1990-02-11", "mentions": []}),
        json.dumps({"id": 12, "date": "1990-02-11", "mentions": []}),
        json.dumps({"id": "a1", "date": "1990-02-11"}),
        json.dumps({"id": "a1", "date": "1990-02-11", "mentions": {"ent:x": 2}}),
        json.dumps({"id": "a1", "date": "1990-02-11", "mentions": ["ent:x"]}),
    ],
)
def test_malformed_lines(line):
    _, report = parse_corpus([line])
    assert report.accepted == 0
    assert report.reasons[SKIP_MALFORMED] == 1


DEEP_NESTING = "[" * 200000
LONG_INTEGER = json.dumps({"id": "a1", "date": "1990-02-11", "mentions": [{"entity": "ent:x", "count": 1}]}).replace(
    '"count": 1', '"count": ' + "9" * 5000
)


def test_document_id_with_a_control_character_or_line_break_is_malformed():
    # Such an id would print as several tsv rows, one of them forged, or, with
    # a lone surrogate, not print at all.
    bad = ["evil\n2\tfake\t9.999999", "a\tb", "a\rb", "a\x00b", "a\x7fb", "a\x85b", "a\x9fb", "a\u2028b", "a\u2029b", "a\ud800b"]
    lines = [record(doc_id, "1990-01-05", [("A", 1)]) for doc_id in [*bad, "a b", "a\u00a0b"]]
    corpus, report = parse_corpus(lines)
    assert [d.id for d in corpus.documents] == ["a b", "a\u00a0b"]
    assert report.reasons == {SKIP_MALFORMED: len(bad)}


@pytest.mark.parametrize(
    "parse,line",
    [
        (parse_corpus, DEEP_NESTING),
        (parse_entity_catalog, DEEP_NESTING),
        (parse_corpus, LONG_INTEGER),
    ],
    ids=["corpus-deep-nesting", "catalog-deep-nesting", "corpus-long-integer"],
)
def test_unparseable_json_is_malformed_not_raised(parse, line):
    good = GOOD_1 if parse is parse_corpus else json.dumps({"entity": "ent:a", "categories": ["cat:1"]})
    _, report = parse([line, good])
    assert report.accepted == 1
    assert report.skipped == 1
    assert report.reasons[SKIP_MALFORMED] == 1


def test_leading_byte_order_mark_is_stripped(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(GOOD_1 + "\n" + GOOD_2 + "\n", encoding="utf-8-sig")
    corpus, report = load_corpus(path)
    assert report.accepted == 2
    assert report.skipped == 0
    assert [d.id for d in corpus.documents] == ["a1", "a2"]
    catalog, cat_report = parse_entity_catalog(["\ufeff" + json.dumps({"entity": "ent:a"})])
    assert cat_report.accepted == 1
    assert "ent:a" in catalog


def test_byte_order_mark_after_the_first_line_is_malformed():
    _, report = parse_corpus([GOOD_1, "\ufeff" + GOOD_2])
    assert report.accepted == 1
    assert report.reasons[SKIP_MALFORMED] == 1


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
mentions = st.lists(
    st.fixed_dictionaries({"entity": st.text(max_size=6) | json_values, "count": st.integers(-1, 4) | json_values}),
    max_size=3,
)
near_records = st.fixed_dictionaries(
    {},
    optional={
        "id": st.sampled_from(["a1", "a2", ""]) | json_values,
        "date": st.sampled_from(["1990-02-11", "1990-02-30", "1990-02-11T09:00"]) | st.text(max_size=12),
        "mentions": mentions | json_values,
        "entity": st.sampled_from(["ent:a", "ent b", ""]) | json_values,
        "categories": st.lists(st.text(max_size=4), max_size=3) | json_values,
    },
)
# Values on which a parse by json.loads and one by its scanner alone could
# part ways, each framed by characters that str.strip drops and JSON does not
# skip (U+3000, U+001C, U+0085), by a BOM, or by data after the value.
_EDGE_RECORD = '{"id": "edge", "date": "1990-02-11", "mentions": [{"entity": "ent:a", "count": %s}]}'
EDGE_VALUES = [
    _EDGE_RECORD % "1",
    _EDGE_RECORD % "NaN",
    _EDGE_RECORD % "Infinity",
    _EDGE_RECORD % "-Infinity",
    _EDGE_RECORD % ("9" * 5000),
    # Deeper than any interpreter's recursion limit, the C one included.
    '{"a": ' * 100_000 + "1" + "}" * 100_000,
    "NaN",
]
EDGE_PREFIXES = ["", "\u3000", "\x1c", "\x85", "\ufeff"]
EDGE_SUFFIXES = ["", "\u3000", "\x1c", "\x85", " x", " {}", "x"]
scanner_edges = st.builds(
    lambda prefix, value, suffix: prefix + value + suffix,
    st.sampled_from(EDGE_PREFIXES),
    st.sampled_from(EDGE_VALUES),
    st.sampled_from(EDGE_SUFFIXES),
)
EDGE_LINES = [
    *(prefix + EDGE_VALUES[0] for prefix in EDGE_PREFIXES),
    *(EDGE_VALUES[0] + suffix for suffix in EDGE_SUFFIXES),
    *EDGE_VALUES[1:],
]
fuzz_lines = st.lists(
    st.one_of(
        st.text(),
        st.binary(),
        json_values.map(json.dumps),
        near_records.map(json.dumps),
        near_records.map(lambda r: json.dumps(r).encode("utf-8")),
        scanner_edges,
    ),
    max_size=8,
)


def non_blank_lines(lines) -> int:
    """Lines ingest must account for: not UTF-8, or non-blank once decoded
    (a BOM opening the first line does not count)."""
    count = 0
    for number, line in enumerate(lines):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                count += 1
                continue
        if number == 0:
            line = line.removeprefix("\ufeff")
        count += bool(line.strip())
    return count


@settings(max_examples=300)
@given(lines=fuzz_lines)
def test_fuzzed_lines_never_abort_ingest(lines):
    for parse in (parse_corpus, parse_entity_catalog):
        _, report = parse(lines)
        assert report.accepted + report.skipped == non_blank_lines(lines)
        assert sum(report.reasons.values()) == report.skipped


# A small pool of ids and counts, so that an id already validated comes back
# with a bad count, as a repeat, or next to a non-dict item.
pool_mention = st.fixed_dictionaries(
    {
        "entity": st.sampled_from(["ent:a", "ent:b", "ent b", ""]),
        "count": st.sampled_from([1, 2, True, 2.0, 0, "1"]),
    }
)
pool_records = st.fixed_dictionaries(
    {
        "id": st.sampled_from(["a1", "a2", "a3", "", "a\tb", "a\nb", "a b", "a\ud800b"]),
        "date": st.sampled_from(["1990-02-11", "1990-02-11T09:00", "1990-02-30"]),
        "mentions": st.lists(pool_mention, max_size=3)
        | st.lists(pool_mention, max_size=2).map(lambda items: [*items, None]),
    }
)


@settings(max_examples=300)
@given(lines=st.lists(pool_records.map(json.dumps) | near_records.map(json.dumps) | scanner_edges, max_size=6))
@example(lines=EDGE_LINES)
def test_ingest_matches_the_reference_parser(lines):
    # Every line comes twice: its ids are new to parse_corpus the first time
    # and already validated the second, and a line 0 with a BOM comes again
    # later, where the BOM makes it malformed.
    lines = lines + lines
    corpus, report = parse_corpus(lines)
    documents, reasons = reference_parse_corpus(lines)
    assert [(d.id, d.published_at, list(d.mentions.items())) for d in corpus.documents] == [
        (d.id, d.published_at, list(d.mentions.items())) for d in documents
    ]
    assert report.reasons == reasons
    assert report.accepted == len(documents)


def fields(corpus, report):
    """Everything ingest returns, field for field: document order, mention
    order, accepted and the reason tallies (with no zero tally)."""
    documents = [(d.id, d.published_at, list(d.mentions.items())) for d in corpus.documents]
    return documents, report.accepted, dict(report.reasons)


def tallies(report):
    """accepted and the reason tallies (with no zero tally) of a report."""
    return report.accepted, dict(report.reasons)


def ingest_between(path, cuts):
    """Ingest path's byte ranges between the cuts one by one, in this
    process, and merge their reports."""
    bounds = [0, *cuts, os.path.getsize(path)]
    with open(path, "rb") as handle:
        return _merge([_ingest_span(handle, start, end) for start, end in zip(bounds, bounds[1:])])


@settings(max_examples=200)
@given(
    lines=st.lists(
        pool_records.map(json.dumps)
        | near_records.map(json.dumps)
        | pool_records.map(lambda r: "\ufeff" + json.dumps(r))
        | st.sampled_from(["", "  "]),
        max_size=6,
    ),
    crlf=st.lists(st.booleans(), min_size=12, max_size=12),
    final_newline=st.booleans(),
    data=st.data(),
)
def test_parts_merge_into_what_the_whole_file_gives(lines, crlf, final_newline, data):
    # Every line comes twice, so an id can recur in a later part.
    lines = lines + lines
    endings = ["\r\n" if c else "\n" for c in crlf[: len(lines)]]
    if lines and not final_newline:
        endings[-1] = ""
    raw = [(line + ending).encode("utf-8") for line, ending in zip(lines, endings)]
    breaks = [sum(map(len, raw[:n])) for n in range(len(raw) + 1)]
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "corpus.jsonl")
        with open(path, "wb") as handle:
            handle.write(b"".join(raw))
        whole = tallies(load_corpus(path)[1])
        for parts in range(1, 5):
            cuts = sorted(data.draw(st.lists(st.sampled_from(breaks), min_size=parts - 1, max_size=parts - 1)))
            assert tallies(ingest_between(path, cuts)) == whole, cuts


@pytest.mark.parametrize(
    "first,second,expected",
    [
        # skipped as dateless before the cut, so the id's record after it is the first
        (
            [record("a1", "1990-02-30", [("ent:x", 1)])],
            [record("a1", "1990-02-11", [("ent:x", 2)])],
            ([("a1", date(1990, 2, 11), [("ent:x", 2)])], 1, {SKIP_DATELESS: 1}),
        ),
        # accepted before the cut, then repeated twice after it
        (
            [record("a1", "1990-02-11", [("ent:x", 1)])],
            [record("a1", "1990-02-12", [("ent:x", 2)]), record("a1", "1990-02-13", [("ent:y", 3)])],
            ([("a1", date(1990, 2, 11), [("ent:x", 1)])], 1, {SKIP_DUPLICATE: 2}),
        ),
    ],
    ids=["dateless-then-accepted", "accepted-then-two-duplicates"],
)
def test_the_duplicate_rule_reaches_across_a_cut(tmp_path, first, second, expected):
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(line + "\n" for line in first + second))
    cut = len("".join(line + "\n" for line in first).encode("utf-8"))
    assert tallies(ingest_between(path, [cut])) == expected[1:]
    assert fields(*load_corpus(path)) == expected


def three_part_corpus(path):
    """A corpus whose ids recur across thirds of the file, with a BOM, CRLF,
    blank, malformed and dateless lines."""
    lines = []
    for i in range(30):
        lines.append(record(f"d{i % 11}", "1990-02-30" if i % 7 == 3 else f"1990-02-{1 + i % 28:02d}",
                            [("ent:x", 1 + i % 3), (f"ent:{i % 5}", 1)][: 1 + i % 2]))
        if i % 9 == 4:
            lines += ["", "not json"]
    path.write_bytes(("\ufeff" + "\r\n".join(lines) + "\r\n").encode("utf-8"))


@pytest.fixture
def received(monkeypatch):
    """The part load_in_parts receives from each child, None if none, in
    part order."""
    parts = []
    receive = corpus_module._receive

    def recording_receive(pid, pipe):
        parts.append(receive(pid, pipe))
        return parts[-1]

    monkeypatch.setattr(corpus_module, "_receive", recording_receive)
    return parts


def test_ingest_in_forked_parts_equals_load_corpus(tmp_path, forked, received):
    path = tmp_path / "corpus.jsonl"
    three_part_corpus(path)
    assert tallies(load_in_parts(path, 3)) == tallies(load_corpus(path)[1])
    assert len(forked) == 2
    # Every child sends its part: the ids it accepted and its tallies.
    assert [part is not None for part in received] == [True, True]


@pytest.mark.parametrize("failure", ["raises", "sends-garbage"])
def test_a_part_whose_child_fails_is_ingested_by_the_parent(tmp_path, forked, received, monkeypatch, failure):
    path = tmp_path / "corpus.jsonl"
    three_part_corpus(path)
    parent = os.getpid()
    parse_records, dump = corpus_module._parse_records, corpus_module.pickle.dump

    def raising_in_a_child(*args):
        if os.getpid() != parent:
            raise RuntimeError("a child's ingest fails")
        return parse_records(*args)

    def garbage_from_a_child(obj, pipe, **kwargs):
        if os.getpid() == parent:
            return dump(obj, pipe, **kwargs)
        pipe.write(b"not a pickle")

    if failure == "raises":
        monkeypatch.setattr(corpus_module, "_parse_records", raising_in_a_child)
    else:
        monkeypatch.setattr(corpus_module.pickle, "dump", garbage_from_a_child)
    assert tallies(load_in_parts(path, 3)) == tallies(load_corpus(path)[1])
    assert (len(forked), received) == (2, [None, None])


def test_a_part_with_no_pipe_is_ingested_by_the_parent(tmp_path, forked, monkeypatch):
    path = tmp_path / "corpus.jsonl"
    three_part_corpus(path)

    def no_pipe():
        raise OSError(errno.EMFILE, "Too many open files")

    monkeypatch.setattr(os, "pipe", no_pipe)
    assert tallies(load_in_parts(path, 3)) == tallies(load_corpus(path)[1])
    assert forked == []


def test_an_error_after_a_child_is_reaped_propagates_unchanged(tmp_path, forked, monkeypatch):
    path = tmp_path / "corpus.jsonl"
    three_part_corpus(path)

    # Raised as decoding a reaped child's part begins, as a KeyboardInterrupt
    # would be: a BaseException, which the guard around the decoding lets pass.
    class Interrupted(BaseException):
        pass

    def interrupted(payload):
        raise Interrupted

    monkeypatch.setattr(corpus_module.pickle, "loads", interrupted)
    with pytest.raises(Interrupted):
        load_in_parts(path, 3)
    assert len(forked) == 2
    with pytest.raises(ChildProcessError):  # every child is reaped
        os.waitpid(-1, os.WNOHANG)


# Records under a few shared ids, naming ent:a, ent:b, ent:é or a lone
# surrogate, or else ent:c, which no query names: so a kept document can be
# shadowed by an earlier line that names no query entity, or repeated by a
# later one.
naming_records = st.fixed_dictionaries(
    {
        "id": st.sampled_from(["a1", "a2"]),
        "date": st.sampled_from(["1990-02-11", "1990-02-12", "1990-02-30"]),
        "mentions": st.lists(
            st.fixed_dictionaries(
                {"entity": st.sampled_from(["ent:a", "ent:a", "ent:b", "ent:\u00e9", "ent:\ud800"]), "count": st.sampled_from([1, 2])}
            ),
            min_size=1,
            max_size=2,
            unique_by=lambda item: item["entity"],
        ),
    }
)
bystander_records = st.builds(
    lambda doc_id: {"id": doc_id, "date": "1990-02-11", "mentions": [{"entity": "ent:c", "count": 1}]},
    st.sampled_from(["a1", "a2"]),
)
# Ways to spell a record's JSON that a byte-level filter must see through.
SPELLINGS = [
    lambda text: text,
    lambda text: text.replace('"ent:a"', '"\\u0065nt:a"'),  # escaped entity value
    lambda text: text.replace('"a1"', '"\\u00611"'),  # escaped id value
    lambda text: text.replace('": ', '" \t:\r '),  # whitespace around the colon
    lambda text: text.replace("}", ', "x": {"id": "a2", "entity": "ent:a"}}', 1),  # nested keys
    lambda text: '{"id": "a3", ' + text[1:],  # a repeated id key, the first one
    lambda text: text[:-1] + ', "id": "a2"}',  # a repeated id key, the last one
]
BOM = b"\xef\xbb\xbf"


def spelt(record, ensure_ascii, spelling, prefix, suffix):
    text = spelling(json.dumps(record, ensure_ascii=ensure_ascii))
    return prefix + text.encode("utf-8", "surrogatepass") + suffix


filter_lines = st.builds(
    spelt,
    st.one_of(naming_records, naming_records, bystander_records, pool_records | near_records),
    st.booleans(),
    st.sampled_from(SPELLINGS),
    st.sampled_from([b"", b"", b"", BOM]),
    st.sampled_from([b"", b"", b"", b"", b"\xff"]),  # invalid UTF-8
)


def mostly_candidates(size):
    """size lines, three in four naming ent:a, ent:b and ent:é, escaped; the
    others name ent:c, the first of them under id a3."""
    return [
        record("a3" if i == 3 else f"q{i}", "1990-02-11", [("ent:c", 1)]) if i % 4 == 3
        else record(f"p{i}", "1990-02-11", [("ent:a", 1), ("ent:b", 1), ("ent:\u00e9", 1)])
        for i in range(size)
    ]


def kept_fields(corpus):
    return fields(corpus, IngestReport())[0]


def naming(doc_id, entity="ent:a"):
    return record(doc_id, "1990-02-11", [(entity, 1)]).encode("utf-8")


# Query entities that no line names: with them, a query has more entities
# than _load_naming finds by byte scans, so it tests each line instead.
PADDING = frozenset(f"ent:p{i}" for i in range(corpus_module._FIND_ENTITIES))


def filter_example(lines, entities=frozenset({"ent:a"}), start=0):
    return example(lines=lines, crlf=[False] * 10, final_newline=True, entities=entities, start=start)


# The query entities a filter test draws: up to two, found by byte scans, or
# the same with PADDING, tested line by line.
filter_entities = st.builds(
    lambda names, padded: frozenset(names.split()) | (PADDING if padded else frozenset()),
    st.sampled_from(["ent:a", "ent:a", "ent:b", "ent:a ent:b", "ent:\u00e9", "ent:\ud800", "ent:zz"]),
    st.booleans(),
)


def written(folder, raw):
    path = os.path.join(folder, "corpus.jsonl")
    with open(path, "wb") as handle:
        handle.write(raw)
    return path


def assert_keeps_what_load_corpus_keeps(path, entities):
    expected, accepted, _ = fields(*load_corpus(path, mentioning=entities))
    kept, usable = _load_naming(path, entities)
    assert kept_fields(kept) == expected
    assert usable == (accepted > 0)


@settings(max_examples=300)
# After line 0, which is always read: a1 taken by the line just before its
# line that names ent:a, spelt plainly or with an escape. A BOM on the first
# line read after line 0. a1 taken at line 1023, the last line tested, with
# a document kept after it: with one entity, found by byte scans, and with
# PADDING, tested line by line up to there.
@filter_example([b"{}", naming("a1", "ent:c"), naming("a1")])
@filter_example([b"{}", naming("a1", "ent:c"), naming("a1").replace(b'"a1"', b'"\\u00611"')])
@filter_example([naming("a2", "ent:c"), BOM + naming("a1")])
@filter_example([b"{}", b"{}", b"{}", naming("a1", "ent:c"), naming("a1"), naming("a2")], start=1020)
@filter_example(
    [b"{}", b"{}", b"{}", naming("a1", "ent:c"), naming("a1"), naming("a2")], entities=PADDING | {"ent:a"}, start=1020
)
@given(
    lines=st.lists(filter_lines, min_size=2, max_size=10),
    crlf=st.lists(st.booleans(), min_size=10, max_size=10),
    final_newline=st.booleans(),
    entities=filter_entities,
    # With 1020 lines before them, the test stops at the fourth drawn line.
    start=st.sampled_from([0, 0, 0, 1020]),
)
def test_reading_the_candidate_lines_keeps_what_load_corpus_keeps(lines, crlf, final_newline, entities, start):
    endings = [b"\r\n" if c else b"\n" for c in crlf[: len(lines)]]
    if lines and not final_newline:
        endings[-1] = b""
    raw = [line.encode("utf-8") + b"\n" for line in mostly_candidates(start)]
    raw += [line + ending for line, ending in zip(lines, endings)]
    with tempfile.TemporaryDirectory() as folder:
        assert_keeps_what_load_corpus_keeps(written(folder, b"".join(raw)), entities)


@settings(max_examples=200)
# A gap of two blocks whose second line takes a1 first. An "id" value left
# open, which the scan of a gap must not run on into the next line, where a1
# is taken first. Lines longer than a block, blocks cut between \r and \n,
# and a BOM on a later line, which only line 0 loses.
@example(
    lines=[b"{}\n", naming("a3", "ent:c") + b"\n", naming("a1", "ent:c") + b"\n", naming("a1") + b"\n"],
    final_newline=True,
    entities=frozenset({"ent:a"}),
    block=1,
)
@example(
    lines=[b"{}\n", b'{"id": "x\n', naming("a1", "ent:c") + b"\n", naming("a1") + b"\n"],
    final_newline=True,
    entities=frozenset({"ent:a"}),
    block=64,
)
@example(
    lines=[naming("a1", "ent:c") + b"\r\n", BOM + naming("a1") + b"\n", naming("a2")],
    final_newline=False,
    entities=frozenset({"ent:a"}),
    block=7,
)
@example(
    lines=[BOM + naming("a1") + b"\r\n", BOM + naming("a2") + b"\r\n"],
    final_newline=True,
    entities=PADDING | {"ent:a"},
    block=1,
)
@given(
    lines=st.lists(
        st.tuples(filter_lines, st.sampled_from([b"\n", b"\r\n", b"\r\n"])).map(b"".join), min_size=1, max_size=8
    ),
    final_newline=st.booleans(),
    entities=filter_entities,
    block=st.sampled_from([1, 7, 64]),
)
def test_candidate_lines_cut_across_blocks_keep_what_load_corpus_keeps(lines, final_newline, entities, block):
    # Blocks this small cut inside a line, between \r and \n and inside a
    # needle; most lines are longer than a block.
    raw = b"".join(lines)
    if not final_newline:
        raw = raw.rstrip(b"\r\n")
    with tempfile.TemporaryDirectory() as folder, mock.patch.object(corpus_module, "_BLOCK", block):
        assert_keeps_what_load_corpus_keeps(written(folder, raw), entities)


class CountingFindall:
    """A compiled pattern whose findall calls are counted."""

    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def findall(self, *args):
        self.calls += 1
        return self.pattern.findall(*args)


@pytest.fixture
def counted(monkeypatch):
    """The counted findall of _ENTITY_VALUE_RE and _ID_VALUE_RE, by name."""
    patterns = {name: CountingFindall(getattr(corpus_module, name)) for name in ("_ENTITY_VALUE_RE", "_ID_VALUE_RE")}
    for name, pattern in patterns.items():
        monkeypatch.setattr(corpus_module, name, pattern)
    return patterns


def test_past_a_start_of_mostly_candidates_every_line_is_read_untested(tmp_path, counted):
    later = [
        record(f"r{i}", "1990-02-12", [("ent:a" if i % 5 == 0 else "ent:d", 1)]) for i in range(2000)
    ]
    # a3 is taken at line 3, which names no query entity, so these are duplicates
    later[1501] = record("a3", "1990-02-13", [("ent:a", 2)])
    later[1701] = record("a3", "1990-02-14", [("ent:a", 3)])
    # and line 1023, the last line tested, takes s1
    later[3] = record("s1", "1990-02-13", [("ent:d", 1)])
    later[1801] = record("s1", "1990-02-14", [("ent:a", 1)])
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(line + "\n" for line in mostly_candidates(1020) + later))
    # More entities than byte scans find, so each line is tested until the switch.
    entities = PADDING | {"ent:a"}
    expected = fields(*load_corpus(path, mentioning=entities))[0]
    assert kept_fields(_load_naming(path, entities)[0]) == expected
    assert len(expected) == 765 + 400 and not {"a3", "s1"} & {doc_id for doc_id, _, _ in expected}
    # Only lines 1 to 1023 with no backslash are tested: the prefix's 255
    # that name ent:c and the first 4 of the later lines.
    assert counted["_ENTITY_VALUE_RE"].calls == 255 + 4


def test_a_start_with_a_third_candidates_is_tested_throughout(tmp_path, counted):
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(
        record(f"d{i}", "1990-02-11", [("ent:a" if i % 3 == 0 else "ent:b", 1)]) + "\n" for i in range(3000)
    ))
    entities = PADDING | {"ent:a"}
    assert kept_fields(_load_naming(path, entities)[0]) == fields(*load_corpus(path, mentioning=entities))[0]
    # every line but line 0, which is read untested
    assert counted["_ENTITY_VALUE_RE"].calls == 2999


def test_a_few_entities_are_found_by_byte_scans_and_gaps_scanned_whole(tmp_path, counted):
    lines = [record(f"d{i}", "1990-02-11", [("ent:x", 1)]) for i in range(30)]
    for i in (5, 12, 20):
        lines[i] = record(f"d{i}", "1990-02-11", [("topic:alpha", 1), ("ent:x", 2)])
    lines[9] = record("d20", "1990-02-11", [("ent:x", 1)])  # takes d20 before its line
    lines[15] = record("d5", "1990-02-11", [("ent:x", 1)])  # repeats d5 after its line
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    entities = frozenset({"topic:alpha", "topic:beta"})
    expected = fields(*load_corpus(path, mentioning=entities))[0]
    assert [doc_id for doc_id, _, _ in expected] == ["d5", "d12"]
    assert kept_fields(_load_naming(path, entities)[0]) == expected
    assert counted["_ENTITY_VALUE_RE"].calls == 0
    # Lines 0, 5, 12 and 20 are read. One scan for each of the three gaps
    # before line 20; the two that show a kept id are scanned again line by
    # line: lines 6-11 (line 9 shadows d20) and lines 13-19 (line 15 does not).
    assert counted["_ID_VALUE_RE"].calls == 3 + 6 + 7


def bench_gen():
    """bench/gen.py, the benchmark's corpus generator, imported from its file."""
    spec = importlib.util.spec_from_file_location("bench_gen", Path(__file__).parents[1] / "bench" / "gen.py")
    module = sys.modules["bench_gen"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOPIC_PAIR = frozenset({"topic:alpha", "topic:beta"})


@pytest.fixture(scope="module")
def seed1_path(tmp_path_factory):
    """The path of the seed-1 benchmark corpus, 101,000 lines."""
    path = tmp_path_factory.mktemp("seed1") / "corpus.jsonl"
    bench_gen().write_corpus(path, 1)
    return path


@pytest.fixture(scope="module")
def seed1(seed1_path):
    """The seed-1 benchmark corpus: its lines, the topic pair's kept
    documents, and the id and line number of one of them, near the middle
    of the file."""
    lines = seed1_path.read_bytes().splitlines(keepends=True)
    kept, usable = _load_naming(seed1_path, TOPIC_PAIR)
    assert usable
    doc_id = kept.documents[len(kept) // 2].id
    at = next(n for n, line in enumerate(lines) if line.startswith(b'{"id": "%s"' % doc_id.encode()))
    return lines, kept, doc_id, at


def ranked(corpus):
    query = Query(entities=TOPIC_PAIR, semantics=Semantics.ALL, start=date(1988, 1, 1), end=date(1990, 12, 31),
                  granularity=Granularity.MONTH)
    return rank(build_index(corpus), query)


def with_line_before(seed1, tmp_path, line):
    """The seed-1 corpus with line inserted 40 lines before the kept document."""
    lines, _, _, at = seed1
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b"".join([*lines[: at - 40], line.encode() + b"\n", *lines[at - 40 :]]))
    return path


def test_a_dateless_line_that_shows_a_kept_id_first_changes_nothing_at_scale(seed1, tmp_path, decoded):
    _, kept, doc_id, _ = seed1
    path = with_line_before(seed1, tmp_path, json.dumps({"id": doc_id, "mentions": [{"entity": "e0001", "count": 1}]}))
    found, usable = _load_naming(path, TOPIC_PAIR)
    assert usable and kept_fields(found) == kept_fields(kept)
    assert ranked(found) == ranked(kept)
    # The shadowing pass finds the line, so the lines read and it are ingested again.
    assert len(decoded) == 2 and decoded[1] == decoded[0] + 1


def test_an_accepted_line_that_takes_a_kept_id_first_drops_that_document_at_scale(seed1, tmp_path, decoded):
    _, kept, doc_id, _ = seed1
    line = json.dumps({"id": doc_id, "date": "1989-01-01", "mentions": [{"entity": "e0001", "count": 1}]})
    path = with_line_before(seed1, tmp_path, line)
    found, usable = _load_naming(path, TOPIC_PAIR)
    assert len(decoded) == 2 and decoded[1] == decoded[0] + 1
    expected = [doc for doc in kept_fields(kept) if doc[0] != doc_id]
    assert usable and kept_fields(found) == expected == fields(*load_corpus(path, mentioning=TOPIC_PAIR))[0]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_ingest_of_the_seed1_corpus_is_pinned(seed1_path):
    # Pinned, not compared with reference_parse_corpus, whose duplicate check
    # is quadratic: far too slow for 100,000 records.
    corpus, report = load_corpus(seed1_path)
    documents = [(d.id, d.published_at.isoformat(), list(d.mentions.items())) for d in corpus.documents]
    assert sha256(json.dumps(documents)) == "4450391be4a4bb69faa1121423809b624f260ba44d681dcee186e258d6279e47"
    assert tallies(report) == (100000, {SKIP_MALFORMED: 500, SKIP_DATELESS: 250, SKIP_DUPLICATE: 250})


SEED1_STATS_SHA256 = {
    "day": "85dac3f66cb1527d0f5c6d39eba85af1430cbd08541eac9563d2eab57e1ad4d8",
    "week": "a3a1a366c3d464f9299c786fa51593d00aece0c6621b8f10b9d017b734401422",
    "month": "091e4c49596743c21d9357cae68b775ba90d28db3b60341fa8d6d89fb55caf01",
    "year": "0debadbb5a2a97a734db34fd17686ac916eabaaaa7e4616b3d714fd7dbead71e",
}


@pytest.mark.parametrize("granularity", list(SEED1_STATS_SHA256))
def test_stats_of_the_seed1_corpus_is_pinned(seed1_path, granularity, run_cli):
    code, out, err = run_cli("stats", str(seed1_path), "--granularity", granularity)
    assert (code, err) == (0, "")
    assert sha256(out) == SEED1_STATS_SHA256[granularity]


def corpus_lines(corpus: Corpus) -> list[str]:
    return [
        record(d.id, d.published_at.isoformat(), list(d.mentions.items())) for d in corpus.documents
    ]


# Records that reuse the random corpora's ids and entities, so a duplicate can
# come before or after the record it collides with, naming a query entity or not.
colliding_records = st.builds(
    record,
    st.sampled_from([f"doc{i:05d}" for i in range(4)]),
    st.sampled_from(["1987-01-01", "1990-02-30", "undated"]),
    st.lists(st.tuples(st.sampled_from(["e00", "e01", "e02"]), st.integers(0, 2)), max_size=2),
)


@settings(max_examples=100)
@given(
    seed=st.integers(0, 2**32 - 1),
    extra=st.lists(
        st.tuples(st.integers(0, 30), colliding_records | near_records.map(json.dumps) | st.text(max_size=6)),
        max_size=8,
    ),
    top_k=st.integers(1, 4),
)
def test_ingest_of_the_query_entities_ranks_like_the_whole_corpus(seed, extra, top_k):
    corpus, q_all, q_any = random_case(random.Random(seed), Granularity.MONTH, 0.5, 30, 8)
    lines = corpus_lines(corpus)
    for position, line in extra:
        lines.insert(position, line)
    full, full_report = parse_corpus(lines)
    kept, report = parse_corpus(lines, mentioning=q_all.entities)
    assert report == full_report
    assert kept.documents == [d for d in full.documents if not q_all.entities.isdisjoint(d.mentions)]
    full_index, kept_index = build_index(full), build_index(kept)
    for granularity in Granularity:
        for query in (q_all, q_any):
            for k in (None, top_k):
                asked = replace(query, granularity=granularity, top_k=k)
                assert rank(kept_index, asked) == rank(full_index, asked)


def test_empty_mentions_doc_is_accepted():
    corpus, report = parse_corpus([json.dumps({"id": "a1", "date": "1990-02-11", "mentions": []})])
    assert report.accepted == 1
    assert corpus.documents[0].mentions == {}
    assert corpus.entity_universe == frozenset()


def test_blank_lines_ignored_and_totals_add_up():
    lines = ["", GOOD_1, "   ", "junk", GOOD_2, "\n"]
    _, report = parse_corpus(lines)
    assert report.accepted == 2
    assert report.skipped == 1
    assert report.accepted + report.skipped == 3  # non-blank lines


def test_invalid_utf8_line_is_malformed():
    _, report = parse_corpus([b"\xff\xfe{bad}", GOOD_1.encode("utf-8")])
    assert report.accepted == 1
    assert report.reasons[SKIP_MALFORMED] == 1


def test_empty_source_gives_empty_corpus():
    corpus, report = parse_corpus([])
    assert len(corpus) == 0
    assert report.accepted == 0
    assert report.skipped == 0


def test_ingest_is_idempotent():
    lines = [GOOD_1, "broken", GOOD_2]
    first_corpus, first_report = parse_corpus(lines)
    second_corpus, second_report = parse_corpus(lines)
    assert first_corpus.documents == second_corpus.documents
    assert first_report == second_report


def test_record_order_does_not_change_the_document_set():
    lines = [record(f"a{i}", "1990-02-11", [("ent:x", i + 1)]) for i in range(8)]
    shuffled = lines[:]
    random.Random(7).shuffle(shuffled)
    one, _ = parse_corpus(lines)
    other, _ = parse_corpus(shuffled)
    assert {d.id: d for d in one.documents} == {d.id: d for d in other.documents}


def test_entity_ids_compare_exactly_without_normalization():
    composed = "ent:café"
    decomposed = "ent:café"
    corpus, _ = parse_corpus(
        [record("a1", "1990-02-11", [(composed, 1), (decomposed, 1)])]
    )
    assert set(corpus.documents[0].mentions) == {composed, decomposed}


def test_mentions_are_rekeyed_in_sorted_order():
    doc = make_doc("a1", "1990-02-11", {"ent:z": 1, "ent:a": 2})
    assert list(doc.mentions) == ["ent:a", "ent:z"]


def test_ingested_documents_are_indistinguishable_from_constructed_ones():
    lines = [
        record("a1", "1990-02-11", [("ent:z", 1), ("ent:a", 2), ("ent:m", 3)]),
        record("a2", "1990-02-12", [("ent:b", 4)]),
        record("a3", "1990-02-13", []),
        record("a4", "1990-02-14", [("ent:y", 1), ("ent:x", 1)]),
    ]
    corpus, _ = parse_corpus(lines)
    assert [d.id for d in corpus.documents] == ["a1", "a2", "a3", "a4"]
    for doc in corpus.documents:
        # Built from the mentions in reverse, so that the constructor must sort.
        built = Document(id=doc.id, published_at=doc.published_at, mentions=dict(reversed(doc.mentions.items())))
        assert type(doc) is Document
        assert doc == built
        assert repr(doc) == repr(built)
        assert list(doc.mentions.items()) == list(built.mentions.items()) == sorted(doc.mentions.items())
        for name in ("id", "published_at", "mentions"):
            with pytest.raises(FrozenInstanceError):
                setattr(doc, name, getattr(built, name))
        assert not hasattr(doc, "__dict__")
    unsorted = {"ent:c": 1, "ent:a": 2, "ent:b": 3}
    assert list(Document(id="d", published_at=date(1990, 1, 1), mentions=unsorted).mentions) == ["ent:a", "ent:b", "ent:c"]


@pytest.mark.parametrize(
    "mentions",
    [[("ent:b", 1), ("ent:a", 1), ("ent:b", 2)], [("ent:a", 1), ("ent:a", 1)]],
    ids=["apart", "same-count"],
)
def test_an_entity_repeated_anywhere_in_the_mentions_is_malformed(mentions):
    corpus, report = parse_corpus([record("a1", "1990-02-11", mentions), GOOD_2])
    assert [d.id for d in corpus.documents] == ["a2"]
    assert tallies(report) == (1, {SKIP_MALFORMED: 1})


@pytest.fixture
def gc_state():
    """Restore the collector's state after the test, whatever it set."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


def lines_then(error: Exception | None = None):
    """GOOD_1 and GOOD_2, recording the collector's state as each is drawn;
    with error set, raise it after the first."""
    states = []

    def lines():
        states.append(gc.isenabled())
        yield GOOD_1
        if error is not None:
            raise error
        states.append(gc.isenabled())
        yield GOOD_2

    return states, lines()


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
def test_ingest_holds_the_collector_and_ingest_and_index_build_restore_its_state(enabled, gc_state, tmp_path):
    (gc.enable if enabled else gc.disable)()
    states, lines = lines_then()
    corpus, report = parse_corpus(lines)
    assert report.accepted == 2 and states == [False, False]
    assert gc.isenabled() is enabled
    path = tmp_path / "corpus.jsonl"
    path.write_text(GOOD_1 + "\n" + GOOD_2 + "\n")
    assert load_corpus(path)[0].documents == corpus.documents
    assert gc.isenabled() is enabled
    assert set(build_index(corpus).doc_table) == {"a1", "a2"}
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-enabled", "gc-disabled"])
def test_an_error_from_the_source_propagates_and_restores_the_collector(enabled, gc_state):
    (gc.enable if enabled else gc.disable)()
    error = OSError(errno.EIO, "read failed")
    states, lines = lines_then(error)
    with pytest.raises(OSError) as raised:
        parse_corpus(lines)
    assert raised.value is error
    assert states == [False]
    assert gc.isenabled() is enabled


def test_equal_entity_ids_share_one_string():
    kept = [
        record("a1", "1990-02-11", [("ent:x", 1), ("ent:y", 2)]),
        record("a2", "1990-02-12", [("ent:y", 1), ("ent:x", 3)]),
        record("a3", "1990-02-13", [("ent:z", 1), ("ent:y", 1)]),
    ]
    # Each followed by a line that mentioning drops.
    lines = [line for i, a in enumerate(kept) for line in (a, record(f"b{i}", "1990-02-14", [("ent:v", 1), ("ent:w", 2)]))]
    corpus, _ = parse_corpus(lines, mentioning=frozenset({"ent:x", "ent:y", "ent:z"}))
    assert [d.id for d in corpus.documents] == ["a1", "a2", "a3"]
    shared = {id(e) for d in corpus.documents for e in d.mentions}
    assert len(shared) == len(corpus.entity_universe) == 3
    index = build_index(corpus)
    assert {id(e) for e in index.docs_by_entity} == shared


def test_document_has_no_instance_dict():
    assert not hasattr(make_doc("a1", "1990-02-11", {"ent:x": 1}), "__dict__")


def test_duplicate_ids_rejected_on_direct_construction():
    doc = make_doc("a1", "1990-02-11", {"ent:x": 1})
    with pytest.raises(ValueError):
        Corpus(documents=[doc, doc])


@pytest.mark.parametrize(
    "value,expected",
    [
        ("ent:x", True),
        ("http://example.org/a", True),
        ("", False),
        ("a b", False),
        ("a b", False),
        (None, False),
    ],
)
def test_entity_id_validity(value, expected):
    assert is_valid_entity_id(value) is expected


def _entity_id_reference(value: object) -> bool:
    """The original per-character predicate, kept as the reference."""
    if not isinstance(value, str) or not value:
        return False
    return not any(ch.isspace() or ord(ch) < 32 or ord(ch) == 127 for ch in value)


@settings(max_examples=500)
@given(value=st.text(alphabet=st.characters(), max_size=12) | st.none() | st.integers())
def test_entity_id_check_matches_the_per_character_reference(value):
    assert is_valid_entity_id(value) is _entity_id_reference(value)


def test_entity_id_check_matches_the_reference_on_every_code_point():
    for code_point in range(sys.maxunicode + 1):
        value = "x" + chr(code_point)
        assert is_valid_entity_id(value) is _entity_id_reference(value), hex(code_point)


def test_catalog_merges_repeated_entities():
    catalog, report = parse_entity_catalog(
        [
            json.dumps({"entity": "ent:a", "categories": ["cat:1"]}),
            json.dumps({"entity": "ent:a", "categories": ["cat:2"]}),
        ]
    )
    assert catalog["ent:a"] == {"cat:1", "cat:2"}
    assert report.accepted == 2


def test_catalog_entity_without_categories_gets_empty_set():
    catalog, _ = parse_entity_catalog([json.dumps({"entity": "ent:a"})])
    assert catalog == {"ent:a": set()}


@pytest.mark.parametrize(
    "line",
    [
        "nope",
        json.dumps({"categories": ["cat:1"]}),
        json.dumps({"entity": "", "categories": []}),
        json.dumps({"entity": "ent:a", "categories": "cat:1"}),
        json.dumps({"entity": "ent:a", "categories": [""]}),
        json.dumps({"entity": "ent:a", "categories": [3]}),
    ],
)
def test_catalog_malformed_lines_are_tallied(line):
    catalog, report = parse_entity_catalog([line])
    assert len(catalog) == 0
    assert report.reasons[SKIP_MALFORMED] == 1
