"""Ingest behaviour: what gets accepted, what gets skipped, and why."""

from __future__ import annotations

import errno
import json
import os
import random
import sys
import tempfile
from dataclasses import replace
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronorank import Granularity, build_index, load_corpus, parse_corpus, parse_entity_catalog, rank
from chronorank import corpus as corpus_module
from chronorank.corpus import (
    SKIP_DATELESS,
    SKIP_DUPLICATE,
    SKIP_MALFORMED,
    Corpus,
    IngestReport,
    _ingest_span,
    _merge,
    _parse_records,
    _while_sparse,
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
    [0, -1, 2.0, "2", True, None],
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
fuzz_lines = st.lists(
    st.one_of(
        st.text(),
        st.binary(),
        json_values.map(json.dumps),
        near_records.map(json.dumps),
        near_records.map(lambda r: json.dumps(r).encode("utf-8")),
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
@given(lines=st.lists(pool_records.map(json.dumps) | near_records.map(json.dumps), max_size=6))
def test_ingest_matches_the_reference_parser(lines):
    # Every line comes twice: its ids are new to parse_corpus the first time
    # and already validated the second.
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


def ingest_between(path, cuts, mentioning):
    """Ingest path's byte ranges between the cuts one by one, in this
    process, and merge them."""
    bounds = [0, *cuts, os.path.getsize(path)]
    known = {}
    with open(path, "rb") as handle:
        parts = [_ingest_span(handle, start, end, mentioning, known) for start, end in zip(bounds, bounds[1:])]
    return _merge(parts)


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
    mentioning=st.sampled_from([None, frozenset({"ent:a"})]),
    data=st.data(),
)
def test_parts_merge_into_what_the_whole_file_gives(lines, crlf, final_newline, mentioning, data):
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
        whole = fields(*load_corpus(path, mentioning=mentioning))
        for parts in range(1, 5):
            cuts = sorted(data.draw(st.lists(st.sampled_from(breaks), min_size=parts - 1, max_size=parts - 1)))
            assert fields(*ingest_between(path, cuts, mentioning)) == whole, cuts


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
    assert fields(*ingest_between(path, [cut], None)) == expected
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
def payloads(monkeypatch):
    """The payload load_in_parts receives from each child, in part order."""
    received = []
    receive = corpus_module._receive

    def recording_receive(pid, pipe):
        received.append(receive(pid, pipe))
        return received[-1]

    monkeypatch.setattr(corpus_module, "_receive", recording_receive)
    return received


# Every record of three_part_corpus names ent:x, and one in ten names ent:2.
# A child sends its part back only if it keeps at most half of what it
# accepts; otherwise it sends nothing and the parent ingests the part.
@pytest.mark.parametrize(
    "mentioning,sent",
    [(None, False), (frozenset(), True), (frozenset({"ent:x"}), False), (frozenset({"ent:2"}), True)],
)
def test_ingest_in_forked_parts_equals_load_corpus(tmp_path, forked, payloads, mentioning, sent):
    path = tmp_path / "corpus.jsonl"
    three_part_corpus(path)
    assert fields(*load_in_parts(path, mentioning, 3)) == fields(*load_corpus(path, mentioning=mentioning))
    assert len(forked) == 2
    assert [payload != b"" for payload in payloads] == [sent, sent]


def dense_records(count, kept_every):
    """count accepted records; one in kept_every names ent:x."""
    return [
        {"id": f"d{i}", "date": "1990-02-11", "mentions": [{"entity": "ent:x" if i % kept_every == 0 else "ent:y", "count": 1}]}
        for i in range(count)
    ]


@pytest.mark.parametrize("kept_every,accepted", [(1, 1023), (3, 3000)])
def test_a_run_that_keeps_most_of_what_it_accepts_is_cut_short(kept_every, accepted):
    report, documents = IngestReport(), []
    records = iter(dense_records(3000, kept_every))
    _parse_records(_while_sparse(records, report, documents), report, frozenset({"ent:x"}), {}, documents)
    assert report.accepted == accepted


@pytest.mark.parametrize("failure", ["raises", "sends-garbage"])
def test_a_part_whose_child_fails_is_ingested_by_the_parent(tmp_path, forked, monkeypatch, failure):
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
    mentioning = frozenset({"ent:2"})  # few enough that each child sends its part
    assert fields(*load_in_parts(path, mentioning, 3)) == fields(*load_corpus(path, mentioning=mentioning))
    assert len(forked) == 2


def test_a_part_with_no_pipe_is_ingested_by_the_parent(tmp_path, forked, monkeypatch):
    path = tmp_path / "corpus.jsonl"
    three_part_corpus(path)

    def no_pipe():
        raise OSError(errno.EMFILE, "Too many open files")

    monkeypatch.setattr(os, "pipe", no_pipe)
    mentioning = frozenset({"ent:2"})
    assert fields(*load_in_parts(path, mentioning, 3)) == fields(*load_corpus(path, mentioning=mentioning))
    assert forked == []


def test_an_error_after_a_child_is_reaped_propagates_unchanged(tmp_path, forked, monkeypatch):
    path = tmp_path / "corpus.jsonl"
    three_part_corpus(path)

    class Interrupted(Exception):
        pass

    def interrupted(payload, known):
        raise Interrupted

    monkeypatch.setattr(corpus_module, "_unpickle_part", interrupted)
    with pytest.raises(Interrupted):
        load_in_parts(path, frozenset({"ent:2"}), 3)
    assert len(forked) == 2
    with pytest.raises(ChildProcessError):  # every child is reaped
        os.waitpid(-1, os.WNOHANG)


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


def test_equal_entity_ids_share_one_string(tmp_path, forked, payloads):
    kept = [
        record("a1", "1990-02-11", [("ent:x", 1), ("ent:y", 2)]),
        record("a2", "1990-02-12", [("ent:y", 1), ("ent:x", 3)]),
        record("a3", "1990-02-13", [("ent:z", 1), ("ent:y", 1)]),
    ]
    # Each followed by a line of the same length that mentioning drops, so
    # each third of the file keeps half of what it accepts and a forked
    # part sends its document back.
    lines = [line for i, a in enumerate(kept) for line in (a, record(f"b{i}", "1990-02-14", [("ent:v", 1), ("ent:w", 2)]))]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    mentioning = frozenset({"ent:x", "ent:y", "ent:z"})
    # The whole run of lines at once, then two lines per part, two parts forked.
    for corpus, _ in (parse_corpus(lines, mentioning=mentioning), load_in_parts(path, mentioning, 3)):
        assert [d.id for d in corpus.documents] == ["a1", "a2", "a3"]
        shared = {id(e) for d in corpus.documents for e in d.mentions}
        assert len(shared) == len(corpus.entity_universe) == 3
        index = build_index(corpus)
        assert {id(e) for e in index.docs_by_entity} == shared
    assert len(forked) == 2 and all(payloads)


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
