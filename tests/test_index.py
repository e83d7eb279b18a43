"""Period bucketing and index construction.

Week expectations were cross-checked by hand against the ISO-8601 rule that
week 1 is the week containing the first Thursday of the year, weeks starting
on Monday.
"""

from __future__ import annotations

from datetime import date

import pytest

from chronorank import Granularity, build_index, period_of

from helpers import make_corpus, make_doc


@pytest.mark.parametrize(
    "day,granularity,key",
    [
        (date(1990, 2, 11), Granularity.MONTH, "1990-02"),
        (date(1990, 2, 11), Granularity.YEAR, "1990"),
        (date(1990, 2, 11), Granularity.DAY, "1990-02-11"),
        (date(1990, 1, 1), Granularity.WEEK, "1990-W01"),
        (date(1989, 12, 30), Granularity.WEEK, "1989-W52"),
        (date(1990, 1, 7), Granularity.WEEK, "1990-W01"),
        (date(1990, 1, 8), Granularity.WEEK, "1990-W02"),
        (date(2010, 1, 1), Granularity.WEEK, "2009-W53"),
        # the calendar's ends: zero-padded years keep keys sorting by date
        (date.min, Granularity.DAY, "0001-01-01"),
        (date.min, Granularity.WEEK, "0001-W01"),
        (date.min, Granularity.MONTH, "0001-01"),
        (date.min, Granularity.YEAR, "0001"),
        (date.max, Granularity.DAY, "9999-12-31"),
        (date.max, Granularity.WEEK, "9999-W52"),
        (date.max, Granularity.MONTH, "9999-12"),
        (date.max, Granularity.YEAR, "9999"),
    ],
)
def test_period_of_known_values(day, granularity, key):
    assert period_of(day, granularity) == key


def test_granularity_parses_lowercase_tokens_only():
    assert Granularity("week") is Granularity.WEEK
    with pytest.raises(ValueError):
        Granularity("Week")


def test_build_index_single_document():
    doc = make_doc("a1", "1990-02-11", {"ent:x": 2, "ent:y": 1})
    index = build_index(make_corpus(doc), Granularity.MONTH)
    assert index.docs_by_entity == {"ent:x": ("a1",), "ent:y": ("a1",)}
    assert index.doc_table["a1"] is doc


def test_postings_are_sorted():
    """Postings run in (published_at, id) order, neither in id order nor in
    corpus order; documents of one day go by id."""
    corpus = make_corpus(
        make_doc("a", "1990-01-07", {"ent:x": 1}),
        make_doc("d", "1990-01-05", {"ent:x": 1, "ent:y": 1}),
        make_doc("b", "1990-01-05", {"ent:x": 1}),
        make_doc("c", "1990-01-06", {"ent:x": 1, "ent:y": 1}),
    )
    index = build_index(corpus, Granularity.MONTH)
    assert index.docs_by_entity["ent:x"] == ("b", "d", "c", "a")
    assert index.docs_by_entity["ent:y"] == ("d", "c")


def test_document_without_mentions_lands_in_doc_table_only():
    doc = make_doc("a1", "1990-01-05", {})
    index = build_index(make_corpus(doc), Granularity.MONTH)
    assert index.docs_by_entity == {}
    assert index.doc_table == {"a1": doc}
