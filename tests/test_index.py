"""Period bucketing and index construction.

Week expectations were cross-checked by hand against the ISO-8601 rule that
week 1 is the week containing the first Thursday of the year, weeks starting
on Monday.
"""

from __future__ import annotations

import weakref
from datetime import date

import pytest

from chronorank import Granularity, Query, Semantics, build_index, period_of, rank

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
    index = build_index(make_corpus(doc))
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
    index = build_index(corpus)
    assert index.docs_by_entity["ent:x"] == ("b", "d", "c", "a")
    assert index.docs_by_entity["ent:y"] == ("d", "c")


def test_document_without_mentions_lands_in_doc_table_only():
    doc = make_doc("a1", "1990-01-05", {})
    index = build_index(make_corpus(doc))
    assert index.docs_by_entity == {}
    assert index.doc_table == {"a1": doc}


def test_an_unreferenced_index_is_freed_with_its_neighbourhood_cache():
    """The neighbourhood cache holds no reference back to its index, so the
    last reference to a used index frees it at once, before any garbage
    collection; a long-running process rebuilding its index holds one."""
    index = build_index(make_corpus(make_doc("d1", "1990-02-11", {"A": 1, "B": 1})))
    query = Query(
        entities=frozenset({"A"}), semantics=Semantics.ALL, start=date(1990, 2, 1), end=date(1990, 2, 28),
        granularity=Granularity.MONTH,
    )
    assert rank(index, query)
    assert index.neighbourhood.cache_info().currsize == 1
    freed = weakref.ref(index)
    del index
    assert freed() is None
