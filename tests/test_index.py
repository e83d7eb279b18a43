"""Period bucketing and index construction.

Week expectations were cross-checked by hand against the ISO-8601 rule that
week 1 is the week containing the first Thursday of the year, weeks starting
on Monday.
"""

from __future__ import annotations

from datetime import date

import pytest

from chronorank import Granularity, PeriodId, build_index, period_of, periods_in_range

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
    ],
)
def test_period_of_known_values(day, granularity, key):
    assert period_of(day, granularity).key == key


def test_period_key_round_trips():
    for day in (date(1989, 12, 30), date(1990, 1, 1), date(1990, 6, 15), date(2000, 2, 29)):
        for granularity in Granularity:
            pid = period_of(day, granularity)
            assert period_of(pid.first_day(), granularity) == pid
            assert pid.first_day() <= day <= pid.last_day()


@pytest.mark.parametrize(
    "granularity,key",
    [
        (Granularity.WEEK, "1990-W54"),
        (Granularity.WEEK, "1989-W53"),  # 1989 has 52 ISO weeks
        (Granularity.WEEK, "1990-7"),
        (Granularity.MONTH, "1990-13"),
        (Granularity.MONTH, "199002"),
        (Granularity.DAY, "1990-02-30"),
        (Granularity.YEAR, "90"),
    ],
)
def test_non_canonical_keys_are_rejected(granularity, key):
    with pytest.raises(ValueError):
        PeriodId(granularity=granularity, key=key)


def test_granularity_parses_lowercase_tokens_only():
    assert Granularity("week") is Granularity.WEEK
    with pytest.raises(ValueError):
        Granularity("Week")


def test_periods_in_range_single_day():
    periods = periods_in_range(date(1990, 3, 15), date(1990, 3, 15), Granularity.DAY)
    assert [p.key for p in periods] == ["1990-03-15"]


def test_periods_in_range_includes_partial_boundary_periods():
    periods = periods_in_range(date(1990, 1, 20), date(1990, 3, 5), Granularity.MONTH)
    assert [p.key for p in periods] == ["1990-01", "1990-02", "1990-03"]


def test_periods_in_range_week_spans_year_boundary():
    periods = periods_in_range(date(1989, 12, 30), date(1990, 1, 2), Granularity.WEEK)
    assert [p.key for p in periods] == ["1989-W52", "1990-W01"]


def test_periods_in_range_rejects_reversed_range():
    with pytest.raises(ValueError):
        periods_in_range(date(1990, 2, 1), date(1990, 1, 1), Granularity.MONTH)


def test_periods_partition_the_range():
    start, end = date(1989, 11, 3), date(1990, 2, 17)
    for granularity in Granularity:
        periods = periods_in_range(start, end, granularity)
        assert periods[0].first_day() <= start
        assert periods[-1].last_day() >= end
        # chronological and contiguous, no gaps or overlaps
        for earlier, later in zip(periods, periods[1:]):
            assert earlier < later
            assert (later.first_day() - earlier.last_day()).days == 1


def test_period_ordering_requires_same_granularity():
    with pytest.raises(ValueError):
        _ = period_of(date(1990, 1, 1), Granularity.DAY) < period_of(date(1990, 1, 1), Granularity.WEEK)


def test_build_index_single_document():
    doc = make_doc("a1", "1990-02-11", {"ent:x": 2, "ent:y": 1})
    index = build_index(make_corpus(doc), Granularity.MONTH)
    assert index.docs_by_entity == {"ent:x": ("a1",), "ent:y": ("a1",)}
    assert index.doc_table["a1"] is doc


def test_postings_are_sorted():
    corpus = make_corpus(
        make_doc("b", "1990-01-05", {"ent:x": 1}),
        make_doc("a", "1990-01-06", {"ent:x": 1}),
        make_doc("c", "1990-01-07", {"ent:x": 1}),
    )
    index = build_index(corpus, Granularity.MONTH)
    assert index.docs_by_entity["ent:x"] == ("a", "b", "c")


def test_document_without_mentions_lands_in_doc_table_only():
    doc = make_doc("a1", "1990-01-05", {})
    index = build_index(make_corpus(doc), Granularity.MONTH)
    assert index.docs_by_entity == {}
    assert index.doc_table == {"a1": doc}
