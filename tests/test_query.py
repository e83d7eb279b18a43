"""Query validation, category expansion, and document matching."""

from __future__ import annotations

from datetime import date

import pytest

from chronorank import (
    Granularity,
    Query,
    QueryError,
    Semantics,
    build_index,
    final_score,
    match_documents,
    parse_query,
    period_of,
)
from helpers import make_corpus, make_doc


@pytest.fixture
def seven_entity_catalog():
    return {f"ent:{i}": {"cat:wide"} if i < 4 else {"cat:narrow"} for i in range(7)}


BASE_ARGS = {"entities": ["ent:a"], "from": "1990-01-01", "to": "1990-03-31"}


def test_parse_query_applies_defaults():
    query = parse_query(BASE_ARGS)
    assert query.semantics is Semantics.ALL
    assert query.granularity is Granularity.MONTH
    assert query.beta == 0.5
    assert query.top_k is None
    assert query.entities == frozenset({"ent:a"})


def test_parse_query_expands_categories(seven_entity_catalog):
    query = parse_query(dict(BASE_ARGS, categories=["cat:narrow"]), catalog=seven_entity_catalog)
    assert query.entities == frozenset({"ent:a", "ent:4", "ent:5", "ent:6"})


def test_parse_query_category_only(seven_entity_catalog):
    args = {"categories": ["cat:wide"], "from": "1990-01-01", "to": "1990-03-31"}
    query = parse_query(args, catalog=seven_entity_catalog)
    assert query.entities == frozenset({f"ent:{i}" for i in range(4)})


def test_parse_query_rejects_empty_entity_set():
    with pytest.raises(QueryError, match="no entities of interest"):
        parse_query({"from": "1990-01-01", "to": "1990-03-31"})


def test_parse_query_rejects_unmatched_category(seven_entity_catalog):
    args = {"categories": ["cat:nope"], "from": "1990-01-01", "to": "1990-03-31"}
    with pytest.raises(QueryError, match="no entities of interest"):
        parse_query(args, catalog=seven_entity_catalog)


def test_parse_query_rejects_categories_without_a_catalog():
    with pytest.raises(QueryError, match="catalog"):
        parse_query(dict(BASE_ARGS, categories=["cat:narrow"]))


def test_parse_query_rejects_reversed_range():
    with pytest.raises(QueryError, match="invalid range"):
        parse_query(dict(BASE_ARGS, **{"from": "1990-04-01"}))


@pytest.mark.parametrize(
    "beta",
    [
        -0.1, "-1", float("nan"), float("inf"), "abc", [1],
        # ints beyond float range, which math.isfinite cannot convert
        pytest.param(10**400, id="10**400"), pytest.param(-(10**400), id="-10**400"),
    ],
)
def test_parse_query_rejects_bad_beta(beta):
    with pytest.raises(QueryError):
        parse_query(dict(BASE_ARGS, beta=beta))


def test_parse_query_accepts_beta_strings_and_zero():
    assert parse_query(dict(BASE_ARGS, beta="0.3")).beta == 0.3
    assert parse_query(dict(BASE_ARGS, beta=0)).beta == 0


@pytest.mark.parametrize("semantics", ["ALL", "both", "", 3])
def test_parse_query_rejects_bad_semantics(semantics):
    with pytest.raises(QueryError, match="semantics"):
        parse_query(dict(BASE_ARGS, semantics=semantics))


@pytest.mark.parametrize("granularity", ["Month", "quarter", 2])
def test_parse_query_rejects_bad_granularity(granularity):
    with pytest.raises(QueryError, match="granularity"):
        parse_query(dict(BASE_ARGS, granularity=granularity))


@pytest.mark.parametrize("raw", ["1990/01/01", "19900101", "1990-01-01T00:00", 4, None])
def test_parse_query_rejects_bad_dates(raw):
    with pytest.raises(QueryError, match="date"):
        parse_query(dict(BASE_ARGS, **{"from": raw}))


@pytest.mark.parametrize("top_k", [0, -3, "x", 1.5])
def test_parse_query_rejects_bad_top_k(top_k):
    with pytest.raises(QueryError, match="top_k"):
        parse_query(dict(BASE_ARGS, top_k=top_k))


def test_parse_query_accepts_top_k_strings():
    assert parse_query(dict(BASE_ARGS, top_k="7")).top_k == 7


def test_parse_query_rejects_unknown_fields():
    with pytest.raises(QueryError, match="unknown query fields"):
        parse_query(dict(BASE_ARGS, topk=3))


def test_parse_query_rejects_invalid_entity_ids():
    with pytest.raises(QueryError, match="invalid entity id"):
        parse_query(dict(BASE_ARGS, entities=["ent:a", "bad id"]))


@pytest.fixture
def matching_corpus():
    return make_corpus(
        make_doc("in_both", "1990-01-10", {"ent:a": 1, "ent:b": 2}),
        make_doc("only_a", "1990-01-20", {"ent:a": 3, "ent:c": 1}),
        make_doc("only_b", "1990-02-05", {"ent:b": 1}),
        make_doc("neither", "1990-02-10", {"ent:c": 4}),
        make_doc("too_late", "1990-05-01", {"ent:a": 1, "ent:b": 1}),
        make_doc("empty", "1990-01-15", {}),
    )


def query(semantics, start="1990-01-01", end="1990-03-31", **kwargs):
    return Query(
        entities=frozenset(kwargs.pop("entities", {"ent:a", "ent:b"})),
        semantics=semantics,
        start=date.fromisoformat(start),
        end=date.fromisoformat(end),
        granularity=kwargs.pop("granularity", Granularity.MONTH),
        **kwargs,
    )


def test_match_all_requires_every_entity(matching_corpus):
    index = build_index(matching_corpus)
    ctx = match_documents(index, query(Semantics.ALL))
    assert ctx.matched == {"in_both"}


def test_match_any_takes_the_union(matching_corpus):
    index = build_index(matching_corpus)
    ctx = match_documents(index, query(Semantics.ANY))
    assert ctx.matched == {"in_both", "only_a", "only_b"}


def test_match_filters_by_exact_dates_not_period_edges(matching_corpus):
    index = build_index(matching_corpus)
    ctx = match_documents(index, query(Semantics.ANY, start="1990-01-15", end="1990-02-05"))
    # only_a (Jan 20) and only_b (Feb 5) are inside; in_both (Jan 10) is not,
    # even though January, a period the range only partly covers, counts.
    assert ctx.matched == {"only_a", "only_b"}
    assert ctx.period_scores == {"1990-01": 0.5, "1990-02": 0.5}


def test_match_range_boundaries_are_inclusive(matching_corpus):
    index = build_index(matching_corpus)
    ctx = match_documents(index, query(Semantics.ANY, start="1990-01-10", end="1990-02-05"))
    assert "in_both" in ctx.matched
    assert "only_b" in ctx.matched


def test_timeliness_of_an_in_range_period_without_matches_is_zero(matching_corpus):
    index = build_index(matching_corpus)
    ctx = match_documents(index, query(Semantics.ALL, end="1990-03-31"))
    assert ctx.period_scores == {"1990-01": 1.0}
    scored = {
        day: final_score(ctx, make_doc(f"on-{day}", day, {"ent:a": 1, "ent:b": 1})).timeliness
        for day in ("1990-01-15", "1990-02-15", "1990-03-15")
    }
    assert scored == {"1990-01-15": 1.0, "1990-02-15": 0.0, "1990-03-15": 0.0}


def test_match_union_docs_ignore_the_date_filter(matching_corpus):
    index = build_index(matching_corpus)
    ctx = match_documents(index, query(Semantics.ALL))
    union_size, counts = index.neighbourhood(ctx.query.entities)
    # in_both, only_a, only_b and too_late, which is past the range
    assert union_size == 4
    assert counts["ent:a"] == 3


def test_match_unknown_entity_under_all_matches_nothing(matching_corpus):
    index = build_index(matching_corpus)
    ctx = match_documents(index, query(Semantics.ALL, entities={"ent:a", "ent:ghost"}))
    assert ctx.matched == frozenset()
    assert ctx.period_scores == {}


def test_matched_documents_fall_in_exactly_one_period(matching_corpus):
    index = build_index(matching_corpus)
    ctx = match_documents(index, query(Semantics.ANY))
    keys = {period_of(index.doc_table[doc_id].published_at, Granularity.MONTH) for doc_id in ctx.matched}
    assert set(ctx.period_scores) == keys == {"1990-01", "1990-02"}
    # each matched document is counted in one period only
    assert ctx.period_scores["1990-01"] + ctx.period_scores["1990-02"] == 1.0
