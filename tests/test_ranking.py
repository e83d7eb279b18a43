"""Scoring components against hand-computed expectations.

The six-document fixture arithmetic, worked out independently with plain
fractions: under ALL semantics the matched set is {d1, d2, d4}, the May share
is 2/3, the June share 1/3, ent:c scores 0.4 * 1/3 and ent:d 0.8 * 1/3.
"""

from __future__ import annotations

import random
import sys
import threading
from dataclasses import replace
from datetime import date
from itertools import combinations

import pytest

from chronorank import (
    Granularity,
    Query,
    QueryContext,
    Semantics,
    build_index,
    final_score,
    load_corpus,
    match_documents,
    rank,
)

from chronorank.ranking import NEIGHBOURHOOD_MEMO_SIZE, relativeness
from helpers import idf, make_corpus, make_doc

EXACT = 1e-12


def test_relativeness_all_worked_examples():
    """Documents naming every query entity, as an ALL query matches them:
    the plain query share of the mention mass."""
    doc = make_doc("d", "1990-01-01", {"A": 2, "B": 1, "C": 1})
    assert relativeness(doc, frozenset({"A", "B"})) == 3 / 4
    lopsided = make_doc("d2", "1990-01-01", {"A": 1, "X": 9})
    assert relativeness(lopsided, frozenset({"A"})) == 1 / 10
    pure = make_doc("d3", "1990-01-01", {"A": 4})
    assert relativeness(pure, frozenset({"A"})) == 1.0


def test_relativeness_any_worked_examples():
    """Documents naming some query entities, as only an ANY query matches
    them: the share is scaled by the fraction of query entities named."""
    partial = make_doc("d", "1990-01-01", {"A": 2, "C": 2})
    assert relativeness(partial, frozenset({"A", "B"})) == pytest.approx(0.25, abs=EXACT)
    other = make_doc("d2", "1990-01-01", {"B": 3, "X": 1})
    assert relativeness(other, frozenset({"A", "B"})) == pytest.approx(0.375, abs=EXACT)


def test_relativeness_rejects_empty_documents():
    empty = make_doc("d", "1990-01-01", {})
    with pytest.raises(ValueError):
        relativeness(empty, frozenset({"A"}))


@pytest.fixture
def six_doc_corpus(fixture_corpus_path):
    corpus, _ = load_corpus(fixture_corpus_path)
    return corpus


def fixture_query(semantics, beta=0.5, top_k=None):
    return Query(
        entities=frozenset({"ent:a", "ent:b"}),
        semantics=semantics,
        start=date(1984, 5, 1),
        end=date(1984, 6, 30),
        granularity=Granularity.MONTH,
        beta=beta,
        top_k=top_k,
    )


@pytest.fixture
def all_ctx(six_doc_corpus):
    index = build_index(six_doc_corpus)
    return match_documents(index, fixture_query(Semantics.ALL))


def test_single_entity_queries_make_both_variants_agree(six_doc_corpus):
    """With one query entity, ALL and ANY match the same documents and so
    rank them identically."""
    index = build_index(six_doc_corpus)
    variants = [
        Query(
            entities=frozenset({"ent:c"}), semantics=semantics, start=date(1984, 5, 1), end=date(1984, 6, 30),
            granularity=Granularity.MONTH,
        )
        for semantics in Semantics
    ]
    rows_all, rows_any = (rank(index, query) for query in variants)
    assert [r.doc_id for r in rows_all] == ["d5", "d6", "d1", "d3"]
    assert rows_all == rows_any


def test_timeliness_on_fixture(all_ctx):
    assert all_ctx.period_scores == pytest.approx({"1984-05": 2 / 3, "1984-06": 1 / 3}, abs=EXACT)


@pytest.fixture
def june_ctx(six_doc_corpus):
    """ent:d from 1 to 10 June: matched {d4}, union {d4, d6}."""
    index = build_index(six_doc_corpus)
    narrow = Query(
        entities=frozenset({"ent:d"}),
        semantics=Semantics.ALL,
        start=date(1984, 6, 1),
        end=date(1984, 6, 10),
        granularity=Granularity.MONTH,
    )
    return match_documents(index, narrow)


def test_timeliness_single_match_is_one(june_ctx):
    assert june_ctx.matched == {"d4"}
    assert june_ctx.period_scores == {"1984-06": 1.0}
    assert final_score(june_ctx, june_ctx.index.doc_table["d4"]).timeliness == 1.0


def test_timeliness_rejects_period_outside_range(all_ctx):
    """final_score will not score a document from a period the query range
    does not reach; one from an in-range period without matches gets 0."""
    stray = make_doc("stray", "1985-01-01", {"ent:a": 1, "ent:b": 1})
    with pytest.raises(ValueError, match="period 1985-01 is outside the query range"):
        final_score(all_ctx, stray)
    unmatched_june = final_score(all_ctx, make_doc("late", "1984-06-30", {"ent:a": 1}))
    assert unmatched_june.timeliness == pytest.approx(1 / 3, abs=EXACT)


def test_idf_on_fixture(all_ctx):
    # union of documents mentioning ent:a or ent:b is {d1..d5}
    union_size, counts = all_ctx.index.neighbourhood(all_ctx.query.entities)
    assert union_size == 5
    assert counts == {"ent:a": 4, "ent:b": 4, "ent:c": 3, "ent:d": 1}
    assert idf(all_ctx, "ent:c") == pytest.approx(0.4, abs=EXACT)  # in 3 of 5
    assert idf(all_ctx, "ent:d") == pytest.approx(0.8, abs=EXACT)  # in 1 of 5
    assert idf(all_ctx, "ent:ghost") == pytest.approx(1.0, abs=EXACT)


def test_idf_is_zero_for_an_omnipresent_entity():
    corpus = make_corpus(
        make_doc("x1", "1990-01-03", {"A": 1, "E": 1}),
        make_doc("x2", "1990-01-04", {"A": 2, "E": 3}),
    )
    index = build_index(corpus)
    q = Query(
        entities=frozenset({"A"}),
        semantics=Semantics.ALL,
        start=date(1990, 1, 1),
        end=date(1990, 1, 31),
        granularity=Granularity.MONTH,
    )
    ctx = match_documents(index, q)
    assert idf(ctx, "E") == 0.0


def test_relatedness_on_fixture(all_ctx):
    # idf(ent:c) = 0.4, co-occurrence with {d1,d2,d4}: d1 only -> 1/3
    assert all_ctx.entity_scores["ent:c"] == pytest.approx(2 / 15, abs=EXACT)
    # idf(ent:d) = 0.8, co-occurrence: d4 only -> 1/3
    assert all_ctx.entity_scores["ent:d"] == pytest.approx(4 / 15, abs=EXACT)


def test_relatedness_is_memoized(all_ctx):
    first = all_ctx.entity_scores["ent:c"]
    all_ctx.entity_scores["ent:c"] = 123.0  # poke the memo to prove scoring reads it
    d1 = final_score(all_ctx, all_ctx.index.doc_table["d1"])
    assert d1.relatedness_term == 123.0 / 3
    assert first == pytest.approx(2 / 15, abs=EXACT)


def test_neighbourhood_counts_are_reused_across_queries(all_ctx):
    neighbourhood = all_ctx.index.neighbourhood
    assert "ent:c" in all_ctx.entity_scores
    assert neighbourhood.cache_info()[:2] == (0, 1)  # (hits, misses)
    union_size, counts = neighbourhood(all_ctx.query.entities)
    assert union_size == 5 and counts["ent:c"] == 3
    counts["ent:c"] = 0  # poke the memo to prove it is used
    # ANY over the same entities shares the union {d1..d5} and matches all
    # five: ent:c is in d1, d3 of May's three and d5 of June's two
    any_ctx = match_documents(all_ctx.index, fixture_query(Semantics.ANY))
    assert any_ctx.entity_scores["ent:c"] == (1.0 - 0 / 5) * (2 / 5 + 1 / 5)
    assert neighbourhood.cache_info()[:2] == (2, 1)
    assert neighbourhood(frozenset({"ent:b", "ent:a"}))[1] is counts


def test_neighbourhood_counts_keep_the_most_recently_used_unions():
    assert NEIGHBOURHOOD_MEMO_SIZE == 64
    corpus = make_corpus(*(make_doc(f"d{i:02d}", "1990-01-10", {f"E{i:02d}": 1, "X": 1}) for i in range(70)))
    index = build_index(corpus)

    def ask(i: int) -> None:
        q = Query(
            entities=frozenset({f"E{i:02d}"}),
            semantics=Semantics.ALL,
            start=date(1990, 1, 1),
            end=date(1990, 1, 31),
            granularity=Granularity.MONTH,
        )
        assert rank(index, q)[0].relatedness_term == 0.0  # X is in every union document

    def held(i: int) -> bool:
        """Whether E{i}'s neighbourhood was cached; asking caches it."""
        hits = index.neighbourhood.cache_info().hits
        union_size, counts = index.neighbourhood(frozenset({f"E{i:02d}"}))
        assert union_size == 1 and counts == {f"E{i:02d}": 1, "X": 1}
        return index.neighbourhood.cache_info().hits > hits

    for i in range(64):
        ask(i)
    assert index.neighbourhood.cache_info() == (0, 64, 64, 64)  # hits, misses, maxsize, currsize
    ask(0)  # E00's set becomes the most recently used; E01's is now the oldest
    for i in range(64, 70):
        ask(i)
    assert index.neighbourhood.cache_info() == (1, 70, 64, 64)
    # the held ones first, since each miss evicts the oldest set
    assert held(0) and held(7) and held(69)
    assert not any(held(i) for i in range(1, 7))


def test_threads_sharing_an_index_rank_as_one_thread_does():
    """Eight threads rank on one index, switching every microsecond. Each
    walks the 298 entity sets of up to three of twelve entities, far more
    than the neighbourhood cache holds, so nearly every query evicts from it
    while other threads read and evict; every thread still gets exactly the
    rows one thread gets, and nothing raises."""
    rng = random.Random(7)
    pool = [f"E{i:02d}" for i in range(12)]
    corpus = make_corpus(*(
        make_doc(f"d{i:03d}", f"1990-01-{1 + i % 28:02d}", {e: rng.randint(1, 3) for e in rng.sample(pool, 3)})
        for i in range(120)
    ))
    sets = [frozenset(c) for size in (1, 2, 3) for c in combinations(pool, size)]
    queries = [
        Query(
            entities=entities, semantics=Semantics.ANY, start=date(1990, 1, 5), end=date(1990, 1, 7),
            granularity=Granularity.MONTH,
        )
        for entities in sets
    ]
    serial = build_index(corpus)
    expected = [rank(serial, query) for query in queries]
    assert all(expected)  # every query matches, so every one reads its neighbourhood
    shared = build_index(corpus)
    mismatches: list[tuple[int, int]] = []
    errors: list[Exception] = []

    def work(thread: int) -> None:
        try:
            for step in range(2 * len(queries)):
                i = (37 * thread + step) % len(queries)
                if rank(shared, queries[i]) != expected[i]:
                    mismatches.append((thread, i))
        except Exception as exc:  # a thread's exception would otherwise go unseen
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert mismatches == []
    info = shared.neighbourhood.cache_info()
    assert info.currsize == NEIGHBOURHOOD_MEMO_SIZE
    assert info.misses > len(sets)  # some sets were evicted and counted again


def test_relatedness_rejects_query_entities(all_ctx):
    """Query entities get no relatedness score, so they add nothing to a
    document's relatedness term."""
    assert all_ctx.query.entities.isdisjoint(all_ctx.entity_scores)
    assert final_score(all_ctx, all_ctx.index.doc_table["d2"]).relatedness_term == 0.0


@pytest.mark.parametrize("ctx_name", ["all_ctx", "june_ctx"])
def test_scoring_memoizes_exactly_the_related_entities_of_the_matched_documents(ctx_name, request):
    ctx = request.getfixturevalue(ctx_name)
    for doc_id in sorted(ctx.matched):
        final_score(ctx, ctx.index.doc_table[doc_id])
    related = {e for doc_id in ctx.matched for e in ctx.index.doc_table[doc_id].mentions}
    assert set(ctx.entity_scores) == related - ctx.query.entities


def test_relatedness_is_zero_for_an_entity_mentioned_only_outside_the_matched_set(june_ctx):
    # ent:c is in d1, d3, d5 and d6, none of them matched, so it has no
    # score; ent:a, in matched d4, has idf 0.5
    assert june_ctx.entity_scores == pytest.approx({"ent:a": 0.5, "ent:b": 0.5}, abs=EXACT)


@pytest.mark.parametrize("matched", [frozenset(), frozenset({"d1"})])
def test_relatedness_rejects_an_empty_query_entity_union(all_ctx, matched):
    ghosts = replace(all_ctx.query, entities=frozenset({"ent:ghost", "ent:phantom"}))
    ctx = QueryContext(query=ghosts, index=all_ctx.index, matched=matched)
    with pytest.raises(ValueError, match="no documents mention any query entity"):
        ctx.entity_scores


def test_final_score_breakdown_on_fixture(all_ctx):
    doc = all_ctx.index.doc_table["d1"]
    row = final_score(all_ctx, doc)
    assert row.relativeness == pytest.approx(0.75, abs=EXACT)
    assert row.timeliness == pytest.approx(2 / 3, abs=EXACT)
    assert row.relatedness_term == pytest.approx(2 / 45, abs=EXACT)
    assert row.total == pytest.approx((2 / 3) * 0.75 + 0.5 * (2 / 45), abs=EXACT)
    assert row.period == "1984-05"
    # the breakdown recombines exactly
    assert row.total == row.timeliness * row.relativeness + 0.5 * row.relatedness_term


def test_relatedness_term_is_zero_when_no_extra_entities(all_ctx):
    row = final_score(all_ctx, all_ctx.index.doc_table["d2"])
    assert row.relatedness_term == 0.0
    assert row.total == pytest.approx(2 / 3, abs=EXACT)


def test_rank_order_on_fixture_all(six_doc_corpus):
    """Query entities given as a plain set rank as a frozenset of them does."""
    for entities in (frozenset({"ent:a", "ent:b"}), {"ent:a", "ent:b"}):
        index = build_index(six_doc_corpus)
        rows = rank(index, replace(fixture_query(Semantics.ALL), entities=entities))
        assert [r.doc_id for r in rows] == ["d2", "d1", "d4"]
        assert rows[0].total == pytest.approx(2 / 3, abs=EXACT)
        assert rows[1].total == pytest.approx(0.5 + 1 / 45, abs=EXACT)
        assert rows[2].total == pytest.approx(0.25 + 2 / 45, abs=EXACT)


def test_rank_order_on_fixture_any(six_doc_corpus):
    index = build_index(six_doc_corpus)
    rows = rank(index, fixture_query(Semantics.ANY))
    assert [r.doc_id for r in rows] == ["d2", "d1", "d4", "d3", "d5"]
    assert rows[1].total == pytest.approx(0.49, abs=EXACT)
    assert rows[3].total == pytest.approx(0.285, abs=EXACT)


def test_beta_zero_drops_the_relatedness_contribution(six_doc_corpus):
    index = build_index(six_doc_corpus)
    rows = rank(index, fixture_query(Semantics.ALL, beta=0.0))
    for row in rows:
        assert row.total == row.timeliness * row.relativeness


def test_rank_truncates_to_top_k(six_doc_corpus):
    index = build_index(six_doc_corpus)
    rows = rank(index, fixture_query(Semantics.ANY, top_k=2))
    assert [r.doc_id for r in rows] == ["d2", "d1"]


def test_rank_empty_match_returns_empty(six_doc_corpus):
    index = build_index(six_doc_corpus)
    ghost = Query(
        entities=frozenset({"ent:ghost"}),
        semantics=Semantics.ALL,
        start=date(1984, 5, 1),
        end=date(1984, 6, 30),
        granularity=Granularity.MONTH,
    )
    assert rank(index, ghost) == []


def test_equal_documents_tie_break_by_id():
    corpus = make_corpus(
        make_doc("twin_b", "1990-01-10", {"A": 2, "B": 1}),
        make_doc("twin_a", "1990-01-12", {"A": 2, "B": 1}),
        make_doc("other", "1990-01-20", {"A": 1, "C": 3}),
    )
    index = build_index(corpus)
    q = Query(
        entities=frozenset({"A"}),
        semantics=Semantics.ALL,
        start=date(1990, 1, 1),
        end=date(1990, 1, 31),
        granularity=Granularity.MONTH,
    )
    rows = rank(index, q)
    twins = [r for r in rows if r.doc_id.startswith("twin")]
    assert twins[0].total == twins[1].total
    assert [t.doc_id for t in twins] == ["twin_a", "twin_b"]


class CountingEntities(frozenset):
    """A query-entity set that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


@pytest.mark.parametrize("semantics", list(Semantics), ids=lambda s: s.value)
def test_rank_iterates_the_query_entities_a_bounded_number_of_times(semantics):
    """Scoring tests each mention of a document against the query entities;
    it never walks the query entities once per matched document."""
    docs = [make_doc(f"d{i:02d}", f"1990-01-{1 + i % 28:02d}", {"A": 1, "B": 2, f"X{i % 5}": 1}) for i in range(40)]
    entities = CountingEntities({"A", "B"})
    query = Query(
        entities=entities, semantics=semantics, start=date(1990, 1, 1), end=date(1990, 1, 31),
        granularity=Granularity.MONTH,
    )
    entities.iterations = 0
    rows = rank(build_index(make_corpus(*docs)), query)
    assert len(rows) == 40
    assert entities.iterations <= 2
