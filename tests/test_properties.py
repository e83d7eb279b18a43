"""Property-based invariants over random corpora and queries."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from datetime import date, timedelta

from hypothesis import example, given, settings
from hypothesis import strategies as st

from chronorank import (
    Granularity,
    Query,
    Semantics,
    build_index,
    final_score,
    match_documents,
    oracle_rank,
    period_of,
    rank,
)
from chronorank.corpus import Corpus, Document

from helpers import (
    check_all_within_any,
    check_beta_zero,
    check_monotonicity,
    check_period_shares,
    check_relatedness_sums,
    check_row_bounds,
    check_semantics_share_relativeness,
    check_tie_clones,
    examples,
    rank_both,
)

POOL = ["A", "B", "C", "D", "E", "F"]
WINDOW_START = date(1990, 1, 1)

entity_sets = st.sets(st.sampled_from(POOL), max_size=4)
days = st.integers(min_value=0, max_value=89)
counts = st.integers(min_value=1, max_value=6)


@st.composite
def documents(draw, index: int) -> Document:
    entities = draw(entity_sets)
    mentions = {e: draw(counts) for e in sorted(entities)}
    offset = draw(days)
    return Document(
        id=f"doc{index:03d}",
        published_at=WINDOW_START + timedelta(days=offset),
        mentions=mentions,
    )


@st.composite
def corpora(draw) -> Corpus:
    size = draw(st.integers(min_value=0, max_value=14))
    return Corpus(documents=[draw(documents(i)) for i in range(size)])


@st.composite
def queries(draw) -> Query:
    interest = draw(st.sets(st.sampled_from(POOL), min_size=1, max_size=3))
    semantics = draw(st.sampled_from(list(Semantics)))
    granularity = draw(st.sampled_from(list(Granularity)))
    lo = draw(days)
    hi = draw(days)
    start = WINDOW_START + timedelta(days=min(lo, hi))
    end = WINDOW_START + timedelta(days=max(lo, hi))
    beta = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    return Query(
        entities=frozenset(interest),
        semantics=semantics,
        start=start,
        end=end,
        granularity=granularity,
        beta=beta,
    )


def _doc(index: int, offset: int, entities: str) -> Document:
    return Document(
        id=f"doc{index:03d}",
        published_at=WINDOW_START + timedelta(days=offset),
        mentions=dict.fromkeys(entities, 1),
    )


# B co-occurs with 1 of the 10 matched documents in January and 2 in February:
# 1/10 + 2/10 is 0.30000000000000004, while the plain ratio 3/10 is 0.3.
PER_PERIOD_ROUNDING = Corpus(
    documents=[_doc(0, 0, "AB"), _doc(1, 31, "AB"), _doc(2, 31, "AB")]
    + [_doc(i, 60, "A") for i in range(3, 10)]
)


# Each property below runs one of the invariant checks that acceptance
# criterion 3 runs all together over its seeded cases.


@settings(max_examples=120)
@given(corpus=corpora(), query=queries())
def test_score_components_stay_in_bounds(corpus, query):
    check_row_bounds(rank_both(corpus, query))


@settings(max_examples=120)
@given(corpus=corpora(), query=queries())
def test_period_shares_sum_to_one_over_matched(corpus, query):
    check_period_shares(rank_both(corpus, query))


@settings(max_examples=120)
@given(corpus=corpora(), query=queries())
@example(
    corpus=PER_PERIOD_ROUNDING,
    query=Query(
        entities=frozenset({"A"}),
        semantics=Semantics.ALL,
        start=WINDOW_START,
        end=WINDOW_START + timedelta(days=89),
        granularity=Granularity.MONTH,
    ),
)
def test_relatedness_collapses_over_the_period_partition(corpus, query):
    check_relatedness_sums(rank_both(corpus, query))


@settings(max_examples=120)
@given(corpus=corpora(), query=queries())
def test_all_matches_are_contained_in_any_matches(corpus, query):
    check_all_within_any(rank_both(corpus, query))


@settings(max_examples=120)
@given(corpus=corpora(), query=queries())
def test_beta_zero_orders_by_timeliness_times_relativeness(corpus, query):
    check_beta_zero(rank_both(corpus, query))


@settings(max_examples=120)
@given(corpus=corpora(), query=queries())
def test_increasing_a_query_count_raises_all_relativeness(corpus, query):
    check_monotonicity(rank_both(corpus, query))


@settings(max_examples=120)
@given(corpus=corpora(), query=queries())
@example(
    corpus=Corpus(documents=[_doc(0, 0, "AB"), _doc(1, 3, "A"), _doc(2, 40, "ABC"), _doc(3, 41, "BC")]),
    query=Query(
        entities=frozenset({"A", "B"}),
        semantics=Semantics.ANY,
        start=WINDOW_START,
        end=WINDOW_START + timedelta(days=89),
        granularity=Granularity.MONTH,
    ),
)
def test_all_matches_score_the_same_relativeness_under_either_semantics(corpus, query):
    check_semantics_share_relativeness(rank_both(corpus, query))


@settings(max_examples=120)
@given(corpus=corpora(), query=queries())
def test_tied_clones_rank_by_ascending_id(corpus, query):
    check_tie_clones(rank_both(corpus, query))


@st.composite
def query_sequences(draw) -> list[Query]:
    """Queries at mixed granularities over at most two entity sets, so that
    most of them share a query-entity union with an earlier one."""
    interests = draw(st.lists(st.sets(st.sampled_from(POOL), min_size=1, max_size=3), min_size=1, max_size=2))
    batch = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        lo, hi = draw(days), draw(days)
        batch.append(Query(
            entities=frozenset(draw(st.sampled_from(interests))),
            semantics=draw(st.sampled_from(list(Semantics))),
            start=WINDOW_START + timedelta(days=min(lo, hi)),
            end=WINDOW_START + timedelta(days=max(lo, hi)),
            granularity=draw(st.sampled_from(list(Granularity))),
            beta=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
            top_k=draw(st.sampled_from([None, 1, 3])),
        ))
    return batch


@settings(max_examples=120)
@given(corpus=corpora(), batch=query_sequences())
def test_a_warm_index_ranks_like_a_fresh_one(corpus, batch):
    """One index shared by queries at mixed granularities, reusing
    neighbourhood counts across ranges, semantics, top_k and beta, ranks every
    query as a fresh index built for it alone does, in either query order."""
    fresh = [rank(build_index(corpus, query.granularity), query) for query in batch]
    for order in (range(len(batch)), reversed(range(len(batch)))):
        warm = build_index(corpus)
        for i in order:
            assert rank(warm, batch[i]) == fresh[i]


# Ten days for up to fourteen documents, so that days repeat, and range ends
# from three days before the first to three days after the last, so that a
# range may lie wholly outside the corpus.
crowded_days = st.integers(min_value=0, max_value=9)
range_ends = st.integers(min_value=-3, max_value=12)


@st.composite
def crowded_corpora(draw) -> Corpus:
    size = draw(st.integers(min_value=0, max_value=14))
    return Corpus(documents=[
        Document(
            id=f"doc{i:03d}",
            published_at=WINDOW_START + timedelta(days=draw(crowded_days)),
            mentions={e: 1 for e in draw(entity_sets)},
        )
        for i in range(size)
    ])


@settings(max_examples=200)
@given(
    corpus=crowded_corpora(),
    interest=st.sets(st.sampled_from(POOL + ["absent"]), min_size=1, max_size=3),
    semantics=st.sampled_from(list(Semantics)),
    granularity=st.sampled_from(list(Granularity)),
    ends=st.tuples(range_ends, range_ends),
)
@example(  # a single day that three documents share, between two others
    corpus=Corpus(documents=[_doc(0, 2, "A"), _doc(1, 3, "AB"), _doc(2, 3, "A"), _doc(3, 3, "AC"), _doc(4, 4, "A")]),
    interest={"A"}, semantics=Semantics.ANY, granularity=Granularity.DAY, ends=(3, 3),
)
@example(  # wholly before and wholly after the corpus
    corpus=Corpus(documents=[_doc(0, 2, "AB"), _doc(1, 5, "AB")]),
    interest={"A", "B"}, semantics=Semantics.ALL, granularity=Granularity.MONTH, ends=(-3, -1),
)
@example(
    corpus=Corpus(documents=[_doc(0, 2, "AB"), _doc(1, 5, "AB")]),
    interest={"A", "B"}, semantics=Semantics.ANY, granularity=Granularity.WEEK, ends=(6, 12),
)
def test_matching_equals_a_date_filter_over_every_posted_document(corpus, interest, semantics, granularity, ends):
    """The bisected posting slices match exactly the documents a test of
    every posted document's date keeps, with the same period shares."""
    start, end = (WINDOW_START + timedelta(days=n) for n in sorted(ends))
    query = Query(entities=frozenset(interest), semantics=semantics, start=start, end=end, granularity=granularity)
    index = build_index(corpus)
    ctx = match_documents(index, query)

    def published(doc_id: str) -> date:
        return index.doc_table[doc_id].published_at

    in_range = [
        {d for d in set(index.docs_by_entity.get(e, ())) if start <= published(d) <= end}
        for e in interest
    ]
    expected = set.intersection(*in_range) if semantics is Semantics.ALL else set.union(*in_range)
    assert ctx.matched == expected
    shares = Counter(period_of(published(d), granularity) for d in expected)
    assert ctx.period_scores == {key: n / len(expected) for key, n in shares.items()}
    union = set().union(*(index.docs_by_entity.get(e, ()) for e in interest))
    assert index.neighbourhood(query.entities) == (
        len(union), Counter(e for d in union for e in index.doc_table[d].mentions)
    )


@st.composite
def wide_cases(draw) -> tuple[Corpus, Query]:
    """A query naming 50-200 entities, a few of them mentioned nowhere, over
    documents that mention either every named entity or a handful."""
    named = [f"q{i:03d}" for i in range(draw(st.integers(min_value=50, max_value=200)))]
    absent = [f"absent{i}" for i in range(draw(st.sampled_from([0, 0, 0, 1, 3])))]
    docs = []
    for i in range(draw(st.integers(min_value=1, max_value=12))):
        if draw(st.booleans()):
            mentioned = list(named)
        else:
            mentioned = draw(st.lists(st.sampled_from(named), max_size=6, unique=True))
        mentioned += draw(st.lists(st.sampled_from(POOL), max_size=3, unique=True))
        docs.append(Document(
            id=f"doc{i:03d}",
            published_at=WINDOW_START + timedelta(days=draw(crowded_days)),
            mentions={e: 1 + (i + j) % 5 for j, e in enumerate(mentioned)},
        ))
    lo, hi = draw(range_ends), draw(range_ends)
    query = Query(
        entities=frozenset(named + absent),
        semantics=draw(st.sampled_from(list(Semantics))),
        start=WINDOW_START + timedelta(days=min(lo, hi)),
        end=WINDOW_START + timedelta(days=max(lo, hi)),
        granularity=draw(st.sampled_from(list(Granularity))),
        beta=draw(st.sampled_from([0.0, 0.5, 1.0])),
    )
    return Corpus(documents=docs), query


@settings(max_examples=examples(60))
@given(case=wide_cases())
def test_wide_queries_agree_with_brute_force(case):
    corpus, query = case
    assert rank(build_index(corpus), query) == oracle_rank(corpus, query)


@settings(max_examples=120)
@given(corpus=corpora(), query=queries(), bump=st.integers(min_value=1, max_value=9))
def test_matching_ignores_mention_counts(corpus, query, bump):
    index = build_index(corpus)
    before = match_documents(index, query).matched
    bumped_docs = [
        Document(
            id=doc.id,
            published_at=doc.published_at,
            mentions={e: c + bump for e, c in doc.mentions.items()},
        )
        for doc in corpus.documents
    ]
    bumped_index = build_index(Corpus(documents=bumped_docs))
    assert match_documents(bumped_index, query).matched == before


@settings(max_examples=examples(120))
@given(corpus=corpora(), query=queries(), top_k=st.sampled_from([None, 1, 3]))
@example(
    corpus=PER_PERIOD_ROUNDING,
    query=Query(
        entities=frozenset({"A"}),
        semantics=Semantics.ALL,
        start=WINDOW_START,
        end=WINDOW_START + timedelta(days=89),
        granularity=Granularity.MONTH,
    ),
    top_k=None,
)
def test_engine_agrees_with_brute_force(corpus, query, top_k):
    """rank returns the oracle's rows bit for bit, cut to top_k, and
    final_score gives each matched document the oracle's row."""
    query = replace(query, top_k=top_k)
    index = build_index(corpus)
    assert rank(index, query) == oracle_rank(corpus, query)
    ctx = match_documents(index, query)
    for row in oracle_rank(corpus, replace(query, top_k=None)):
        assert final_score(ctx, index.doc_table[row.doc_id]) == row


@settings(max_examples=300)
@given(
    d1=st.one_of(st.dates(), st.sampled_from([date.min, date.max])),
    step=st.one_of(st.integers(0, 8), st.integers(0, date.max.toordinal())),
    granularity=st.sampled_from(list(Granularity)),
)
@example(d1=date.min, step=date.max.toordinal(), granularity=Granularity.WEEK)
@example(d1=date(2010, 1, 1), step=3, granularity=Granularity.WEEK)  # ISO week 2009-W53
def test_period_keys_sort_like_their_days(d1, step, granularity):
    """d1 <= d2 implies period_of(d1) <= period_of(d2), over every date.

    The timeliness range check, the ascending-period sums and the stats
    order all compare period keys as plain strings.
    """
    d2 = date.fromordinal(min(d1.toordinal() + step, date.max.toordinal()))
    assert period_of(d1, granularity) <= period_of(d2, granularity)
