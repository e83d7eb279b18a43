"""Property-based invariants over random corpora and queries."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from datetime import date, timedelta

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chronorank import (
    Corpus,
    Document,
    Granularity,
    Query,
    QueryContext,
    Semantics,
    ScoreBreakdown,
    build_index,
    final_score,
    match_documents,
    oracle_rank,
    period_of,
    rank,
    relatedness,
    relativeness_all,
    relativeness_any,
)

from helpers import idf

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


@settings(max_examples=120, deadline=None)
@given(corpus=corpora(), query=queries())
def test_score_components_stay_in_bounds(corpus, query):
    index = build_index(corpus, query.granularity)
    for row in rank(index, query):
        assert 0.0 < row.relativeness <= 1.0
        assert 0.0 < row.timeliness <= 1.0
        assert 0.0 <= row.relatedness_term < 1.0
        assert 0.0 < row.total <= 1.0 + query.beta
        assert row.total == row.timeliness * row.relativeness + query.beta * row.relatedness_term


@settings(max_examples=120, deadline=None)
@given(corpus=corpora(), query=queries())
def test_period_shares_sum_to_one_over_matched(corpus, query):
    index = build_index(corpus, query.granularity)
    ctx = match_documents(index, query)
    assume(ctx.matched)
    assert abs(sum(ctx.period_scores.values()) - 1.0) <= 1e-12


@settings(max_examples=120, deadline=None)
@given(corpus=corpora(), query=queries())
def test_relatedness_collapses_over_the_period_partition(corpus, query):
    """Summing per-period co-occurrence over a partition of the matched set
    equals the overall co-occurrence rate."""
    index = build_index(corpus, query.granularity)
    ctx = match_documents(index, query)
    assume(ctx.matched)
    extras = sorted(corpus.entity_universe - query.entities)
    assume(extras)
    for entity in extras:
        hits = set(index.docs_by_entity.get(entity, ())) & ctx.matched
        whole = len(hits) / len(ctx.matched)
        assert abs(relatedness(ctx, entity) - idf(ctx, entity) * whole) <= 1e-12
        # the documented order, bit for bit: ascending periods, divide each
        # period's count, sum, then scale by idf
        per_period = Counter(period_of(index.doc_table[d].published_at, query.granularity) for d in hits)
        ordered = 0.0
        for key in sorted(per_period):
            ordered += per_period[key] / len(ctx.matched)
        assert relatedness(ctx, entity) == idf(ctx, entity) * ordered


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


@settings(max_examples=120, deadline=None)
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
def test_rows_equal_the_per_posting_formula(corpus, query, top_k):
    """Every row, bit for bit, against relatedness scanned posting by posting:
    the matched documents in the posting counted by period and summed in
    ascending period order, times 1 - |posting & union| / |union|. rank
    returns exactly those rows, sorted by total descending and id ascending,
    cut to top_k. A context built by hand with the whole corpus as its
    union, on the index that has just counted the query's own union, is
    scored over its own union, with period shares derived from its matched
    set as they are for a matched context."""
    query = replace(query, top_k=top_k)
    index = build_index(corpus, query.granularity)
    ctx = match_documents(index, query)

    def period(doc_id: str) -> str:
        return period_of(index.doc_table[doc_id].published_at, query.granularity)

    def check(ctx: QueryContext) -> list[ScoreBreakdown]:
        matched, union = ctx.matched, ctx.query_entity_docs

        def reference_relatedness(entity: str) -> float:
            posting = index.docs_by_entity.get(entity, ())
            per_period = Counter(period(d) for d in matched.intersection(posting))
            cooccurrence = 0.0
            for key in sorted(per_period):
                cooccurrence += per_period[key] / len(matched)
            return (1.0 - len(union.intersection(posting)) / len(union)) * cooccurrence

        shares = Counter(period(d) for d in matched)
        relativeness = relativeness_all if query.semantics is Semantics.ALL else relativeness_any
        rows = []
        for doc_id in sorted(matched):
            doc = index.doc_table[doc_id]
            related_sum = 0.0
            for entity in sorted(doc.mentions):
                if entity not in query.entities:
                    related_sum += reference_relatedness(entity)
            relatedness_term = related_sum / len(doc.mentions)
            timely = shares[period(doc_id)] / len(matched)
            rel = relativeness(doc, query.entities)
            rows.append(ScoreBreakdown(
                doc_id=doc_id,
                period=period(doc_id),
                relativeness=rel,
                timeliness=timely,
                relatedness_term=relatedness_term,
                total=timely * rel + query.beta * relatedness_term,
            ))
            assert final_score(ctx, doc) == rows[-1]
        return rows

    expected = sorted(check(ctx), key=lambda row: (-row.total, row.doc_id))
    assert rank(index, query) == expected[:top_k]
    check(QueryContext(
        query=query,
        index=index,
        matched=ctx.matched,
        query_entity_docs=frozenset(index.doc_table),
    ))


@st.composite
def query_sequences(draw) -> list[Query]:
    """Queries at one granularity over at most two entity sets, so that most
    of them share a query-entity union with an earlier one."""
    granularity = draw(st.sampled_from(list(Granularity)))
    interests = draw(st.lists(st.sets(st.sampled_from(POOL), min_size=1, max_size=3), min_size=1, max_size=2))
    batch = []
    for _ in range(draw(st.integers(min_value=2, max_value=6))):
        lo, hi = draw(days), draw(days)
        batch.append(Query(
            entities=frozenset(draw(st.sampled_from(interests))),
            semantics=draw(st.sampled_from(list(Semantics))),
            start=WINDOW_START + timedelta(days=min(lo, hi)),
            end=WINDOW_START + timedelta(days=max(lo, hi)),
            granularity=granularity,
            beta=draw(st.sampled_from([0.0, 0.3, 0.5, 1.0])),
            top_k=draw(st.sampled_from([None, 1, 3])),
        ))
    return batch


@settings(max_examples=120, deadline=None)
@given(corpus=corpora(), batch=query_sequences())
def test_a_warm_index_ranks_like_a_fresh_one(corpus, batch):
    """Neighbourhood counts reused across ranges, semantics, top_k and beta
    leave every row as a fresh index gives it, in either query order."""
    granularity = batch[0].granularity
    fresh = [rank(build_index(corpus, granularity), query) for query in batch]
    for order in (range(len(batch)), reversed(range(len(batch)))):
        warm = build_index(corpus, granularity)
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


@settings(max_examples=200, deadline=None)
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
    index = build_index(corpus, granularity)
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
    assert ctx.query_entity_docs == set().union(*(index.docs_by_entity.get(e, ()) for e in interest))


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


@settings(max_examples=60, deadline=None)
@given(case=wide_cases())
def test_wide_queries_agree_with_brute_force(case):
    corpus, query = case
    got = rank(build_index(corpus, query.granularity), query)
    expected = oracle_rank(corpus, query)
    assert [r.doc_id for r in got] == [r.doc_id for r in expected]
    for mine, ref in zip(got, expected):
        assert abs(mine.total - ref.total) <= 1e-12
        assert abs(mine.relativeness - ref.relativeness) <= 1e-12
        assert abs(mine.timeliness - ref.timeliness) <= 1e-12
        assert abs(mine.relatedness_term - ref.relatedness_term) <= 1e-12


@settings(max_examples=120, deadline=None)
@given(corpus=corpora(), query=queries())
def test_all_matches_are_contained_in_any_matches(corpus, query):
    index = build_index(corpus, query.granularity)
    strict = Query(
        entities=query.entities, semantics=Semantics.ALL, start=query.start,
        end=query.end, granularity=query.granularity, beta=query.beta,
    )
    loose = Query(
        entities=query.entities, semantics=Semantics.ANY, start=query.start,
        end=query.end, granularity=query.granularity, beta=query.beta,
    )
    assert match_documents(index, strict).matched <= match_documents(index, loose).matched


@settings(max_examples=120, deadline=None)
@given(corpus=corpora(), query=queries(), bump=st.integers(min_value=1, max_value=9))
def test_matching_ignores_mention_counts(corpus, query, bump):
    index = build_index(corpus, query.granularity)
    before = match_documents(index, query).matched
    bumped_docs = [
        Document(
            id=doc.id,
            published_at=doc.published_at,
            mentions={e: c + bump for e, c in doc.mentions.items()},
        )
        for doc in corpus.documents
    ]
    bumped_index = build_index(Corpus(documents=bumped_docs), query.granularity)
    assert match_documents(bumped_index, query).matched == before


@settings(max_examples=120, deadline=None)
@given(corpus=corpora(), query=queries())
def test_beta_zero_orders_by_timeliness_times_relativeness(corpus, query):
    plain = Query(
        entities=query.entities, semantics=query.semantics, start=query.start,
        end=query.end, granularity=query.granularity, beta=0.0,
    )
    index = build_index(corpus, plain.granularity)
    rows = rank(index, plain)
    expected = sorted(rows, key=lambda r: (-(r.timeliness * r.relativeness), r.doc_id))
    assert [r.doc_id for r in rows] == [r.doc_id for r in expected]
    for row in rows:
        assert row.total == row.timeliness * row.relativeness


@settings(max_examples=120, deadline=None)
@given(
    mentions=st.dictionaries(st.sampled_from(POOL), counts, min_size=1, max_size=5),
    extra=counts,
)
def test_increasing_a_query_count_raises_all_relativeness(mentions, extra):
    interest = frozenset({"A"})
    assume("A" in mentions)
    other_mass = sum(c for e, c in mentions.items() if e != "A")
    doc = Document(id="d", published_at=WINDOW_START, mentions=mentions)
    raised = Document(
        id="d", published_at=WINDOW_START,
        mentions=dict(mentions, A=mentions["A"] + extra),
    )
    before = relativeness_all(doc, interest)
    after = relativeness_all(raised, interest)
    if other_mass > 0:
        assert after > before
    else:
        assert after == before == 1.0


@settings(max_examples=120, deadline=None)
@given(
    mentions=st.dictionaries(st.sampled_from(POOL), counts, min_size=1, max_size=5),
    target=st.sampled_from(POOL),
)
def test_single_entity_variants_agree(mentions, target):
    assume(target in mentions)
    doc = Document(id="d", published_at=WINDOW_START, mentions=mentions)
    interest = frozenset({target})
    assert relativeness_all(doc, interest) == relativeness_any(doc, interest)


@settings(max_examples=60, deadline=None)
@given(corpus=corpora(), query=queries())
def test_engine_agrees_with_brute_force(corpus, query):
    index = build_index(corpus, query.granularity)
    got = rank(index, query)
    expected = oracle_rank(corpus, query)
    assert [r.doc_id for r in got] == [r.doc_id for r in expected]
    for mine, ref in zip(got, expected):
        assert abs(mine.total - ref.total) <= 1e-12
        assert abs(mine.relativeness - ref.relativeness) <= 1e-12
        assert abs(mine.timeliness - ref.timeliness) <= 1e-12
        assert abs(mine.relatedness_term - ref.relatedness_term) <= 1e-12


@settings(max_examples=120, deadline=None)
@given(corpus=corpora(), query=queries())
def test_ranking_is_deterministic_within_a_process(corpus, query):
    index = build_index(corpus, query.granularity)
    once = rank(index, query)
    again = rank(build_index(corpus, query.granularity), query)
    assert once == again


@settings(max_examples=300, deadline=None)
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
