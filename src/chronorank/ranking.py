"""Scoring and ranking of matched documents.

A document's total score combines three signals:

  relativeness   share of the document's mention mass that points at query
                 entities, under ANY semantics damped by query coverage
  timeliness     share of all matched documents published in the document's
                 period
  relatedness    per non-query entity, an idf-damped rate of co-occurrence
                 with the matched documents across the query periods

    total = timeliness * relativeness + beta * mean(relatedness over E_d)

where the mean divides by the full entity count of the document and sums only
over its non-query entities.

Relatedness is computed for all related entities of a query at once: one
pass counts each entity's matched documents by period, and its idf factor
takes the entity's documents in the query-entity union from a count kept on
the index. That count depends on the union alone, so it is made once per
union and index (see CorpusIndex.neighbourhood_counts) and reused by later
queries over the same entities, whatever their range, semantics, top_k or
beta. No posting is scanned on the ranking path. The counts are integers, so a score
does not depend on the order the documents are visited in.

Relativeness intersects the query entities with the document's mentions,
which walks the mentions and probes the query set, so a query naming
thousands of entities (an expanded category) costs no more per document than
one naming two.

Evaluation order is fixed so results are bit-for-bit reproducible: related
entities are summed in ascending entity-id order, period contributions in
ascending period order, and the division happens after the sum. Ties in the
final ordering break by ascending document id.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain

from .corpus import Document, EntityId
from .index import NEIGHBOURHOOD_MEMO_SIZE, CorpusIndex, period_of
from .query import Query, QueryContext, Semantics, match_documents


@dataclass(frozen=True)
class ScoreBreakdown:
    """Score components for one ranked document."""

    doc_id: str
    period: str
    relativeness: float
    timeliness: float
    relatedness_term: float
    total: float


RankedResult = list[ScoreBreakdown]


def relativeness_all(doc: Document, entities: frozenset[EntityId]) -> float:
    """Fraction of the document's mentions that refer to query entities.

    Under ALL semantics every query entity is present, so this is simply the
    query share of the document's mention mass.
    """
    mentions = doc.mentions
    if not mentions:
        raise ValueError(f"document {doc.id!r} has no mentions to score")
    hits = sum(map(mentions.__getitem__, entities.intersection(mentions)))
    return hits / doc.total_mentions()


def relativeness_any(doc: Document, entities: frozenset[EntityId]) -> float:
    """Query share of the mention mass, weighted by query coverage.

    The coverage factor is the fraction of query entities the document
    actually mentions, so partial matches score lower than full ones.
    """
    mentions = doc.mentions
    if not mentions:
        raise ValueError(f"document {doc.id!r} has no mentions to score")
    named = entities.intersection(mentions)
    hits = sum(map(mentions.__getitem__, named))
    return (hits / doc.total_mentions()) * (len(named) / len(entities))


def timeliness(ctx: QueryContext, period: str) -> float:
    """Share of matched documents published in the period with the given key.

    Raises ValueError for a period outside the query range.
    """
    query = ctx.query
    if not period_of(query.start, query.granularity) <= period <= period_of(query.end, query.granularity):
        raise ValueError(f"period {period} is outside the query range")
    return ctx.period_scores.get(period, 0.0)


def idf(ctx: QueryContext, entity: EntityId) -> float:
    """Inverse frequency of an entity within the query-entity neighbourhood.

    Counts how often the entity appears among all documents, corpus-wide,
    that mention at least one query entity. An entity present in every such
    document scores 0; one present in none scores 1.
    """
    union = ctx.query_entity_docs
    if not union:
        raise ValueError("no documents mention any query entity")
    posting = ctx.index.docs_by_entity.get(entity, ())
    inside = sum(1 for doc_id in posting if doc_id in union)
    return 1.0 - inside / len(union)


def _neighbourhood_counts(ctx: QueryContext) -> Counter[EntityId]:
    """How many documents of ctx.query_entity_docs mention each entity.

    Read from the index's memo, where a hit becomes the most recently used
    union. A miss counts the union's mentions and stores the result,
    evicting the least recently used union once NEIGHBOURHOOD_MEMO_SIZE are
    held.
    """
    memo = ctx.index.neighbourhood_counts
    union = ctx.query_entity_docs
    inside = memo.pop(union, None)
    if inside is None:
        doc_table = ctx.index.doc_table
        inside = Counter(chain.from_iterable(doc_table[doc_id].mentions for doc_id in union))
        if len(memo) >= NEIGHBOURHOOD_MEMO_SIZE:
            del memo[next(iter(memo))]
    memo[union] = inside
    return inside


def _score_related_entities(ctx: QueryContext) -> None:
    """Fill the relatedness memo for every non-query entity of the matched documents.

    Counts, per period, the matched documents mentioning each entity, and
    takes each entity's union documents from _neighbourhood_counts. The
    scores then take the float operations of idf and of the ascending
    per-period sum, in the same order, so they equal a per-entity posting
    scan bit for bit. Memo entries already present are kept.
    """
    union = ctx.query_entity_docs
    if not union:
        raise ValueError("no documents mention any query entity")
    query = ctx.query
    doc_table = ctx.index.doc_table
    mentions_by_period: dict[str, list[dict[EntityId, int]]] = defaultdict(list)
    for doc_id in ctx.matched:
        doc = doc_table[doc_id]
        mentions_by_period[period_of(doc.published_at, query.granularity)].append(doc.mentions)
    total = len(ctx.matched)
    cooccurrence: dict[EntityId, float] = {}
    for key in sorted(mentions_by_period):
        for entity, n in Counter(chain.from_iterable(mentions_by_period[key])).items():
            cooccurrence[entity] = cooccurrence.get(entity, 0.0) + n / total
    inside = _neighbourhood_counts(ctx)
    memo = ctx.entity_scores
    for entity, rate in cooccurrence.items():
        if entity not in query.entities:
            memo.setdefault(entity, (1.0 - inside[entity] / len(union)) * rate)
    ctx.related_counted = True


def relatedness(ctx: QueryContext, entity: EntityId) -> float:
    """Idf-damped co-occurrence rate of an entity with the matched documents.

    Sums, period by period in ascending order, the fraction of matched
    documents in that period that also mention the entity, then scales by
    idf. Periods with no such document add 0.0 and are skipped; a single
    overall ratio would round differently and can reorder exact ties.
    Memoized on the context for the lifetime of the query: the first miss
    fills the memo for every entity co-occurring with the matched documents
    in one pass over their mentions, with idf's counts over the union taken
    from the index's memo. An entity in no matched document has a zero rate
    and scores 0.0. Only defined for entities outside the query set.
    """
    if entity in ctx.query.entities:
        raise ValueError(f"entity {entity!r} is a query entity; relatedness applies to the others")
    memo = ctx.entity_scores
    if entity not in memo and not ctx.related_counted:
        _score_related_entities(ctx)
    return memo.setdefault(entity, 0.0)


def final_score(ctx: QueryContext, doc: Document) -> ScoreBreakdown:
    """Combine the three signals into the document's total score."""
    query = ctx.query
    if query.semantics is Semantics.ALL:
        relativeness = relativeness_all(doc, query.entities)
    else:
        relativeness = relativeness_any(doc, query.entities)
    period = period_of(doc.published_at, query.granularity)
    timely = ctx.period_scores.get(period)
    if timely is None:
        timely = timeliness(ctx, period)
    scores = ctx.entity_scores
    related_sum = 0.0
    for entity in doc.mentions:  # Document keeps its mentions sorted
        if entity not in query.entities:
            score = scores.get(entity)
            related_sum += relatedness(ctx, entity) if score is None else score
    relatedness_term = related_sum / len(doc.mentions)
    total = timely * relativeness + query.beta * relatedness_term
    return ScoreBreakdown(
        doc_id=doc.id,
        period=period,
        relativeness=relativeness,
        timeliness=timely,
        relatedness_term=relatedness_term,
        total=total,
    )


def rank(index: CorpusIndex, query: Query) -> RankedResult:
    """Match, score, and order documents for a query.

    Results are sorted by total descending with ties broken by document id
    ascending, then truncated to top_k when the query sets one. An empty
    match yields an empty list.
    """
    ctx = match_documents(index, query)
    if not ctx.matched:
        return []
    rows = [final_score(ctx, index.doc_table[doc_id]) for doc_id in sorted(ctx.matched)]
    rows.sort(key=lambda row: (-row.total, row.doc_id))
    if query.top_k is not None:
        rows = rows[: query.top_k]
    return rows
