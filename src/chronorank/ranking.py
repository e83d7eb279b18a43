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

Relatedness is computed for all related entities of a query at once, as
QueryContext.entity_scores: one pass counts each entity's matched documents
by period, and its idf factor takes the entity's documents in the
query-entity union from CorpusIndex.neighbourhood. That count depends on the
union alone, so the index keeps it per union and later queries over the same
entities reuse it, whatever their range, semantics, top_k or beta. No
posting is scanned on the ranking path. The counts are integers, so a score
does not depend on the order the documents are visited in.

Relativeness intersects the query entities with the document's mentions,
which walks the mentions and probes the query set, so a query naming
thousands of entities (an expanded category) costs no more per document than
one naming two.

Cost model of one rank call: match_documents cuts the postings to the date
range; the context buckets the matched documents by period once
(QueryContext.period_groups) and derives from those groups each period's
share and, in one related pass, every related entity's score; the row
formula (_score_rows) then runs one loop per period group, reading the
group's timeliness once; and a ScoreBreakdown is built only for the rows
returned. final_score runs the same row formula on its one document, so the
engine has one copy of it; the oracle keeps the one independent copy.

Evaluation order is fixed so results are bit-for-bit reproducible: related
entities are summed in ascending entity-id order, period contributions in
ascending period order, and the division happens after the sum. Ties in the
final ordering break by ascending document id. Float sums are written as
left-to-right additions, never with builtin sum(): from Python 3.12 sum()
compensates float rounding, so the same sum would give other bits there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from heapq import nsmallest
from itertools import repeat
from operator import add
from typing import Iterable

from .corpus import Document, EntityId
from .index import CorpusIndex, period_of
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

# A scored document as (-total, doc_id, period, relativeness, timeliness,
# relatedness_term, total): tuples sort by total descending, then id
# ascending, and the fields after the first are a ScoreBreakdown's.
Row = tuple[float, str, str, float, float, float, float]


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


def relatedness(ctx: QueryContext, entity: EntityId) -> float:
    """Idf-damped co-occurrence rate of an entity with the matched documents.

    Sums, period by period in ascending order, the fraction of matched
    documents in that period that also mention the entity, then scales by
    idf. Periods with no such document add 0.0 and are skipped; a single
    overall ratio would round differently and can reorder exact ties. Read
    from ctx.entity_scores, which scores every related entity of the query
    at once; an entity in no matched document has a zero rate and scores
    0.0. Only defined for entities outside the query set.
    """
    if entity in ctx.query.entities:
        raise ValueError(f"entity {entity!r} is a query entity; relatedness applies to the others")
    return ctx.entity_scores.get(entity, 0.0)


def _score_rows(ctx: QueryContext, groups: Iterable[tuple[str, float, Iterable[Document]]]) -> list[Row]:
    """The row formula, applied group by group to (period, timeliness, documents).

    Returns one Row per document. The relatedness sum runs left to right
    from 0.0 over the document's sorted mentions, each adding its
    ctx.entity_scores entry; a query entity has none and adds 0.0, which leaves
    the sum's bits alone because a sum started at 0.0 is never -0.0. It is
    not builtin sum(), which from Python 3.12 compensates float sums and
    would round differently.
    """
    query = ctx.query
    entities, beta = query.entities, query.beta
    relativeness = relativeness_all if query.semantics is Semantics.ALL else relativeness_any
    related = ctx.entity_scores.get
    rows: list[Row] = []
    for period, timely, docs in groups:
        for doc in docs:
            mentions = doc.mentions
            rel = relativeness(doc, entities)
            term = reduce(add, map(related, mentions, repeat(0.0)), 0.0) / len(mentions)
            total = timely * rel + beta * term
            rows.append((-total, doc.id, period, rel, timely, term, total))
    return rows


def final_score(ctx: QueryContext, doc: Document) -> ScoreBreakdown:
    """Combine the three signals into the document's total score."""
    period = period_of(doc.published_at, ctx.query.granularity)
    (row,) = _score_rows(ctx, [(period, timeliness(ctx, period), (doc,))])
    return ScoreBreakdown(*row[1:])


def rank(index: CorpusIndex, query: Query) -> RankedResult:
    """Match, score, and order documents for a query.

    Results are sorted by total descending with ties broken by document id
    ascending, then truncated to top_k when the query sets one. An empty
    match yields an empty list. A top_k query selects its rows with a heap
    instead of sorting them all, and a ScoreBreakdown is built only for the
    rows returned.
    """
    ctx = match_documents(index, query)
    if not ctx.matched:
        return []
    shares = ctx.period_scores
    rows = _score_rows(ctx, ((key, shares[key], docs) for key, docs in ctx.period_groups.items()))
    if query.top_k is None:
        rows.sort()
    else:
        rows = nsmallest(query.top_k, rows)
    return [ScoreBreakdown(*row[1:]) for row in rows]
