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

Cost model of one rank call: match_documents buckets the matched documents
by period once (QueryContext.period_groups); one related pass reads those
groups and fills the relatedness memo; the row formula (_score_rows) then
runs one loop per period group, reading the group's timeliness once; and a
ScoreBreakdown is built only for the rows returned. final_score runs the same
row formula on its one document, so the engine has one copy of it; the
oracle keeps the one independent copy.

Evaluation order is fixed so results are bit-for-bit reproducible: related
entities are summed in ascending entity-id order, period contributions in
ascending period order, and the division happens after the sum. Ties in the
final ordering break by ascending document id. Float sums are written as
left-to-right additions, never with builtin sum(): from Python 3.12 sum()
compensates float rounding, so the same sum would give other bits there.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from heapq import nsmallest
from itertools import chain, repeat
from operator import add, attrgetter
from typing import Iterable

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

# A scored document as (-total, doc_id, period, relativeness, timeliness,
# relatedness_term, total): tuples sort by total descending, then id
# ascending, and the fields after the first are a ScoreBreakdown's.
Row = tuple[float, str, str, float, float, float, float]

_mentions = attrgetter("mentions")


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
        inside = Counter(chain.from_iterable(map(_mentions, map(ctx.index.doc_table.__getitem__, union))))
        if len(memo) >= NEIGHBOURHOOD_MEMO_SIZE:
            del memo[next(iter(memo))]
    memo[union] = inside
    return inside


def _score_related_entities(ctx: QueryContext) -> None:
    """Fill the relatedness memo for every non-query entity of the matched documents.

    Counts, per period group of ctx.period_groups, the matched documents
    mentioning each entity, and takes each entity's union documents from
    _neighbourhood_counts. The scores then take the float operations of idf
    and of the ascending per-period sum, in the same order, so they equal a
    per-entity posting scan bit for bit. Memo entries already present are
    kept.
    """
    union = ctx.query_entity_docs
    if not union:
        raise ValueError("no documents mention any query entity")
    groups = ctx.period_groups
    total = len(ctx.matched)
    cooccurrence: dict[EntityId, float] = {}
    for key in sorted(groups):
        for entity, n in Counter(chain.from_iterable(map(_mentions, groups[key]))).items():
            cooccurrence[entity] = cooccurrence.get(entity, 0.0) + n / total
    inside = _neighbourhood_counts(ctx)
    memo = ctx.entity_scores
    entities = ctx.query.entities
    for entity, rate in cooccurrence.items():
        if entity not in entities:
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


def _score_rows(ctx: QueryContext, groups: Iterable[tuple[str, float, Iterable[Document]]]) -> list[Row]:
    """The row formula, applied group by group to (period, timeliness, documents).

    Returns one Row per document. The relatedness sum runs left to right
    from 0.0 over the document's sorted mentions, each adding its memo
    entry; a query entity is never in the memo and adds 0.0, which leaves
    the sum's bits alone because a sum started at 0.0 is never -0.0. It is
    not builtin sum(), which from Python 3.12 compensates float sums and
    would round differently.
    """
    if not ctx.related_counted:
        _score_related_entities(ctx)
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
    timely = ctx.period_scores.get(period)
    if timely is None:
        timely = timeliness(ctx, period)
    (row,) = _score_rows(ctx, [(period, timely, (doc,))])
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
