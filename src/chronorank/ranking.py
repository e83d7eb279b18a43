"""How a query is answered: the index, matching, scoring and ranking.

A document's total score combines three signals:

  relativeness   share of the document's mention mass that points at query
                 entities, times the share of query entities it names
                 (relativeness)
  timeliness     share of all matched documents published in the document's
                 period (QueryContext.period_scores)
  relatedness    per non-query entity, an idf-damped rate of co-occurrence
                 with the matched documents across the query periods
                 (QueryContext.entity_scores)

    total = timeliness * relativeness + beta * mean(relatedness over E_d)

where the mean divides by the full entity count of the document and sums only
over its non-query entities. An entity's relatedness is (1 - u / U) times
the sum, over the periods holding matched documents, of m_p / M: U is the
number of documents mentioning any query entity, u how many of those mention
the entity, m_p how many matched documents of period p mention it, and M the
number of matched documents. Semantics select only which documents match.

Cost of one rank call:
  match_documents  cuts each query entity's posting, kept in date order, to
                   the date range by two bisections, and intersects (ALL) or
                   unions (ANY) the slices; no date is tested per document.
  QueryContext     buckets the matched documents by period once
                   (period_groups) and derives from the groups each period's
                   share and, in one pass, every related entity's score.
  neighbourhood    the idf factor's union size and entity counts depend on
                   the query's entity set alone, so each index keeps them for
                   its NEIGHBOURHOOD_MEMO_SIZE most recently used entity
                   sets. A miss counts the mentions of every union document
                   once; later queries over the same entities reuse the
                   count whatever their range, semantics, top_k or beta.
  _score_rows      runs the row formula one loop per period group, reading
                   the group's timeliness once. Relativeness walks the
                   document's mentions and probes the query set, so a query
                   naming thousands of entities (an expanded category) costs
                   no more per document than one naming two.
  rank             sorts the rows, or selects top_k of them with a heap, and
                   builds a ScoreBreakdown only for the rows it returns.
final_score runs the same row formula on one document, so the engine has one
copy of it; the oracle keeps the one independent copy.

Evaluation order is fixed so results are bit-for-bit reproducible. Postings
are in (published_at, id) order. Co-occurrence is summed per period in
ascending period order, each period adding its own m_p / M, and only then
multiplied by the idf factor, so a score equals the oracle's per-period scan
bit for bit; one overall ratio would round differently and could reorder exact
ties. A row's related entities are summed in ascending entity-id order, and
the division by the entity count happens after the sum. The counts are
integers, so no score depends on the order documents are visited in. Ties in
the final ordering break by ascending document id. Float sums are written as
left-to-right additions, never with builtin sum(): from Python 3.12 sum()
compensates float rounding, so the same sum would give other bits there.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from datetime import date
from functools import cached_property, lru_cache, partial, reduce
from heapq import nsmallest
from itertools import chain, repeat
from operator import add, attrgetter
from typing import Callable, Iterable

from .corpus import Corpus, Document, EntityId
from .query import Granularity, Query, Semantics, period_of


# Most query-entity sets one index keeps neighbourhood counts for; the least
# recently used is evicted first.
NEIGHBOURHOOD_MEMO_SIZE = 64


def _count_neighbourhood(
    docs_by_entity: dict[EntityId, tuple[str, ...]],
    doc_table: dict[str, Document],
    entities: frozenset[EntityId],
) -> tuple[int, Counter[EntityId]]:
    """How many documents mention any of entities, and how many of them
    mention each entity."""
    union = frozenset().union(*[docs_by_entity.get(e, ()) for e in entities])
    return len(union), Counter(chain.from_iterable(map(attrgetter("mentions"), map(doc_table.__getitem__, union))))


@dataclass(frozen=True)
class CorpusIndex:
    """Lookup structures for one corpus.

    A posting is the tuple of ids of the documents mentioning one entity,
    ordered by (published_at, id); the id breaks ties between documents of
    one day, so the order is total. No period is stored, so one index
    answers queries at every granularity.

    neighbourhood(entities) takes a frozenset of query entities and returns
    the size of the union of their postings and the Counter of entities over
    those documents. Each index caches it for its NEIGHBOURHOOD_MEMO_SIZE most
    recently used entity sets.
    """

    docs_by_entity: dict[EntityId, tuple[str, ...]]
    doc_table: dict[str, Document]
    neighbourhood: Callable[[frozenset[EntityId]], tuple[int, Counter[EntityId]]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        # The cached function holds the postings and the document table, not
        # the index, so an index nothing else references is freed at once,
        # cache and all.
        count = partial(_count_neighbourhood, self.docs_by_entity, self.doc_table)
        object.__setattr__(self, "neighbourhood", lru_cache(maxsize=NEIGHBOURHOOD_MEMO_SIZE)(count))


def build_index(corpus: Corpus, granularity: Granularity | None = None) -> CorpusIndex:
    """Build the entity postings and the document table for a corpus.

    The index serves queries at every granularity, and granularity is
    ignored. It is kept only because the benchmark scripts still pass one;
    the benchmark change planned as item 2 of ROADMAP.md deletes it.

    Documents with no mentions appear in doc_table but in no entity posting.
    Walking the documents in (published_at, id) order fills every posting in
    that order.
    """
    # Two stable sorts on single keys run about twice as fast as one sort
    # on a (date, id) tuple key, and give the same order.
    by_id = sorted(corpus.documents, key=attrgetter("id"))
    by_entity: dict[EntityId, list[str]] = defaultdict(list)
    for doc in sorted(by_id, key=attrgetter("published_at")):
        for entity in doc.mentions:
            by_entity[entity].append(doc.id)
    return CorpusIndex(
        docs_by_entity={e: tuple(ids) for e, ids in by_entity.items()},
        doc_table={doc.id: doc for doc in corpus.documents},
    )


@dataclass(frozen=True)
class QueryContext:
    """One query's matched documents, and the scores derived from them.

    matched is the set of document ids that satisfy the query. Every other
    attribute is derived from the three fields on first read and then kept,
    so a context built by hand scores exactly like one from match_documents.
    """

    query: Query
    index: CorpusIndex
    matched: frozenset[str]

    @cached_property
    def period_groups(self) -> dict[str, list[Document]]:
        """The matched documents, bucketed by the key of their period."""
        granularity = self.query.granularity
        groups: dict[str, list[Document]] = defaultdict(list)
        for doc in map(self.index.doc_table.__getitem__, self.matched):
            groups[period_of(doc.published_at, granularity)].append(doc)
        return dict(groups)

    @cached_property
    def period_scores(self) -> dict[str, float]:
        """Each period's share of the matched documents, keyed by the periods
        holding one; every other period's share is 0."""
        total = len(self.matched)
        return {key: len(docs) / total for key, docs in self.period_groups.items()}

    @cached_property
    def entity_scores(self) -> dict[EntityId, float]:
        """Relatedness of every non-query entity of the matched documents.

        An entity in no matched document has no entry: its score is 0.0.
        Raises ValueError when no document mentions a query entity.
        """
        union_size, inside = self.index.neighbourhood(frozenset(self.query.entities))
        if not union_size:
            raise ValueError("no documents mention any query entity")
        groups = self.period_groups
        total = len(self.matched)
        mentions = attrgetter("mentions")
        cooccurrence: dict[EntityId, float] = {}
        for key in sorted(groups):
            for entity, n in Counter(chain.from_iterable(map(mentions, groups[key]))).items():
                cooccurrence[entity] = cooccurrence.get(entity, 0.0) + n / total
        entities = self.query.entities
        return {
            entity: (1.0 - inside[entity] / union_size) * rate
            for entity, rate in cooccurrence.items()
            if entity not in entities
        }


def match_documents(index: CorpusIndex, query: Query) -> QueryContext:
    """The context of the documents in the query's date range that mention
    every (ALL) or any (ANY) query entity. Periods are taken at the query's
    granularity, so one index answers queries at any granularity.
    """
    doc_table = index.doc_table

    def day(doc_id: str) -> date:
        return doc_table[doc_id].published_at

    postings = [index.docs_by_entity.get(e, ()) for e in query.entities]
    in_range = [
        posting[bisect_left(posting, query.start, key=day) : bisect_right(posting, query.end, key=day)]
        for posting in postings
    ]
    if query.semantics is Semantics.ALL:
        matched = frozenset(in_range[0]).intersection(*in_range[1:])
    else:
        matched = frozenset().union(*in_range)
    return QueryContext(query=query, index=index, matched=matched)


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


def relativeness(doc: Document, entities: frozenset[EntityId]) -> float:
    """Query share of the document's mention mass, weighted by query coverage.

    The coverage factor is the fraction of query entities the document
    mentions, so partial matches score lower than full ones. A document an
    ALL query matches mentions every query entity, so its factor is exactly
    1.0 and leaves the share's bits alone.
    """
    mentions = doc.mentions
    if not mentions:
        raise ValueError(f"document {doc.id!r} has no mentions to score")
    named = entities.intersection(mentions)
    hits = sum(map(mentions.__getitem__, named))
    return (hits / sum(mentions.values())) * (len(named) / len(entities))


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
    """Combine the three signals into the document's total score.

    Raises ValueError for a document whose period is outside the query range.
    """
    query = ctx.query
    period = period_of(doc.published_at, query.granularity)
    if not period_of(query.start, query.granularity) <= period <= period_of(query.end, query.granularity):
        raise ValueError(f"period {period} is outside the query range")
    (row,) = _score_rows(ctx, [(period, ctx.period_scores.get(period, 0.0), (doc,))])
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
