"""Calendar bucketing and the entity inverted index.

Documents are bucketed into day, ISO week, month, or year periods. A period
is its key string, whose lexicographic order matches chronological order
within one granularity:

    day   1990-02-11
    week  1990-W07   (ISO-8601 week numbering, weeks start on Monday)
    month 1990-02
    year  1990
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from functools import lru_cache, partial
from itertools import chain
from operator import attrgetter
from typing import Callable

from .corpus import Corpus, Document, EntityId


class Granularity(Enum):
    DAY = "day"
    WEEK = "week"
    MONTH = "month"
    YEAR = "year"

    # Enum's own __hash__ is written in Python and runs on every period_of
    # cache lookup; members are singletons, so identity hashing is equivalent.
    __hash__ = object.__hash__


@lru_cache(maxsize=None)
def period_of(day: date, granularity: Granularity) -> str:
    """The key of the period holding a calendar day at the given granularity."""
    if granularity is Granularity.DAY:
        return day.isoformat()
    if granularity is Granularity.WEEK:
        iso_year, iso_week, _ = day.isocalendar()
        return f"{iso_year:04d}-W{iso_week:02d}"
    if granularity is Granularity.MONTH:
        return f"{day.year:04d}-{day.month:02d}"
    return f"{day.year:04d}"


# Most query-entity sets one index keeps neighbourhood counts for; the least
# recently used is evicted first.
NEIGHBOURHOOD_MEMO_SIZE = 64


def _count_neighbourhood(
    docs_by_entity: dict[EntityId, tuple[str, ...]],
    doc_table: dict[str, Document],
    entities: frozenset[EntityId],
) -> tuple[frozenset[str], Counter[EntityId]]:
    """The documents mentioning any of entities, and how many of them mention
    each entity."""
    union = frozenset().union(*[docs_by_entity.get(e, ()) for e in entities])
    return union, Counter(chain.from_iterable(map(attrgetter("mentions"), map(doc_table.__getitem__, union))))


@dataclass(frozen=True)
class CorpusIndex:
    """Lookup structures for one corpus.

    A posting is the tuple of ids of the documents mentioning one entity,
    ordered by (published_at, id). Date order lets a query cut each posting
    to its range with two bisections instead of testing every document's
    date; the id breaks ties between documents of one day, so the order is
    total and every downstream iteration deterministic. No period is stored:
    queries bucket the documents they read. granularity is the one queries
    must ask for.

    neighbourhood(entities) takes a frozenset of query entities and returns
    their neighbourhood: the union of their postings, and the Counter of
    entities over those documents, the numerator of relatedness's idf factor.
    Both depend on the entity set alone, so queries over the same entities
    share them across date ranges, semantics, top_k and beta. Each index
    keeps them for its NEIGHBOURHOOD_MEMO_SIZE most recently used entity
    sets in its own functools.lru_cache.
    """

    granularity: Granularity
    docs_by_entity: dict[EntityId, tuple[str, ...]]
    doc_table: dict[str, Document]
    neighbourhood: Callable[[frozenset[EntityId]], tuple[frozenset[str], Counter[EntityId]]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        # The cached function holds the postings and the document table, not
        # the index, so an index nothing else references is freed at once,
        # cache and all.
        count = partial(_count_neighbourhood, self.docs_by_entity, self.doc_table)
        object.__setattr__(self, "neighbourhood", lru_cache(maxsize=NEIGHBOURHOOD_MEMO_SIZE)(count))


def build_index(corpus: Corpus, granularity: Granularity) -> CorpusIndex:
    """Build the entity postings and the document table for a corpus.

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
        granularity=granularity,
        docs_by_entity={e: tuple(ids) for e, ids in by_entity.items()},
        doc_table={doc.id: doc for doc in corpus.documents},
    )
