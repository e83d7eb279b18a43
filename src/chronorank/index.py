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
from functools import lru_cache
from itertools import chain
from operator import attrgetter

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


# Most query-entity neighbourhoods one index keeps counts for; the least
# recently used is evicted first.
NEIGHBOURHOOD_MEMO_SIZE = 64


@dataclass(frozen=True)
class CorpusIndex:
    """Lookup structures for one corpus, read-only apart from one cache.

    A posting is the tuple of ids of the documents mentioning one entity,
    ordered by (published_at, id). Date order lets a query cut each posting
    to its range with two bisections instead of testing every document's
    date; the id breaks ties between documents of one day, so the order is
    total and every downstream iteration deterministic. No period is stored:
    queries bucket the documents they read. granularity is the one queries
    must ask for.

    neighbourhood_counts is that cache, kept by neighbourhood() and not part
    of the index's value: it maps a query-entity union (a frozenset of
    document ids) to the Counter of entities over those documents, the
    numerator of relatedness's idf factor. The count depends on the union
    alone, so queries that share their entities share it across date ranges,
    semantics, top_k and beta. Threads that rank on one index at the same
    time must hold a lock around rank, since each call may update the cache.
    """

    granularity: Granularity
    docs_by_entity: dict[EntityId, tuple[str, ...]]
    doc_table: dict[str, Document]
    neighbourhood_counts: dict[frozenset[str], Counter[EntityId]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def neighbourhood(self, union: frozenset[str]) -> Counter[EntityId]:
        """How many documents of union mention each entity.

        A cached union becomes the most recently used. Any other is counted
        from its documents' mentions and cached, evicting the least recently
        used union once NEIGHBOURHOOD_MEMO_SIZE are held.
        """
        memo = self.neighbourhood_counts
        counts = memo.pop(union, None)
        if counts is None:
            counts = Counter(chain.from_iterable(map(attrgetter("mentions"), map(self.doc_table.__getitem__, union))))
            if len(memo) >= NEIGHBOURHOOD_MEMO_SIZE:
                del memo[next(iter(memo))]
        memo[union] = counts
        return counts


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
