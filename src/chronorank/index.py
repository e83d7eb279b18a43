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

from collections import defaultdict
from dataclasses import dataclass
from datetime import date
from enum import Enum
from functools import lru_cache

from .corpus import Corpus, Document, EntityId


class Granularity(Enum):
    DAY = "day"
    WEEK = "week"
    MONTH = "month"
    YEAR = "year"


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


@dataclass(frozen=True)
class CorpusIndex:
    """Read-only lookup structures for one corpus.

    Postings are tuples of document ids in sorted order, which keeps every
    downstream iteration deterministic. No period is stored: queries bucket
    the documents they read. granularity is the one queries must ask for.
    """

    granularity: Granularity
    docs_by_entity: dict[EntityId, tuple[str, ...]]
    doc_table: dict[str, Document]


def build_index(corpus: Corpus, granularity: Granularity) -> CorpusIndex:
    """Build the entity postings and the document table for a corpus.

    Documents with no mentions appear in doc_table but in no entity posting.
    """
    by_entity: dict[EntityId, list[str]] = defaultdict(list)
    for doc in corpus.documents:
        for entity in doc.mentions:
            by_entity[entity].append(doc.id)
    return CorpusIndex(
        granularity=granularity,
        docs_by_entity={e: tuple(sorted(ids)) for e, ids in by_entity.items()},
        doc_table={doc.id: doc for doc in corpus.documents},
    )
