"""Calendar bucketing and the entity inverted index.

Documents are bucketed into day, ISO week, month, or year periods. Each
period has a canonical key string whose lexicographic order matches
chronological order within one granularity:

    day   1990-02-11
    week  1990-W07   (ISO-8601 week numbering, weeks start on Monday)
    month 1990-02
    year  1990
"""

from __future__ import annotations

import calendar
import re
from collections import defaultdict
from dataclasses import dataclass
from datetime import date, timedelta
from enum import Enum
from functools import lru_cache

from .corpus import Corpus, Document, EntityId


class Granularity(Enum):
    DAY = "day"
    WEEK = "week"
    MONTH = "month"
    YEAR = "year"


_WEEK_KEY_RE = re.compile(r"^(\d{4})-W(\d{2})$")
_MONTH_KEY_RE = re.compile(r"^(\d{4})-(\d{2})$")
_YEAR_KEY_RE = re.compile(r"^(\d{4})$")


def _first_day_of_key(granularity: Granularity, key: str) -> date:
    """Parse a period key into the first calendar day it covers.

    Raises ValueError when the key is not canonical for the granularity,
    e.g. a week number the ISO year does not have.
    """
    if granularity is Granularity.DAY:
        return date.fromisoformat(key)
    if granularity is Granularity.WEEK:
        m = _WEEK_KEY_RE.match(key)
        if m is None:
            raise ValueError(f"bad week key: {key!r}")
        return date.fromisocalendar(int(m.group(1)), int(m.group(2)), 1)
    if granularity is Granularity.MONTH:
        m = _MONTH_KEY_RE.match(key)
        if m is None:
            raise ValueError(f"bad month key: {key!r}")
        return date(int(m.group(1)), int(m.group(2)), 1)
    m = _YEAR_KEY_RE.match(key)
    if m is None:
        raise ValueError(f"bad year key: {key!r}")
    return date(int(m.group(1)), 1, 1)


@dataclass(frozen=True)
class PeriodId:
    """One calendar bucket at a fixed granularity.

    Instances are validated on construction; comparison is only defined
    between periods of the same granularity.
    """

    granularity: Granularity
    key: str

    def __post_init__(self) -> None:
        _first_day_of_key(self.granularity, self.key)

    def first_day(self) -> date:
        return _first_day_of_key(self.granularity, self.key)

    def last_day(self) -> date:
        start = self.first_day()
        if self.granularity is Granularity.DAY:
            return start
        if self.granularity is Granularity.WEEK:
            return start + timedelta(days=6)
        if self.granularity is Granularity.MONTH:
            return date(start.year, start.month, calendar.monthrange(start.year, start.month)[1])
        return date(start.year, 12, 31)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, PeriodId):
            return NotImplemented
        if self.granularity is not other.granularity:
            raise ValueError("cannot order periods of different granularities")
        return self.key < other.key

    def __str__(self) -> str:
        return self.key


@lru_cache(maxsize=None)
def period_of(day: date, granularity: Granularity) -> PeriodId:
    """Bucket a calendar day into its period at the given granularity."""
    if granularity is Granularity.DAY:
        key = day.isoformat()
    elif granularity is Granularity.WEEK:
        iso_year, iso_week, _ = day.isocalendar()
        key = f"{iso_year:04d}-W{iso_week:02d}"
    elif granularity is Granularity.MONTH:
        key = f"{day.year:04d}-{day.month:02d}"
    else:
        key = f"{day.year:04d}"
    return PeriodId(granularity=granularity, key=key)


def periods_in_range(start: date, end: date, granularity: Granularity) -> list[PeriodId]:
    """All periods intersecting [start, end], in chronological order.

    Boundary periods only partially covered by the range are included whole.
    Raises ValueError when start is after end.
    """
    if start > end:
        raise ValueError(f"invalid range: {start.isoformat()} is after {end.isoformat()}")
    periods: list[PeriodId] = []
    current = period_of(start, granularity)
    while True:
        periods.append(current)
        tail = current.last_day()
        if tail >= end:
            return periods
        current = period_of(tail + timedelta(days=1), granularity)


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
