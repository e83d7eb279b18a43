"""What a query is: calendar periods, the query model, and its parsing.

Documents are bucketed into day, ISO week, month, or year periods. A period
is its key string, whose lexicographic order matches chronological order
within one granularity:

    day   1990-02-11
    week  1990-W07   (ISO-8601 week numbering, weeks start on Monday)
    month 1990-02
    year  1990
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import date
from enum import Enum
from functools import lru_cache
from typing import Mapping

from .corpus import EntityId, is_valid_entity_id


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


class QueryError(ValueError):
    """Raised for queries that cannot be evaluated as stated."""


class Semantics(Enum):
    # ALL requires every query entity in a document; ANY requires at least one.
    ALL = "all"
    ANY = "any"


@dataclass(frozen=True)
class Query:
    """A validated query: entities of interest, match semantics, date range,
    bucketing granularity, and scoring knobs.

    entities is the final set after any category expansion. beta weighs the
    related-entity contribution in the final score; top_k, when set, caps the
    number of results returned.
    """

    entities: frozenset[EntityId]
    semantics: Semantics
    start: date
    end: date
    granularity: Granularity
    beta: float = 0.5
    top_k: int | None = None

    def __post_init__(self) -> None:
        if not self.entities:
            raise QueryError("no entities of interest")
        for entity in self.entities:
            if not is_valid_entity_id(entity):
                raise QueryError(f"invalid entity id: {entity!r}")
        if self.start > self.end:
            raise QueryError(
                f"invalid range: {self.start.isoformat()} is after {self.end.isoformat()}"
            )
        if not isinstance(self.beta, (int, float)) or isinstance(self.beta, bool):
            raise QueryError("beta must be a number")
        try:
            usable = math.isfinite(self.beta) and self.beta >= 0
        except OverflowError:  # an int too large to convert to a float
            raise QueryError("invalid beta: out of float range (must be finite and >= 0)") from None
        if not usable:
            raise QueryError(f"invalid beta: {self.beta!r} (must be finite and >= 0)")
        if self.top_k is not None and (not isinstance(self.top_k, int) or isinstance(self.top_k, bool) or self.top_k < 1):
            raise QueryError(f"invalid top_k: {self.top_k!r} (must be a positive integer)")


QUERY_FIELDS = frozenset(
    {"entities", "categories", "semantics", "from", "to", "granularity", "beta", "top_k"}
)


# Query dates are bare ISO days; unlike corpus dates they carry no time suffix.
_QUERY_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


def _parse_iso_date(raw: object, label: str) -> date:
    if not isinstance(raw, str):
        raise QueryError(f"missing or non-string '{label}' date")
    if _QUERY_DATE_RE.match(raw) is None:
        raise QueryError(f"invalid '{label}' date: {raw!r} (expected YYYY-MM-DD)")
    try:
        return date.fromisoformat(raw)
    except ValueError as exc:
        raise QueryError(f"invalid '{label}' date: {raw!r}") from exc


def _parse_string_list(raw: object, label: str) -> list[str]:
    if raw is None:
        return []
    if not isinstance(raw, list) or any(not isinstance(item, str) for item in raw):
        raise QueryError(f"'{label}' must be a list of strings")
    return raw


def parse_granularity(raw: object) -> Granularity:
    """The granularity named by its value string; QueryError for any other."""
    try:
        return Granularity(raw)
    except ValueError as exc:
        raise QueryError(f"invalid granularity: {raw!r} (use day, week, month or year)") from exc


def parse_query(args: Mapping[str, object], catalog: Mapping[EntityId, set[str]] | None = None) -> Query:
    """Build a Query from a flat field mapping, expanding categories.

    The mapping uses the query-file field names: entities, categories,
    semantics, from, to, granularity, beta, top_k. Explicit entities and
    category expansions are unioned before semantics apply; categories
    without a catalog are a QueryError. Defaults: semantics all, granularity
    month, beta 0.5, no top_k cap.
    """
    unknown = set(args) - QUERY_FIELDS
    if unknown:
        raise QueryError(f"unknown query fields: {', '.join(sorted(unknown))}")
    entities = set(_parse_string_list(args.get("entities"), "entities"))
    categories = _parse_string_list(args.get("categories"), "categories")
    if categories and catalog is None:
        raise QueryError("categories need an entity catalog to expand them")
    for category in categories:
        entities |= {entity for entity, tagged in catalog.items() if category in tagged}
    raw_semantics = args.get("semantics", Semantics.ALL.value)
    try:
        semantics = Semantics(raw_semantics)
    except ValueError as exc:
        raise QueryError(f"invalid semantics: {raw_semantics!r} (use all or any)") from exc
    granularity = parse_granularity(args.get("granularity", Granularity.MONTH.value))
    start = _parse_iso_date(args.get("from"), "from")
    end = _parse_iso_date(args.get("to"), "to")
    beta = args.get("beta", 0.5)
    if isinstance(beta, str):
        try:
            beta = float(beta)
        except ValueError as exc:
            raise QueryError(f"invalid beta: {beta!r}") from exc
    top_k = args.get("top_k")
    if isinstance(top_k, str):
        try:
            top_k = int(top_k)
        except ValueError as exc:
            raise QueryError(f"invalid top_k: {top_k!r}") from exc
    return Query(
        entities=frozenset(entities),
        semantics=semantics,
        start=start,
        end=end,
        granularity=granularity,
        beta=beta,
        top_k=top_k,
    )
