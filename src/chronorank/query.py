"""Query model, category expansion, and document matching."""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from datetime import date
from enum import Enum
from functools import cached_property
from itertools import chain
from operator import attrgetter
from typing import Mapping

from .corpus import Document, EntityId, is_valid_entity_id
from .index import CorpusIndex, Granularity, period_of


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


@dataclass(frozen=True)
class QueryContext:
    """One query's matched documents, and what scoring derives from them.

    matched is the set of document ids that satisfy the query. Every other
    attribute is derived from these three fields on first read and then
    kept, so a context built by hand scores exactly like one from
    match_documents.
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

        Counts, per period group in ascending key order, the matched
        documents mentioning each entity, and takes the query entities'
        neighbourhood from index.neighbourhood. The scores then take the
        float operations of idf and of the ascending per-period sum, in the
        same order, so they equal a per-entity posting scan bit for bit; one
        overall ratio would round differently and could reorder exact ties.
        An entity in no matched document has no entry: its score is 0.0.
        Raises ValueError when no document mentions a query entity.
        """
        union, inside = self.index.neighbourhood(frozenset(self.query.entities))
        if not union:
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
            entity: (1.0 - inside[entity] / len(union)) * rate
            for entity, rate in cooccurrence.items()
            if entity not in entities
        }


def expand_category(catalog: Mapping[EntityId, set[str]], category: str) -> set[EntityId]:
    """All entities the catalog places in the given category."""
    return {entity for entity, cats in catalog.items() if category in cats}


def match_documents(index: CorpusIndex, query: Query) -> QueryContext:
    """Find the documents satisfying a query.

    Postings are in date order, so each query entity's posting is cut to the
    exact date range by two bisections; the matched documents are the
    intersection (ALL) or union (ANY) of those slices. The date filter thus
    costs two bisections per posting plus the matched slices, however many
    of the postings' documents lie outside the range. Raises ValueError when
    the index was built at a different granularity than the query asks for.
    """
    if index.granularity is not query.granularity:
        raise ValueError(
            f"index granularity {index.granularity.value} does not match "
            f"query granularity {query.granularity.value}"
        )
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
    category expansions are unioned before semantics apply. Defaults:
    semantics all, granularity month, beta 0.5, no top_k cap.
    """
    unknown = set(args) - QUERY_FIELDS
    if unknown:
        raise QueryError(f"unknown query fields: {', '.join(sorted(unknown))}")
    entities = set(_parse_string_list(args.get("entities"), "entities"))
    categories = _parse_string_list(args.get("categories"), "categories")
    for category in categories:
        entities |= expand_category(catalog or {}, category)
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
