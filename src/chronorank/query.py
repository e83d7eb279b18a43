"""Query model, category expansion, and document matching."""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from functools import cached_property
from typing import Mapping

from .corpus import Document, EntityCatalog, EntityId, is_valid_entity_id
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


@dataclass
class QueryContext:
    """Everything match/score operations need for one query run.

    matched is the set of document ids that satisfy the query. period_scores
    maps the key of each period holding a matched document to that period's
    share of the matched documents; every other period's share is 0.
    entity_scores memoizes relatedness per non-query entity: the first lookup
    that misses fills it, in one pass over the matched documents' mentions,
    for every non-query entity of the matched documents, and sets
    related_counted. query_entity_docs is the corpus-wide union of documents
    mentioning any query entity, with no date filtering. Its entity counts,
    idf's numerators, are kept on the index keyed by the union itself, so a
    later query over the same union reuses them and a context built by hand
    is scored over exactly its own union.

    period_groups buckets the matched documents by period key. It is derived
    from matched on first read, so a context built by hand gets it too.
    """

    query: Query
    index: CorpusIndex
    matched: frozenset[str]
    query_entity_docs: frozenset[str]
    period_scores: dict[str, float] = field(default_factory=dict)
    entity_scores: dict[EntityId, float] = field(default_factory=dict)
    related_counted: bool = field(default=False, init=False)

    @cached_property
    def period_groups(self) -> dict[str, list[Document]]:
        """The matched documents, bucketed by the key of their period."""
        granularity = self.query.granularity
        groups: dict[str, list[Document]] = defaultdict(list)
        for doc in map(self.index.doc_table.__getitem__, self.matched):
            groups[period_of(doc.published_at, granularity)].append(doc)
        return dict(groups)


def expand_category(catalog: EntityCatalog, category: str) -> set[EntityId]:
    """All entities the catalog places in the given category."""
    return {entity for entity, cats in catalog.entries.items() if category in cats}


def match_documents(index: CorpusIndex, query: Query) -> QueryContext:
    """Find the documents satisfying a query and precompute period scores.

    Postings are in date order, so each query entity's posting is cut to the
    exact date range by two bisections; the matched documents are the
    intersection (ALL) or union (ANY) of those slices. The date filter thus
    costs two bisections per posting plus the matched slices, however many
    of the postings' documents lie outside the range. query_entity_docs is
    the union of the whole postings. The matched documents are bucketed by
    period once, into ctx.period_groups, and each period's share is its
    group's size over the matched count. Raises ValueError when the index was
    built at a different granularity than the query asks for.
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
    ctx = QueryContext(
        query=query,
        index=index,
        matched=matched,
        query_entity_docs=frozenset().union(*postings),
    )
    total = len(matched)
    ctx.period_scores = {key: len(docs) / total for key, docs in ctx.period_groups.items()}
    return ctx


_QUERY_FIELDS = frozenset(
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


def parse_query(args: Mapping[str, object], catalog: EntityCatalog | None = None) -> Query:
    """Build a Query from a flat field mapping, expanding categories.

    The mapping uses the query-file field names: entities, categories,
    semantics, from, to, granularity, beta, top_k. Explicit entities and
    category expansions are unioned before semantics apply. Defaults:
    semantics all, granularity month, beta 0.5, no top_k cap.
    """
    unknown = set(args) - _QUERY_FIELDS
    if unknown:
        raise QueryError(f"unknown query fields: {', '.join(sorted(unknown))}")
    entities = set(_parse_string_list(args.get("entities"), "entities"))
    categories = _parse_string_list(args.get("categories"), "categories")
    lookup = catalog or EntityCatalog()
    for category in categories:
        entities |= expand_category(lookup, category)
    raw_semantics = args.get("semantics", Semantics.ALL.value)
    try:
        semantics = Semantics(raw_semantics)
    except ValueError as exc:
        raise QueryError(f"invalid semantics: {raw_semantics!r} (use all or any)") from exc
    raw_granularity = args.get("granularity", Granularity.MONTH.value)
    try:
        granularity = Granularity(raw_granularity)
    except ValueError as exc:
        raise QueryError(
            f"invalid granularity: {raw_granularity!r} (use day, week, month or year)"
        ) from exc
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
