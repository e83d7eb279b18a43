"""Shared builders for tests: tiny corpora by hand, random corpora by seed."""

from __future__ import annotations

import os
import random
import unicodedata
from collections import Counter
from datetime import date, timedelta
from pathlib import Path

import chronorank
from chronorank import Granularity, Query, QueryContext, Semantics
from chronorank.corpus import (
    SKIP_DATELESS,
    SKIP_DUPLICATE,
    SKIP_MALFORMED,
    Corpus,
    Document,
    IngestReport,
    _parse_day,
    _records,
    is_valid_entity_id,
)

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text()


def child_env(**overrides: str) -> dict[str, str]:
    """Environment for a child Python that imports the same chronorank as this
    process; pytest's pythonpath setting does not reach subprocesses."""
    package_root = str(Path(chronorank.__file__).parents[1])
    search_path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=search_path, **overrides)


# Most periods a generated query may span, per granularity, expressed as the
# widest start-to-end distance in days.
RANGE_SPAN_DAYS = {
    Granularity.DAY: 23,
    Granularity.WEEK: 7 * 23,
    Granularity.MONTH: 690,
    Granularity.YEAR: 8300,
}


def idf(ctx: QueryContext, entity: str) -> float:
    """Reference idf, scanned posting by posting: 1 minus the share of the
    query-entity union's documents that mention the entity. The engine takes
    the same count from its neighbourhood memo instead."""
    union = frozenset().union(*(ctx.index.docs_by_entity.get(e, ()) for e in ctx.query.entities))
    if not union:
        raise ValueError("no documents mention any query entity")
    inside = sum(1 for doc_id in ctx.index.docs_by_entity.get(entity, ()) if doc_id in union)
    return 1.0 - inside / len(union)


def reference_parse_corpus(lines) -> tuple[list[Document], Counter]:
    """Plain reference for parse_corpus's record checks: every mention's id
    goes through is_valid_entity_id, and nothing is shared between records.
    The line layer (_records) and the date parser are the engine's own."""
    report = IngestReport()
    documents: list[Document] = []
    for record in _records(lines, report):
        doc_id, raw, raw_day = record.get("id"), record.get("mentions"), record.get("date")
        if not _reference_doc_id_ok(doc_id) or not _reference_mentions_ok(raw):
            report.reasons[SKIP_MALFORMED] += 1
        elif not isinstance(raw_day, str) or _parse_day(raw_day) is None:
            report.reasons[SKIP_DATELESS] += 1
        elif any(doc.id == doc_id for doc in documents):
            report.reasons[SKIP_DUPLICATE] += 1
        else:
            mentions = {item["entity"]: item["count"] for item in raw}
            documents.append(Document(id=doc_id, published_at=_parse_day(raw_day), mentions=mentions))
    return documents, report.reasons


def _reference_doc_id_ok(doc_id: object) -> bool:
    """A non-empty string with no control character (category Cc, which
    holds tab and every C0 and C1 control) and no line or paragraph
    separator (Zl, Zp)."""
    return (
        isinstance(doc_id, str)
        and bool(doc_id)
        and all(unicodedata.category(ch) not in ("Cc", "Zl", "Zp") for ch in doc_id)
    )


def _reference_mentions_ok(raw: object) -> bool:
    if not isinstance(raw, list) or not all(isinstance(item, dict) for item in raw):
        return False
    entities = [item.get("entity") for item in raw]
    return (
        all(is_valid_entity_id(entity) for entity in entities)
        and len(set(entities)) == len(entities)
        # JSON gives plain ints; a bool is an int subclass and is rejected.
        and all(type(item.get("count")) is int and item["count"] >= 1 for item in raw)
    )


def make_doc(doc_id: str, day: str, mentions: dict[str, int]) -> Document:
    return Document(id=doc_id, published_at=date.fromisoformat(day), mentions=mentions)


def make_corpus(*docs: Document) -> Corpus:
    return Corpus(documents=list(docs))


def entity_pool(size: int) -> list[str]:
    return [f"e{i:02d}" for i in range(size)]


def random_corpus(
    rng: random.Random,
    doc_count: int,
    pool: list[str],
    window_start: date,
    window_end: date,
    max_mentions: int = 6,
) -> Corpus:
    """Corpus of random documents dated inside the window.

    Some documents get an empty mention map on purpose; ingest accepts those
    and they must never match a query.
    """
    span = (window_end - window_start).days
    docs = []
    for i in range(doc_count):
        width = rng.randint(0, min(max_mentions, len(pool)))
        entities = rng.sample(pool, width)
        mentions = {e: rng.randint(1, 9) for e in entities}
        day = window_start + timedelta(days=rng.randint(0, span))
        docs.append(Document(id=f"doc{i:05d}", published_at=day, mentions=mentions))
    return Corpus(documents=docs)


def random_case(
    rng: random.Random,
    granularity: Granularity,
    beta: float,
    doc_count: int,
    entity_count: int,
) -> tuple[Corpus, Query, Query]:
    """One random corpus plus matching ALL and ANY queries.

    The corpus window is padded beyond the query range so date filtering has
    something to drop. Query entities may include ids no document mentions.
    """
    pool = entity_pool(entity_count)
    range_start = date(1987, 1, 1) + timedelta(days=rng.randint(0, 2400))
    range_end = range_start + timedelta(days=rng.randint(0, RANGE_SPAN_DAYS[granularity]))
    pad = timedelta(days=max(3, (range_end - range_start).days // 3))
    corpus = random_corpus(rng, doc_count, pool, range_start - pad, range_end + pad)
    interest = frozenset(rng.sample(pool, rng.randint(1, min(4, entity_count))))
    queries = tuple(
        Query(
            entities=interest,
            semantics=semantics,
            start=range_start,
            end=range_end,
            granularity=granularity,
            beta=beta,
        )
        for semantics in (Semantics.ALL, Semantics.ANY)
    )
    return corpus, queries[0], queries[1]
