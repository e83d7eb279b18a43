"""Document corpus types and line-delimited JSON ingest.

A corpus file carries one JSON object per line:

    {"id": "d1", "date": "1984-05-03",
     "mentions": [{"entity": "ent:a", "count": 2}, {"entity": "ent:b", "count": 1}]}

A catalog file maps entities to category ids, one JSON object per line:

    {"entity": "ent:a", "categories": ["cat:focus"]}

Ingest never aborts on bad input. Broken lines are skipped and tallied by
reason so callers can report exactly what was dropped.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import date
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

EntityId = str

SKIP_MALFORMED = "malformed"
SKIP_DUPLICATE = "duplicate"
SKIP_DATELESS = "dateless"

# Day precision only; anything after the date is a time-of-day suffix we drop.
_DATE_RE = re.compile(r"^(\d{4}-\d{2}-\d{2})([T ].*)?$")
# re's \s matches exactly the characters str.isspace accepts.
_BAD_ENTITY_CHAR_RE = re.compile(r"[\s\x00-\x1f\x7f]")
# json.loads raises ValueError on bad JSON or too long an integer, RecursionError on deep nesting.
_UNPARSEABLE = (ValueError, RecursionError)

LineSource = Union[IO[bytes], IO[str], Iterable[Union[str, bytes]]]


def is_valid_entity_id(value: object) -> bool:
    """True if value is a usable entity id: a non-empty string with no
    whitespace or control characters."""
    if not isinstance(value, str) or not value:
        return False
    return _BAD_ENTITY_CHAR_RE.search(value) is None


def _parse_day(raw: str) -> date | None:
    m = _DATE_RE.match(raw)
    if m is None:
        return None
    try:
        return date.fromisoformat(m.group(1))
    except ValueError:
        return None


@dataclass(frozen=True)
class Document:
    """One dated, entity-annotated document.

    mentions maps entity id to its mention count (>= 1). The map is re-keyed
    in sorted order on construction so iteration is deterministic everywhere.
    """

    id: str
    published_at: date
    mentions: dict[EntityId, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mentions", dict(sorted(self.mentions.items())))

    def total_mentions(self) -> int:
        return sum(self.mentions.values())


@dataclass
class EntityCatalog:
    """Entity to category-set mapping used for category expansion."""

    entries: dict[EntityId, set[str]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    def categories_of(self, entity: EntityId) -> set[str]:
        return self.entries.get(entity, set())


@dataclass(frozen=True)
class Corpus:
    """Immutable collection of documents plus the catalog they were loaded with.

    entity_universe is derived on first use: the union of all mention keys.
    """

    documents: list[Document]
    catalog: EntityCatalog = field(default_factory=EntityCatalog)

    def __post_init__(self) -> None:
        ids = [d.id for d in self.documents]
        if len(ids) != len(set(ids)):
            raise ValueError("duplicate document ids in corpus")

    @cached_property
    def entity_universe(self) -> frozenset[EntityId]:
        return frozenset(e for d in self.documents for e in d.mentions)

    def __len__(self) -> int:
        return len(self.documents)


@dataclass
class IngestReport:
    """Tally of accepted and skipped lines for one ingest pass.

    accepted + skipped equals the number of non-blank input lines. reasons
    holds per-reason skip counts under the SKIP_* keys.
    """

    accepted: int = 0
    skipped: int = 0
    reasons: Counter = field(default_factory=Counter)

    def note_skip(self, reason: str) -> None:
        self.skipped += 1
        self.reasons[reason] += 1


def _records(source: LineSource, report: IngestReport) -> Iterator[dict]:
    """Yield the JSON object on each non-blank line of source.

    A BOM opening the first line is dropped. A line that is not UTF-8, not
    JSON, or JSON but not an object is skipped and tallied malformed.
    """
    for number, line in enumerate(source):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                report.note_skip(SKIP_MALFORMED)
                continue
        if number == 0:
            line = line.removeprefix("\ufeff")
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except _UNPARSEABLE:
            report.note_skip(SKIP_MALFORMED)
            continue
        if isinstance(record, dict):
            yield record
        else:
            report.note_skip(SKIP_MALFORMED)


def _mentions_from_record(raw: object) -> dict[EntityId, int] | None:
    """Build a mention map from the record's mentions array.

    Returns None when the array is malformed, including when an entity id
    repeats: one document carries one count per entity.
    """
    if not isinstance(raw, list):
        return None
    mentions: dict[EntityId, int] = {}
    for item in raw:
        if not isinstance(item, dict):
            return None
        entity = item.get("entity")
        count = item.get("count")
        if not is_valid_entity_id(entity):
            return None
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            return None
        if entity in mentions:
            return None
        mentions[entity] = count
    return mentions


def parse_corpus(source: LineSource, catalog: EntityCatalog | None = None) -> tuple[Corpus, IngestReport]:
    """Parse line-delimited document records into a Corpus.

    Blank lines are ignored. A line is skipped and tallied rather than raised:
    "malformed" for unparseable JSON or a bad id/mentions field, "dateless" for a
    missing or unparseable date, "duplicate" for a repeated document id (the
    first record wins). Time-of-day suffixes on dates are truncated.

    Returns the corpus together with the ingest report.
    """
    report = IngestReport()
    documents: list[Document] = []
    seen: set[str] = set()
    # Corpora repeat dates, so each distinct date string is parsed once and
    # its documents share one date object.
    days: dict[str, date | None] = {}
    for record in _records(source, report):
        doc_id = record.get("id")
        if not isinstance(doc_id, str) or not doc_id:
            report.note_skip(SKIP_MALFORMED)
            continue
        mentions = _mentions_from_record(record.get("mentions"))
        if mentions is None:
            report.note_skip(SKIP_MALFORMED)
            continue
        raw_day = record.get("date")
        if not isinstance(raw_day, str):
            day = None
        elif raw_day in days:
            day = days[raw_day]
        else:
            day = days[raw_day] = _parse_day(raw_day)
        if day is None:
            report.note_skip(SKIP_DATELESS)
            continue
        if doc_id in seen:
            report.note_skip(SKIP_DUPLICATE)
            continue
        seen.add(doc_id)
        documents.append(Document(id=doc_id, published_at=day, mentions=mentions))
        report.accepted += 1
    corpus = Corpus(documents=documents, catalog=catalog or EntityCatalog())
    return corpus, report


def parse_entity_catalog(source: LineSource) -> tuple[EntityCatalog, IngestReport]:
    """Parse line-delimited catalog records, merging repeated entities.

    A repeated entity id unions its category sets. A missing categories field
    means an empty set. Malformed lines are skipped and tallied.
    """
    report = IngestReport()
    entries: dict[EntityId, set[str]] = {}
    for record in _records(source, report):
        entity = record.get("entity")
        raw_categories = record.get("categories", [])
        if not is_valid_entity_id(entity) or not isinstance(raw_categories, list):
            report.note_skip(SKIP_MALFORMED)
            continue
        if any(not isinstance(c, str) or not c for c in raw_categories):
            report.note_skip(SKIP_MALFORMED)
            continue
        entries.setdefault(entity, set()).update(raw_categories)
        report.accepted += 1
    return EntityCatalog(entries=entries), report


def load_corpus(path: str | Path, catalog: EntityCatalog | None = None) -> tuple[Corpus, IngestReport]:
    """Read a corpus file from disk. I/O errors propagate to the caller."""
    with open(path, "rb") as handle:
        return parse_corpus(handle, catalog=catalog)


def load_entity_catalog(path: str | Path) -> tuple[EntityCatalog, IngestReport]:
    with open(path, "rb") as handle:
        return parse_entity_catalog(handle)
