"""Document corpus types and line-delimited JSON ingest.

A corpus file carries one JSON object per line:

    {"id": "d1", "date": "1984-05-03",
     "mentions": [{"entity": "ent:a", "count": 2}, {"entity": "ent:b", "count": 1}]}

A catalog file maps entities to category ids, one JSON object per line:

    {"entity": "ent:a", "categories": ["cat:focus"]}

Ingest never aborts on bad input. Broken lines are skipped and tallied by
reason so callers can report exactly what was dropped.

A caller that needs only the documents naming some entities, as a query
does, passes them as mentioning=. Every line is still decoded, checked and
tallied, and its id still takes part in the duplicate rule; an accepted
document that names none of them is counted and not kept.
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
# Tab, every line break str.splitlines knows and the other C0 and C1 controls:
# in a document id they could split one tsv row into forged ones. A lone
# surrogate, which a JSON escape can spell, has no UTF-8 form to print.
_BAD_DOC_ID_CHAR_RE = re.compile(r"[\x00-\x1f\x7f-\x9f\u2028\u2029\ud800-\udfff]")
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


@dataclass(frozen=True, slots=True)
class Document:
    """One dated, entity-annotated document.

    mentions maps entity id to its mention count (>= 1). The map is re-keyed
    in sorted order on construction so iteration is deterministic everywhere.
    Slotted, with no per-instance __dict__, because a corpus holds one per
    accepted line.
    """

    id: str
    published_at: date
    mentions: dict[EntityId, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mentions", dict(sorted(self.mentions.items())))


@dataclass(frozen=True)
class Corpus:
    """Immutable collection of documents.

    entity_universe is derived on first use: the union of all mention keys.
    """

    documents: list[Document]

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
    holds per-reason skip counts under the SKIP_* keys; skipped is their sum.
    """

    accepted: int = 0
    reasons: Counter = field(default_factory=Counter)

    @property
    def skipped(self) -> int:
        return sum(self.reasons.values())


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
                report.reasons[SKIP_MALFORMED] += 1
                continue
        if number == 0:
            line = line.removeprefix("\ufeff")
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except _UNPARSEABLE:
            report.reasons[SKIP_MALFORMED] += 1
            continue
        if isinstance(record, dict):
            yield record
        else:
            report.reasons[SKIP_MALFORMED] += 1


def _mentions_from_record(raw: object, known: dict[EntityId, EntityId]) -> dict[EntityId, int] | None:
    """Build a mention map from the record's mentions array.

    Returns None when the array is malformed, including when an entity id
    repeats: one document carries one count per entity.

    known maps each entity id already validated to the one string that stands
    for it. A hit is keyed by that string; a miss is validated once and, if
    valid, added. So the check runs once per distinct id, and every map shares
    one string per id instead of the new one json.loads makes per mention.
    """
    if not isinstance(raw, list):
        return None
    mentions: dict[EntityId, int] = {}
    for item in raw:
        if not isinstance(item, dict):
            return None
        entity = item.get("entity")
        count = item.get("count")
        # A non-string id may be unhashable (a list or an object), so it is
        # never looked up; the validity check rejects it.
        shared = known.get(entity) if isinstance(entity, str) else None
        if shared is None:
            if not is_valid_entity_id(entity):
                return None
            shared = known[entity] = entity
        entity = shared
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            return None
        if entity in mentions:
            return None
        mentions[entity] = count
    return mentions


def parse_corpus(
    source: LineSource, *, mentioning: frozenset[EntityId] | None = None
) -> tuple[Corpus, IngestReport]:
    """Parse line-delimited document records into a Corpus.

    Blank lines are ignored. A line is skipped and tallied rather than raised:
    "malformed" for unparseable JSON or a bad id/mentions field, "dateless" for a
    missing or unparseable date, "duplicate" for a repeated document id (the
    first record wins). Time-of-day suffixes on dates are truncated.

    With mentioning set, an accepted record that names none of its entities
    is tallied accepted, and its id still shadows later records, but no
    Document is built for it. The report does not depend on mentioning.

    Returns the corpus together with the ingest report.
    """
    report = IngestReport()
    documents: list[Document] = []
    seen: set[str] = set()
    # Corpora repeat dates, so each distinct date string is parsed once and
    # its documents share one date object.
    days: dict[str, date | None] = {}
    known: dict[EntityId, EntityId] = {}
    for record in _records(source, report):
        doc_id = record.get("id")
        if not isinstance(doc_id, str) or not doc_id or _BAD_DOC_ID_CHAR_RE.search(doc_id):
            report.reasons[SKIP_MALFORMED] += 1
            continue
        mentions = _mentions_from_record(record.get("mentions"), known)
        if mentions is None:
            report.reasons[SKIP_MALFORMED] += 1
            continue
        raw_day = record.get("date")
        if not isinstance(raw_day, str):
            day = None
        elif raw_day in days:
            day = days[raw_day]
        else:
            day = days[raw_day] = _parse_day(raw_day)
        if day is None:
            report.reasons[SKIP_DATELESS] += 1
            continue
        if doc_id in seen:
            report.reasons[SKIP_DUPLICATE] += 1
            continue
        seen.add(doc_id)
        report.accepted += 1
        if mentioning is None or not mentioning.isdisjoint(mentions):
            documents.append(Document(id=doc_id, published_at=day, mentions=mentions))
    return Corpus(documents=documents), report


def parse_entity_catalog(source: LineSource) -> tuple[dict[EntityId, set[str]], IngestReport]:
    """Parse line-delimited catalog records into a map from entity id to its
    category set.

    A repeated entity id unions its category sets. A missing categories field
    means an empty set. Malformed lines are skipped and tallied.
    """
    report = IngestReport()
    entries: dict[EntityId, set[str]] = {}
    for record in _records(source, report):
        entity = record.get("entity")
        raw_categories = record.get("categories", [])
        if not is_valid_entity_id(entity) or not isinstance(raw_categories, list):
            report.reasons[SKIP_MALFORMED] += 1
            continue
        if any(not isinstance(c, str) or not c for c in raw_categories):
            report.reasons[SKIP_MALFORMED] += 1
            continue
        entries.setdefault(entity, set()).update(raw_categories)
        report.accepted += 1
    return entries, report


def load_corpus(
    path: str | Path, *, mentioning: frozenset[EntityId] | None = None
) -> tuple[Corpus, IngestReport]:
    """Read a corpus file from disk, as parse_corpus does. I/O errors
    propagate to the caller."""
    with open(path, "rb") as handle:
        return parse_corpus(handle, mentioning=mentioning)


def load_entity_catalog(path: str | Path) -> tuple[dict[EntityId, set[str]], IngestReport]:
    with open(path, "rb") as handle:
        return parse_entity_catalog(handle)
