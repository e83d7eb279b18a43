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

A file can also be read in byte-range parts, cut just after a line break,
each part ingested on its own and the parts merged in file order
(load_in_parts, which the CLI's rank and validate use). Only the duplicate
rule reaches across lines, so the merge is exact: a part's first record of
an id already accepted by an earlier part is a duplicate, not an accepted
record, and that part's document for the id is dropped. The other skip
reasons are tallied as they are, and a BOM is stripped only in the part that
starts at byte 0.
"""

from __future__ import annotations

import json
import os
import pickle
import re
from collections import Counter
from contextlib import ExitStack
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


def _records(source: LineSource, report: IngestReport, *, at_start: bool = True) -> Iterator[dict]:
    """Yield the JSON object on each non-blank line of source.

    A BOM opening the first line is dropped when source starts the file
    (at_start). A line that is not UTF-8, not JSON, or JSON but not an
    object is skipped and tallied malformed.
    """
    for number, line in enumerate(source):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError:
                report.reasons[SKIP_MALFORMED] += 1
                continue
        if number == 0 and at_start:
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


def _parse_records(
    records: Iterable[dict],
    report: IngestReport,
    mentioning: frozenset[EntityId] | None,
    known: dict[EntityId, EntityId],
    documents: list[Document],
) -> set[str]:
    """Ingest one run of records: append the documents to keep to
    documents, in order, tally into report, and return the set of ids
    accepted."""
    seen: set[str] = set()
    # Corpora repeat dates, so each distinct date string is parsed once and
    # its documents share one date object.
    days: dict[str, date | None] = {}
    for record in records:
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
    return seen


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
    _parse_records(_records(source, report), report, mentioning, {}, documents)
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


# One part's result: its documents to keep, the ids it accepted, its tallies.
_Part = tuple[list[Document], set[str], IngestReport]


def _span_lines(handle: IO[bytes], start: int, end: int) -> Iterator[bytes]:
    """The lines of handle from byte start, a line start, up to byte end."""
    handle.seek(start)
    if start < end:
        for line in handle:
            yield line
            start += len(line)
            if start >= end:
                return


def _ingest_span(
    handle: IO[bytes], start: int, end: int, mentioning: frozenset[EntityId] | None, known: dict[EntityId, EntityId]
) -> _Part:
    """Ingest the lines between byte offsets start and end, each just after a
    line break or at an end of the file."""
    report = IngestReport()
    documents: list[Document] = []
    records = _records(_span_lines(handle, start, end), report, at_start=start == 0)
    ids = _parse_records(records, report, mentioning, known, documents)
    return documents, ids, report


def _while_sparse(records: Iterator[dict], report: IngestReport, documents: list[Document]) -> Iterator[dict]:
    """records, cut short once the documents kept pass half of the records
    accepted: checked every 1024 records, so that a part that keeps most of
    what it reads stops early."""
    for number, record in enumerate(records, 1):
        if number % 1024 == 0 and 2 * len(documents) > report.accepted:
            return
        yield record


def _merge(parts: Iterable[_Part]) -> tuple[Corpus, IngestReport]:
    """Merge the parts of one file, in file order, into what parse_corpus
    gives for the whole file."""
    report = IngestReport()
    documents: list[Document] = []
    # Each part's own id set, never their union: a union would be one more
    # set as large as all of them.
    earlier: list[set[str]] = []
    for part_documents, ids, part_report in parts:
        # An id an earlier part accepted makes this part's first record of it
        # a duplicate; the part's later records of it are duplicates already.
        shadowed = set().union(*(ids & other for other in earlier))
        report.accepted += part_report.accepted - len(shadowed)
        report.reasons.update(part_report.reasons)
        if shadowed:
            report.reasons[SKIP_DUPLICATE] += len(shadowed)
            part_documents = [d for d in part_documents if d.id not in shadowed]
        documents += part_documents
        earlier.append(ids)
    return Corpus(documents=documents), report


def _spans(handle: IO[bytes], parts: int) -> list[tuple[int, int]]:
    """Cut the file into at most parts byte ranges of about equal size, each
    cut just after a line break."""
    size = os.fstat(handle.fileno()).st_size
    cuts = set()
    for number in range(1, parts):
        handle.seek(max(size * number // parts - 1, 0))
        handle.readline()
        cuts.add(handle.tell())
    bounds = [0, *sorted(cut for cut in cuts if 0 < cut < size), size]
    return list(zip(bounds, bounds[1:]))


def _fork_part(
    handle: IO[bytes], span: tuple[int, int], mentioning: frozenset[EntityId] | None
) -> tuple[int, IO[bytes]] | None:
    """Ingest span in a child process. Return the child's pid and the pipe
    its pickled part comes through, empty if the part is the parent's to
    ingest, or None if no child could be started."""
    try:
        read_fd, write_fd = os.pipe()
    except OSError:  # no file descriptor left, say
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        # The child never returns into the caller's code: whatever happens,
        # it exits here, and an exit other than 0 makes the parent redo the part.
        status = 1
        try:
            os.close(read_fd)
            report = IngestReport()
            documents: list[Document] = []
            records = _records(_span_lines(handle, *span), report, at_start=False)
            ids = _parse_records(_while_sparse(records, report, documents), report, mentioning, {}, documents)
            with open(write_fd, "wb") as pipe:
                # Sending a document back and rebuilding it costs nearly as
                # much as parsing its line, so a part that keeps more than
                # half of what it accepts sends nothing: the parent ingests it.
                if 2 * len(documents) <= report.accepted:
                    rows = [(d.id, d.published_at, d.mentions) for d in documents]
                    pickle.dump((rows, ids, report), pipe, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _receive(pid: int, pipe: IO[bytes]) -> bytes:
    """Read a child's payload to EOF and reap the child; b"" unless it
    exited 0."""
    with pipe:
        payload = pipe.read()
    return payload if os.waitpid(pid, 0)[1] == 0 else b""


def _unpickle_part(payload: bytes, known: dict[EntityId, EntityId]) -> _Part | None:
    """Rebuild a child's part, keying its mention maps through known so that
    every document shares one string per entity id. None if the payload is
    empty or does not decode."""
    try:
        rows, ids, report = pickle.loads(payload)
    except Exception:  # a payload cut short can fail in any of several ways
        return None
    documents = [
        Document(id=doc_id, published_at=day, mentions={known.setdefault(e, e): n for e, n in mentions.items()})
        for doc_id, day, mentions in rows
    ]
    return documents, ids, report


def load_in_parts(
    path: str | Path, mentioning: frozenset[EntityId] | None, parts: int
) -> tuple[Corpus, IngestReport]:
    """Read a corpus file as load_corpus does, in up to parts byte ranges
    ingested in parallel: parts - 1 forked children and this process.

    The result equals load_corpus's. A part whose child cannot be started,
    exits other than 0 or sends a payload that does not decode is ingested
    here instead, as is a part that keeps more than half of the records it
    accepts: with mentioning=None every part does, so this gains only when
    mentioning keeps few documents. Every child is reaped before this
    returns or raises. With parts above 1 it needs os.fork: call it so only
    from a process with no other thread.
    """
    with ExitStack() as stack:
        # One handle per part, opened before any fork: every part reads the
        # same file, and no two parts share a file offset.
        handles = [stack.enter_context(open(path, "rb")) for _ in range(parts)]
        spans = _spans(handles[0], parts)
        children: list[tuple[int, IO[bytes]] | None] = []
        try:
            for handle, span in zip(handles[1:], spans[1:]):
                children.append(_fork_part(handle, span, mentioning))
            known: dict[EntityId, EntityId] = {}
            results = [_ingest_span(handles[0], *spans[0], mentioning, known)]
            for number, (handle, span) in enumerate(zip(handles[1:], spans[1:])):
                child, part = children[number], None
                if child is not None:
                    payload = _receive(*child)
                    children[number] = None  # reaped
                    part = _unpickle_part(payload, known)
                results.append(part if part is not None else _ingest_span(handle, *span, mentioning, known))
        finally:
            # Closing the pipes first lets a child still writing fail and
            # exit, so no wait below can hang.
            unreaped = [child for child in children if child is not None]
            for _, pipe in unreaped:
                pipe.close()
            for pid, _ in unreaped:
                os.waitpid(pid, 0)
        return _merge(results)


def load_entity_catalog(path: str | Path) -> tuple[dict[EntityId, set[str]], IngestReport]:
    with open(path, "rb") as handle:
        return parse_entity_catalog(handle)
