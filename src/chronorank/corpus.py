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

The CLI's rank needs those documents, and the tallies only to tell an
empty answer from a file with no usable line, so it first reads in full
only the lines that can change which are kept (_load_naming). A line with
no backslash spells each JSON string as its UTF-8 bytes, so unless it shows
a query entity as an "entity" value it is not a kept document. Such a value
is the entity's bytes between two quotes, so a line that holds none of the
quoted query entities ('"' + entity + '"') is not one either: that test
ignores the key, so it may pass extra lines, but it never drops one that
matters. A line that is not read can still take a kept document's id first,
so the lines that show such an id as an "id" value before that document are
read in full too. The documents kept are load_corpus's, in the same order.

A file can also be read in byte-range parts, cut just after a line break,
each part ingested on its own and the parts merged in file order
(load_in_parts, which the CLI's validate uses, and rank when no line it
reads in full is accepted). Only the duplicate rule reaches across lines,
so the merge is exact: a part's first record of an id already accepted by
an earlier part is a duplicate, not an accepted record, and that part's
document for the id is dropped. The other skip reasons are tallied as they
are, and a BOM is stripped only in the part that starts at byte 0.
"""

from __future__ import annotations

import json
import os
import pickle
import re
from bisect import bisect_right
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


# An "entity" or "id" key and its string value, within one line. In a line
# with no backslash, each JSON string's bytes are its UTF-8 value and cannot
# hold a quote, so a record with such a key and value always shows it in this
# form; JSON allows only these four whitespace bytes around the colon, and a
# line break ends the line, so a match never runs from one line into the next.
_ENTITY_VALUE_RE = re.compile(rb'"entity"[ \t\r]*:[ \t\r]*"([^"\n]*)"')
_ID_VALUE_RE = re.compile(rb'"id"[ \t\r]*:[ \t\r]*"([^"\n]*)"')
# A file is read in blocks of about this many bytes, each cut just after a
# line break, so that the scans below run in C over many lines at a time. On
# the bench corpus, blocks of 64 KiB to 1 MiB took the same time, and a CLI
# rank peaked at 19.3 MiB with 256 KiB and at 22.3 MiB with 1 MiB.
_BLOCK = 1 << 18
# Up to this many query entities, candidate lines are found with one
# bytes.find scan of each block per entity and one for backslashes; with
# more, a regex test of each line costs less. On 22 MB of bench corpus each
# scan took about 0.023 s, so 6 entities 0.149 s and 8 entities 0.205 s,
# and the test of every line 0.16 s whatever the number.
_FIND_ENTITIES = 6


def _blocks(handle: IO[bytes], start: int = 0, end: int | None = None) -> Iterator[tuple[int, bytes]]:
    """handle's bytes from start, a line start, up to end, a line start, or
    to the end of the file: each block with its offset, cut just after a
    line break or at the end of the range."""
    handle.seek(start)
    while end is None or start < end:
        block = handle.read(_BLOCK if end is None else min(_BLOCK, end - start))
        if not block:
            return
        if not block.endswith(b"\n"):
            block += handle.readline()
        yield start, block
        start += len(block)


def _line_end(block: bytes, start: int) -> int:
    """Where the line of block that holds position start ends, after its
    line break."""
    end = block.find(b"\n", start)
    return len(block) if end < 0 else end + 1


def _found(handle: IO[bytes], needles: list[bytes]) -> Iterator[tuple[int, int, bytes]]:
    """The start, end and bytes of line 0 and each line of handle that holds
    one of needles, in file order."""
    for offset, block in _blocks(handle):
        starts = {0} if offset == 0 else set()
        for needle in needles:
            at = block.find(needle)
            while at >= 0:
                starts.add(block.rfind(b"\n", 0, at) + 1)
                at = block.find(needle, _line_end(block, at))
        for start in sorted(starts):
            end = _line_end(block, start)
            yield offset + start, offset + end, block[start:end]


def _tested(handle: IO[bytes], wanted: frozenset[bytes]) -> Iterator[tuple[int, int, bytes]]:
    """The start, end and bytes of line 0 and each line of handle that holds
    a backslash or an "entity" value in wanted. Once more than half of the
    lines seen are among them (checked every 1024 lines), the test saves less
    than it costs: it stops there, with handle at the next line.

    It reads the file line by line, not in blocks: it tests every line, and
    on the bench corpus a 20-entity query took 6% longer with its lines cut
    from blocks."""
    read = start = 0
    handle.seek(0)
    for number, line in enumerate(handle):
        end = start + len(line)
        if number == 0 or b"\\" in line or not wanted.isdisjoint(_ENTITY_VALUE_RE.findall(line)):
            read += 1
            yield start, end, line
        if number % 1024 == 1023 and 2 * read > number:
            return
        start = end


def _shadowing(handle: IO[bytes], gaps: list[int], kept_at: dict[bytes, int]) -> Iterator[tuple[int, int]]:
    """The start and end of each line in gaps that shows as an "id" value the
    id of a document kept on a later line. gaps are ranges of whole lines in
    file order, flat: each one's start, then its end. One scan per gap and
    block finds the "id" values; only a gap that shows a kept id is scanned
    line by line."""
    if not gaps:
        return
    index = 0
    for offset, block in _blocks(handle, gaps[0], gaps[-1]):
        top = offset + len(block)
        while index < len(gaps) and gaps[index] < top:
            start, end = gaps[index], gaps[index + 1]
            low, high = max(start, offset) - offset, min(end, top) - offset
            if not kept_at.keys().isdisjoint(_ID_VALUE_RE.findall(block, low, high)):
                while low < high:
                    line_end = _line_end(block, low)
                    ids = _ID_VALUE_RE.findall(block, low, line_end)
                    if any(kept_at.get(doc_id, -1) > offset + low for doc_id in ids):
                        yield offset + low, offset + line_end
                    low = line_end
            if end > top:  # the gap goes on in the next block
                break
            index += 2


def _load_naming(path: str | Path, entities: frozenset[EntityId]) -> Corpus | None:
    """The documents load_corpus(path, mentioning=entities) keeps, in the
    same order; only the lines that can change them are read in full, with
    every check. None if it keeps none and no line it reads is accepted:
    then only a whole read can tell whether the file has a usable line.

    A line is known by its byte offset. A candidate line is line 0, so that
    a BOM is stripped from it alone, or a line that holds a backslash, or
    one that shows a query entity: no other line can be a kept document,
    since with no backslash a kept record spells its entity as the UTF-8
    bytes of a quoted "entity" value. For up to _FIND_ENTITIES entities, a
    line is a candidate if it holds '"' + entity + '"' anywhere, found by
    bytes.find scans of blocks of the file cut just after a line break: a
    superset of the lines with such an "entity" value, so it may read extra
    lines but drops none that matters. For more, the "entity" values of each
    line are tested against the set; once more than half of the lines seen
    are candidates (checked every 1024 lines), the test saves less than it
    costs, and every later line is read.

    Any other line can change the answer only by being accepted with the id
    of a later kept document, which it then shadows: so a second pass looks,
    in the gaps between the lines read, for a line before a kept document's
    with an "id" value equal to its id, and if there is one, the lines read
    and those lines are ingested again, in file order.
    """
    # A lone surrogate has no UTF-8 form, and its surrogatepass bytes can
    # only match a line that is not UTF-8, so reading that line changes nothing.
    wanted = frozenset(entity.encode("utf-8", "surrogatepass") for entity in entities)
    report = IngestReport()
    documents: list[Document] = []
    # The lines read, as runs of adjacent lines in file order: each run's
    # start, then its end. A flat list of ints is one object to the garbage
    # collector, where pairs would be one per run and could set off a full
    # collection.
    read: list[int] = []
    # Each kept document's id, in UTF-8, and the start of its line, or of
    # the untested lines that hold it. An id with a lone surrogate is
    # malformed, so every kept id has a UTF-8 form.
    kept_at: dict[bytes, int] = {}
    with open(path, "rb") as handle:
        if len(wanted) <= _FIND_ENTITIES:
            found = _found(handle, [b"\\", *(b'"' + entity + b'"' for entity in wanted)])
        else:
            found = _tested(handle, wanted)

        def candidates() -> Iterator[bytes]:
            for start, end, line in found:
                if read and read[-1] == start:
                    read[-1] = end
                else:
                    read.extend((start, end))
                kept = len(documents)
                yield line
                # Resumed only once the record on this line, if any, is ingested.
                if len(documents) > kept:
                    kept_at[documents[-1].id.encode("utf-8")] = start
            # Where _tested stopped, every later line is read untested; _found
            # stops at the end of the file. A line not read comes before a
            # document kept there exactly when it comes before where they start.
            start, kept = handle.tell(), len(documents)
            yield from handle
            if handle.tell() > start:
                read.extend((start, handle.tell()))
                kept_at.update((document.id.encode("utf-8"), start) for document in documents[kept:])

        _parse_records(_records(candidates(), report), report, entities, {}, documents)
        if not documents:
            return Corpus(documents=documents) if report.accepted else None
        # The gaps between the runs read, up to the last kept document's line.
        gaps = read[1 : bisect_right(read, max(kept_at.values()))]
        shadowing = list(_shadowing(handle, gaps, kept_at))
        if shadowing:
            report = IngestReport()
            documents = []
            spans = sorted([*zip(read[::2], read[1::2]), *shadowing])
            lines = (line for span in spans for line in _span_lines(handle, *span))
            _parse_records(_records(lines, report), report, entities, {}, documents)
    return Corpus(documents=documents)


def load_entity_catalog(path: str | Path) -> tuple[dict[EntityId, set[str]], IngestReport]:
    with open(path, "rb") as handle:
        return parse_entity_catalog(handle)
