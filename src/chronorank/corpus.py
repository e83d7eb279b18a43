"""Document corpus types and line-delimited JSON ingest.

A corpus file carries one JSON object per line:

    {"id": "d1", "date": "1984-05-03",
     "mentions": [{"entity": "ent:a", "count": 2}, {"entity": "ent:b", "count": 1}]}

A catalog file maps entities to category ids, one JSON object per line:

    {"entity": "ent:a", "categories": ["cat:focus"]}

Ingest never aborts on bad input. Broken lines are skipped and tallied by
reason so callers can report exactly what was dropped.

The CLI's rank needs only the documents that name a query entity, and the
tallies only to tell an empty answer from a file with no usable line, so it
reads in full only the lines that can change which are kept (_load_naming).
A line with no backslash spells each JSON string as its UTF-8 bytes, so
unless it shows a query entity as an "entity" value it is not a kept
document. One scanner finds the other lines, block by block (_found): for a
few query entities, the lines that hold one between two quotes, a test that
ignores the key, so it may pass extra lines, but never drops one that
matters; for more, the lines whose "entity" values name one. Once these
lines hold more than half of the bytes seen, the scan stops and every later
line is read. A line that is not read can still take a kept document's id
first, so the lines that show such an id as an "id" value before that
document are read in full too. The documents kept are those of load_corpus
that name a query entity, in the same order. If it keeps none and no line it
read is accepted, it reads on from the start of the file up to the first
accepted record, if there is one. A stream that cannot seek, such as a pipe,
is read once, in full.

For the tallies alone, as the CLI's validate needs them, load_in_parts
reads a file in byte-range parts, one per CPU and each of at least
_PART_FLOOR bytes, cut just after a line break: the first part is ingested
in this process, each other one in a forked child, and the parts merge in
file order. Only the duplicate rule reaches across lines, so the merge is
exact: a part's first record of an id already accepted by an earlier part
is a duplicate, not an accepted record. The other skip reasons are tallied
as they are, and a BOM is stripped only in the part that starts at byte 0.
A file too small for two parts, or a stream, is read whole in this process.
"""

from __future__ import annotations

import gc
import io
import json
import os
import pickle
import re
import threading
from bisect import bisect_right
from collections import Counter, deque
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from datetime import date
from functools import cached_property
from itertools import starmap
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
# Ingest parses a line by a direct call of the scanner json.loads calls, on
# the line already stripped: json.loads's whitespace skips would find nothing
# there, and its one other check, a leading U+FEFF, makes the scan fail too.
# The line is one JSON value when the scan ends at its end. The scanner raises
# StopIteration when no value starts the line, and as json.loads otherwise.
_scan = json.JSONDecoder().scan_once
_UNSCANNABLE = (StopIteration, *_UNPARSEABLE)

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


# The slot descriptors' own setters, which the frozen __setattr__ does not guard.
_set_id = Document.id.__set__
_set_published_at = Document.published_at.__set__
_set_mentions = Document.mentions.__set__


def _document(doc_id: str, day: date, mentions: dict[EntityId, int]) -> Document:
    """The Document Document(id=doc_id, published_at=day, mentions=mentions)
    gives, for mentions already in sorted order: its slots are filled
    directly, so the map is not copied and sorted again."""
    doc = object.__new__(Document)
    _set_id(doc, doc_id)
    _set_published_at(doc, day)
    _set_mentions(doc, mentions)
    return doc


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Hold the cyclic garbage collector for the block, and give it back
    the state it had. Ingest keeps two containers per document, the
    Document and its mention map, and drops several more per line; none
    forms a cycle, so reference counting frees what it drops, while each
    pass of the collector's older generations would walk every object kept
    so far again."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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
            record, end = _scan(line, 0)
        except _UNSCANNABLE:
            report.reasons[SKIP_MALFORMED] += 1
            continue
        if end == len(line) and isinstance(record, dict):
            yield record
        else:
            report.reasons[SKIP_MALFORMED] += 1


def _mentions_from_record(raw: object, known: dict[EntityId, EntityId]) -> dict[EntityId, int] | None:
    """Build a mention map from the record's mentions array, in sorted
    entity order, as Document keeps it.

    Returns None when the array is malformed, including when an entity id
    repeats: one document carries one count per entity.

    known maps each entity id already validated to the one string that stands
    for it. A hit is keyed by that string; a miss is validated once and, if
    valid, added. So the check runs once per distinct id, and every map shares
    one string per id instead of the new one the JSON scanner makes per mention.

    The (entity, count) pairs are collected and the map is built once, from
    them sorted; a repeated entity leaves the map shorter than the pairs.
    """
    if not isinstance(raw, list):
        return None
    pairs: list[tuple[EntityId, int]] = []
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
        # A JSON count is an int, a bool, a float or no number at all, and a
        # bool is an int subclass: the type test rejects it with the rest.
        if type(count) is not int or count < 1:
            return None
        pairs.append((shared, count))
    pairs.sort()
    mentions = dict(pairs)
    return mentions if len(mentions) == len(pairs) else None


def _accepted(
    source: LineSource, report: IngestReport, seen: set[str], *, at_start: bool = True
) -> Iterator[tuple[str, date, dict[EntityId, int]]]:
    """Ingest source's lines as _records reads them, tallying each into
    report; for each accepted record, one whose id is not yet in seen, add
    its id to seen and yield its id, day and mention map."""
    known: dict[EntityId, EntityId] = {}
    # Corpora repeat dates, so each distinct date string is parsed once and
    # its documents share one date object.
    days: dict[str, date | None] = {}
    for record in _records(source, report, at_start=at_start):
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
        yield doc_id, day, mentions


def parse_corpus(source: LineSource) -> tuple[Corpus, IngestReport]:
    """Parse line-delimited document records into a Corpus.

    Blank lines are ignored. A line is skipped and tallied rather than raised:
    "malformed" for unparseable JSON or a bad id/mentions field, "dateless" for a
    missing or unparseable date, "duplicate" for a repeated document id (the
    first record wins). Time-of-day suffixes on dates are truncated.

    Returns the corpus together with the ingest report.
    """
    report = IngestReport()
    with _gc_paused():
        documents = list(starmap(_document, _accepted(source, report, set())))
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


def load_corpus(path: str | Path) -> tuple[Corpus, IngestReport]:
    """Read a corpus file from disk, as parse_corpus does. I/O errors
    propagate to the caller."""
    with open(path, "rb") as handle:
        return parse_corpus(handle)


# One part's result: the ids it accepted and its tallies.
_Part = tuple[set[str], IngestReport]


def _span_lines(handle: IO[bytes], start: int, end: int) -> Iterator[bytes]:
    """The lines of handle from byte start, a line start, up to byte end."""
    for _, block in _blocks(handle, start, end):
        yield from io.BytesIO(block)


def _ingest_span(handle: IO[bytes], start: int, end: int) -> _Part:
    """Ingest the lines between byte offsets start and end, each just after a
    line break or at an end of the file, and keep no document."""
    report, seen = IngestReport(), set()
    deque(_accepted(_span_lines(handle, start, end), report, seen, at_start=start == 0), maxlen=0)
    return seen, report


def _merge(parts: Iterable[_Part]) -> IngestReport:
    """Merge the parts of one file, in file order, into the report
    parse_corpus gives for the whole file."""
    report = IngestReport()
    # Each part's own id set, never their union: a union would be one more
    # set as large as all of them.
    earlier: list[set[str]] = []
    for ids, part_report in parts:
        # An id an earlier part accepted makes this part's first record of it
        # a duplicate; the part's later records of it are duplicates already.
        shadowed = set().union(*(ids & other for other in earlier))
        report.accepted += part_report.accepted - len(shadowed)
        report.reasons.update(part_report.reasons)
        if shadowed:
            report.reasons[SKIP_DUPLICATE] += len(shadowed)
        earlier.append(ids)
    return report


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


def _fork_part(handle: IO[bytes], span: tuple[int, int]) -> tuple[int, IO[bytes]] | None:
    """Ingest span in a child process. Return the child's pid and the pipe
    its pickled part comes through, or None if no child could be started."""
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
            part = _ingest_span(handle, *span)
            with open(write_fd, "wb") as pipe:
                pickle.dump(part, pipe, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _receive(pid: int, pipe: IO[bytes]) -> _Part | None:
    """Read a child's part to EOF and reap the child, whatever the read
    raises. None unless the child exited 0 and its part decodes."""
    try:
        with pipe:
            payload = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    if status != 0:
        return None
    try:
        return pickle.loads(payload)
    except Exception:  # a payload cut short can fail in any of several ways
        return None


# A part smaller than this saves less than its process costs to start.
_PART_FLOOR = 4 << 20


def _parts(handle: IO[bytes]) -> int:
    """How many parts load_in_parts ingests handle's file in: one per CPU
    this process may use, each of at least _PART_FLOOR bytes. One where
    os.fork is missing, or unsafe because another thread is running, and
    for a stream, whose size reads 0."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, os.fstat(handle.fileno()).st_size // _PART_FLOOR))


def load_in_parts(path: str | Path) -> IngestReport:
    """The report load_corpus gives for a corpus file, from byte ranges
    ingested in parallel, as many as _parts picks: one in this process and
    each other one in a forked child. No document is kept. With one part,
    the file is read whole in this process, with no seek.

    A part whose child cannot be started, exits other than 0 or sends a
    part that does not decode is ingested here instead. Every child is
    reaped before this returns or raises.
    """
    with ExitStack() as stack:
        first = stack.enter_context(open(path, "rb"))
        parts = _parts(first)
        if parts == 1:
            report = IngestReport()
            deque(_accepted(first, report, set()), maxlen=0)
            return report
        # One handle per part, opened before any fork: every part reads the
        # same file, and no two parts share a file offset.
        handles = [first, *(stack.enter_context(open(path, "rb")) for _ in range(parts - 1))]
        spans = _spans(handles[0], parts)
        children: list[tuple[int, IO[bytes]] | None] = []
        try:
            for handle, span in zip(handles[1:], spans[1:]):
                children.append(_fork_part(handle, span))
            results = [_ingest_span(handles[0], *spans[0])]
            for number, (handle, span) in enumerate(zip(handles[1:], spans[1:])):
                child, children[number] = children[number], None  # reaped by _receive
                part = None if child is None else _receive(*child)
                results.append(part if part is not None else _ingest_span(handle, *span))
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
# more, one regex scan of each block for its "entity" values costs less. On
# 22 MB of bench corpus (seeds 1 and 5, best of 5) each entity's scan took
# about 0.022 s, so 7 entities 0.15-0.17 s and 8 entities 0.17-0.19 s, and
# the regex scan 0.165-0.20 s whatever the number.
_FIND_ENTITIES = 7
# A candidate scan does not stop before it has seen this many bytes, so that
# a file whose first lines happen to be candidates is still scanned.
_STOP_FLOOR = 1 << 16


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


def _found(handle: IO[bytes], wanted: frozenset[bytes]) -> Iterator[tuple[int, int, bytes]]:
    """The start, end and bytes of line 0 and each line of handle that holds
    a backslash or shows one of wanted, in file order. For up to
    _FIND_ENTITIES of them, a line shows one if it holds it between quotes
    anywhere; for more, if it holds it as an "entity" value. Past
    _STOP_FLOOR bytes seen, once more than half of them are in these lines,
    the scan saves less than it costs: it stops at the start of the next
    block, with handle there."""
    needles = [b"\\"]
    if len(wanted) <= _FIND_ENTITIES:
        needles += [b'"' + entity + b'"' for entity in wanted]
    seen = read = 0
    for offset, block in _blocks(handle):
        if seen > _STOP_FLOOR and 2 * read > seen:
            handle.seek(offset)
            return
        starts = {0} if offset == 0 else set()
        for needle in needles:
            at = block.find(needle)
            while at >= 0:
                starts.add(block.rfind(b"\n", 0, at) + 1)
                at = block.find(needle, _line_end(block, at))
        if len(wanted) > _FIND_ENTITIES:
            ats = [match.start() for match in _ENTITY_VALUE_RE.finditer(block) if match[1] in wanted]
            starts.update(block.rfind(b"\n", 0, at) + 1 for at in ats)
        seen += len(block)
        for start in sorted(starts):
            end = _line_end(block, start)
            read += end - start
            yield offset + start, offset + end, block[start:end]


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


def _load_naming(path: str | Path, entities: frozenset[EntityId]) -> tuple[Corpus, bool]:
    """The documents of load_corpus(path) that name one of entities, in the
    same order, and whether load_corpus accepts a line at all; only the
    lines that can change the documents are read in full, with every check.
    If it keeps none and no line it reads is accepted, it reads the file
    again from the start, in this process, up to the first accepted record:
    only that tells an empty answer from a file with no usable line. A
    stream that cannot seek is read once, in full.

    A line is known by its byte offset. A candidate line is line 0, so that
    a BOM is stripped from it alone, or a line that holds a backslash, or
    one that shows a query entity: no other line can be a kept document,
    since with no backslash a kept record spells its entity as the UTF-8
    bytes of a quoted "entity" value. _found scans blocks of the file cut
    just after a line break. For up to _FIND_ENTITIES entities, a line is a
    candidate if it holds '"' + entity + '"' anywhere, found by bytes.find: a
    superset of the lines with such an "entity" value, so it may read extra
    lines but drops none that matters. For more, one regex scan of each
    block finds the "entity" values in the set. Once the candidates hold
    more than half of the bytes seen, past _STOP_FLOOR of them, the scan
    saves less than it costs, and every line from the next block on is read.

    Any other line can change the answer only by being accepted with the id
    of a later kept document, which it then shadows: so a second pass looks,
    in the gaps between the lines read, for a line before a kept document's
    with an "id" value equal to its id, and if there is one, the lines read
    and those lines are ingested again, in file order.
    """
    # A lone surrogate has no UTF-8 form, and its surrogatepass bytes can
    # only match a line that is not UTF-8, so reading that line changes nothing.
    wanted = frozenset(entity.encode("utf-8", "surrogatepass") for entity in entities)
    documents: list[Document] = []

    # Each kept document is appended before the next line is drawn, as
    # candidates() below needs. True if a line is accepted.
    def keep(lines: Iterable[bytes]) -> bool:
        report = IngestReport()
        for doc_id, day, mentions in _accepted(lines, report, set()):
            if not entities.isdisjoint(mentions):
                documents.append(_document(doc_id, day, mentions))
        return report.accepted > 0

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
        if not handle.seekable():  # a pipe, say: no line can be read twice
            return Corpus(documents=documents), keep(handle)
        found = _found(handle, wanted)

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
            # Where _found stopped, if before the end of the file, every later
            # line is read untested. A line not read comes before a document
            # kept there exactly when it comes before where they start.
            start, kept = handle.tell(), len(documents)
            yield from handle
            if handle.tell() > start:
                read.extend((start, handle.tell()))
                kept_at.update((document.id.encode("utf-8"), start) for document in documents[kept:])

        usable = keep(candidates())
        if not documents:
            if not usable:
                # No line is decoded after the first accepted record.
                handle.seek(0)
                usable = next(_accepted(handle, IngestReport(), set()), None) is not None
            return Corpus(documents=documents), usable
        # The gaps between the runs read, up to the last kept document's line.
        gaps = read[1 : bisect_right(read, max(kept_at.values()))]
        shadowing = list(_shadowing(handle, gaps, kept_at))
        if shadowing:
            documents.clear()
            spans = sorted([*zip(read[::2], read[1::2]), *shadowing])
            keep(line for span in spans for line in _span_lines(handle, *span))
    # A kept document's line is accepted, so the file has a usable line.
    return Corpus(documents=documents), True


def load_entity_catalog(path: str | Path) -> tuple[dict[EntityId, set[str]], IngestReport]:
    with open(path, "rb") as handle:
        return parse_entity_catalog(handle)
