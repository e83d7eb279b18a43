"""Seeded inputs for the benchmark: a corpus file and an endless query mix.

The corpus is the acceptance suite's criterion-6 generator (100k documents,
5k entities drawn with a power-2.2 skew, the topic pair topic:alpha and
topic:beta, dates over 1988-1990) with about 1% broken lines mixed in, of the
kinds criterion 5 covers. The good documents come from the same random stream
as criterion 6, so seed 777 reproduces that corpus exactly; the broken lines
are placed deterministically and do not consume randomness.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Iterator

TOPIC_PAIR = ("topic:alpha", "topic:beta")
BASE_DAY = date(1988, 1, 1)
WINDOW_DAYS = 1096
LAST_DAY = BASE_DAY + timedelta(days=WINDOW_DAYS - 1)

# One broken line follows every BREAK_EVERY-th good line, cycling through
# these kinds. Each kind names the IngestReport reason it must be tallied as.
BREAK_EVERY = 100
BROKEN_KINDS = (
    ("bad_json", "malformed"),
    ("bad_mentions", "malformed"),
    ("dateless", "dateless"),
    ("duplicate", "duplicate"),
)

CLASSES = ("topic", "head", "mid", "tail")


@dataclass(frozen=True)
class Scale:
    """Corpus size, and the entity-rank bands each query class draws from.

    At full scale head is e0000-e0009, mid e0010-e0499 and tail the rest.
    """

    docs: int
    entities: int

    @property
    def head(self) -> range:
        return range(0, max(1, self.entities // 500))

    @property
    def mid(self) -> range:
        return range(self.head.stop, max(self.head.stop + 1, self.entities // 10))

    @property
    def tail(self) -> range:
        return range(self.mid.stop, self.entities)


FULL = Scale(docs=100_000, entities=5_000)
# The oracle rescans the raw corpus for every related entity and period, so
# its agreement check runs on a corpus this small.
ORACLE = Scale(docs=400, entities=100)


def entity_name(j: int) -> str:
    return f"e{j:04d}"


def _broken_line(kind: str, ordinal: int, last_good_id: str) -> str:
    if kind == "bad_json":
        return f'{{"id": "broken{ordinal:05d}", "date": "1989-05-05", "mentions":'
    if kind == "bad_mentions":
        # a zero count and a repeated entity are both invalid mention arrays
        if ordinal % 2:
            mentions = [{"entity": "e0001", "count": 0}]
        else:
            mentions = [{"entity": "e0001", "count": 1}, {"entity": "e0001", "count": 2}]
        return json.dumps({"id": f"broken{ordinal:05d}", "date": "1989-05-05", "mentions": mentions})
    if kind == "dateless":
        record: dict[str, object] = {"id": f"broken{ordinal:05d}", "mentions": [{"entity": "e0002", "count": 1}]}
        if ordinal % 2:
            record["date"] = "1989-13-40"
        return json.dumps(record)
    return json.dumps({"id": last_good_id, "date": "1990-06-06", "mentions": []})


def corpus_lines(seed: int, scale: Scale = FULL) -> tuple[list[str], dict[str, int]]:
    """JSONL lines of one seeded corpus, and the tallies ingest must report.

    The tallies use the IngestReport field names: accepted, skipped, and one
    key per skip reason.
    """
    rng = random.Random(seed)
    pool = [entity_name(j) for j in range(scale.entities)]
    days = [(BASE_DAY + timedelta(days=d)).isoformat() for d in range(WINDOW_DAYS)]
    topic_a, topic_b = TOPIC_PAIR
    lines: list[str] = []
    expected = {"accepted": 0, "skipped": 0, "malformed": 0, "dateless": 0, "duplicate": 0}
    broken = 0
    for i in range(scale.docs):
        width = rng.randint(2, 8)
        mentions: dict[str, int] = {}
        for _ in range(width):
            j = int(scale.entities * rng.random() ** 2.2)
            mentions[pool[j]] = rng.randint(1, 5)
        if i % 250 == 0:
            mentions[topic_a] = rng.randint(1, 3)
            mentions[topic_b] = rng.randint(1, 3)
        elif i % 97 == 0:
            mentions[topic_a] = 1
        elif i % 89 == 0:
            mentions[topic_b] = 1
        doc_id = f"doc{i:06d}"
        day = days[rng.randrange(WINDOW_DAYS)]
        # what json.dumps writes for this record, formatted directly: ids and
        # entity names need no escaping
        listed = ", ".join(f'{{"entity": "{e}", "count": {c}}}' for e, c in mentions.items())
        lines.append(f'{{"id": "{doc_id}", "date": "{day}", "mentions": [{listed}]}}')
        expected["accepted"] += 1
        if i % BREAK_EVERY == BREAK_EVERY - 1:
            kind, reason = BROKEN_KINDS[broken % len(BROKEN_KINDS)]
            lines.append(_broken_line(kind, broken, doc_id))
            expected["skipped"] += 1
            expected[reason] += 1
            broken += 1
    return lines, expected


def tallies(report) -> dict[str, int]:
    """An IngestReport in the shape corpus_lines gives its expected tallies."""
    found = {"accepted": report.accepted, "skipped": report.skipped}
    found.update({reason: report.reasons.get(reason, 0) for _, reason in BROKEN_KINDS})
    return found


def write_corpus(path, seed: int, scale: Scale = FULL) -> dict[str, int]:
    lines, expected = corpus_lines(seed, scale)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return expected


@dataclass(frozen=True)
class QuerySpec:
    """One query of the mix, in the query-file field names parse_query takes."""

    qid: int
    cls: str
    fields: dict


def criterion6_fields(granularity: str) -> dict:
    """The acceptance suite's criterion-6 query: topic pair, ALL, full range."""
    return {
        "entities": list(TOPIC_PAIR),
        "semantics": "all",
        "from": BASE_DAY.isoformat(),
        "to": LAST_DAY.isoformat(),
        "granularity": granularity,
        "beta": 0.5,
    }


def cli_argv(corpus: str, fields: dict) -> list[str]:
    """`chronorank rank` arguments for a query given in query-file fields."""
    argv = ["rank", corpus]
    for entity in fields["entities"]:
        argv += ["--entity", entity]
    return argv + ["--semantics", fields["semantics"], "--from", fields["from"], "--to", fields["to"],
                   "--granularity", fields["granularity"]]


# Each combination of class, semantics and top_k gets its own low-discrepancy
# sequences over range length and entity rank, so every block of the mix
# holds the same spread of costs whatever the seed; the seed moves the corpus,
# the block order and the range starts, but not the mix's cost profile. The
# entity ranks themselves are not seeded: a random offset of a few ranks in
# the mid band changes an entity's expected frequency by up to half, and
# moved the mix's median latency from seed to seed.
_PHI = 0.6180339887498949
_SQRT2_FRAC = 0.4142135623730951
COMBOS = [(c, s, k) for c in CLASSES for s in ("all", "any") for k in (10, None)]
BLOCK = len(COMBOS)


def query_mix(seed: int, granularity: str, max_span_days: int, scale: Scale = FULL) -> Iterator[QuerySpec]:
    """Endless seeded query mix over the four classes.

    Each block of BLOCK queries holds every (class, semantics, top_k) triple
    once, in a seeded order. Head queries cycle through the head entities;
    mid and tail queries name 1-3 entities spread over their band.
    """
    rng = random.Random(seed * 1_000_003 + max_span_days)
    occurrences = [0] * BLOCK
    qid = 0
    while True:
        order = list(range(BLOCK))
        rng.shuffle(order)
        for c in order:
            cls, semantics, top_k = COMBOS[c]
            k = occurrences[c]
            occurrences[c] += 1
            if cls == "topic":
                entities = list(TOPIC_PAIR)
            elif cls == "head":
                entities = [entity_name(scale.head[(k + c) % len(scale.head)])]
            else:
                band = scale.mid if cls == "mid" else scale.tail
                width = 1 + (k + c) % 3
                picks = set()
                for i in range(width):
                    position = (c / BLOCK + k * _SQRT2_FRAC + i / width) % 1.0
                    picks.add(band[int(position * len(band))])
                entities = [entity_name(j) for j in sorted(picks)]
            span = min(WINDOW_DAYS, 1 + int(((c / BLOCK + k * _PHI) % 1.0) * max_span_days))
            start = BASE_DAY + timedelta(days=rng.randrange(WINDOW_DAYS - span + 1))
            fields = {
                "entities": entities,
                "semantics": semantics,
                "from": start.isoformat(),
                "to": (start + timedelta(days=span - 1)).isoformat(),
                "granularity": granularity,
                "beta": 0.5,
            }
            if top_k is not None:
                fields["top_k"] = top_k
            yield QuerySpec(qid=qid, cls=cls, fields=fields)
            qid += 1

