"""Shared builders for tests: tiny corpora by hand, random corpora by seed."""

from __future__ import annotations

import json
import os
import random
import unicodedata
from collections import Counter
from dataclasses import dataclass, replace
from datetime import date, timedelta
from pathlib import Path

import chronorank
from chronorank import Granularity, Query, QueryContext, Semantics, build_index, match_documents, period_of, rank
from chronorank.corpus import (
    SKIP_DATELESS,
    SKIP_DUPLICATE,
    SKIP_MALFORMED,
    Corpus,
    Document,
    IngestReport,
    _parse_day,
    is_valid_entity_id,
)
from chronorank.ranking import CorpusIndex, relativeness

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


@dataclass(frozen=True)
class RankedBoth:
    """One query with top_k cleared, matched and ranked under each semantics
    over one index: what every invariant check below reads."""

    corpus: Corpus
    index: CorpusIndex
    queries: dict[Semantics, Query]
    contexts: dict[Semantics, QueryContext]
    rows: dict[Semantics, list]

    def ranked(self):
        """(query, context, rows) for each semantics that matched something."""
        return [(q, self.contexts[s], self.rows[s]) for s, q in self.queries.items() if self.contexts[s].matched]


def rank_both(corpus: Corpus, query: Query) -> RankedBoth:
    index = build_index(corpus)
    queries = {s: replace(query, semantics=s, top_k=None) for s in Semantics}
    return RankedBoth(
        corpus=corpus,
        index=index,
        queries=queries,
        contexts={s: match_documents(index, q) for s, q in queries.items()},
        rows={s: rank(index, q) for s, q in queries.items()},
    )


def check_all_within_any(case: RankedBoth) -> None:
    """ANY can only widen the matched set, and an empty match ranks []."""
    assert case.contexts[Semantics.ALL].matched <= case.contexts[Semantics.ANY].matched
    for semantics, ctx in case.contexts.items():
        if not ctx.matched:
            assert case.rows[semantics] == []


def check_period_shares(case: RankedBoth) -> None:
    """The period shares of a matched set sum to one."""
    for _, ctx, _ in case.ranked():
        assert abs(sum(ctx.period_scores.values()) - 1.0) <= 1e-12


def check_row_bounds(case: RankedBoth) -> None:
    """Every component in its range, and the total exactly t·r + β·term."""
    for q, _, rows in case.ranked():
        for row in rows:
            assert 0.0 < row.relativeness <= 1.0
            assert 0.0 < row.timeliness <= 1.0
            assert 0.0 <= row.relatedness_term < 1.0
            assert 0.0 < row.total <= 1.0 + q.beta
            assert row.total == row.timeliness * row.relativeness + q.beta * row.relatedness_term


def check_relatedness_sums(case: RankedBoth) -> None:
    """Relatedness is idf times the co-occurrence summed in ascending period
    order, bit for bit, and so within rounding of idf times the overall rate."""
    for q, ctx, _ in case.ranked():
        matched = len(ctx.matched)
        for entity in sorted(case.corpus.entity_universe - q.entities):
            hits = set(case.index.docs_by_entity.get(entity, ())) & ctx.matched
            per_period = Counter(period_of(case.index.doc_table[d].published_at, q.granularity) for d in hits)
            ordered = 0.0
            for key in sorted(per_period):
                ordered += per_period[key] / matched
            score = ctx.entity_scores.get(entity, 0.0)
            assert score == idf(ctx, entity) * ordered
            assert abs(score - idf(ctx, entity) * (len(hits) / matched)) <= 1e-12


def check_beta_zero(case: RankedBoth) -> None:
    """beta = 0 strips ranking back to timeliness * relativeness."""
    for q, _, _ in case.ranked():
        plain_rows = rank(case.index, replace(q, beta=0.0))
        assert plain_rows == sorted(plain_rows, key=lambda r: (-(r.timeliness * r.relativeness), r.doc_id))
        for row in plain_rows:
            assert row.total == row.timeliness * row.relativeness


def check_monotonicity(case: RankedBoth) -> int:
    """Raising a named query entity's count raises relativeness strictly when
    the document mentions anything else, and leaves it at the coverage share
    otherwise. Returns how many semantics saw a strict rise."""
    rises = 0
    for q, ctx, _ in case.ranked():
        strict = False
        for doc in map(case.index.doc_table.__getitem__, sorted(ctx.matched)):
            named = sorted(q.entities.intersection(doc.mentions))
            other_mass = sum(c for e, c in doc.mentions.items() if e not in q.entities)
            before = relativeness(doc, q.entities)
            for entity in named:
                raised = replace(doc, mentions={**doc.mentions, entity: doc.mentions[entity] + 1})
                after = relativeness(raised, q.entities)
                if other_mass:
                    assert after > before
                    strict = True
                else:
                    assert after == before == len(named) / len(q.entities)
        rises += strict
    return rises


def check_tie_clones(case: RankedBoth) -> int:
    """Ties break by ascending id: two clones of a matched document rank next
    to it in id order with its total. Returns how many clone pairs ranked."""
    ranked = case.ranked()
    for q, ctx, _ in ranked:
        sample = case.index.doc_table[min(ctx.matched)]
        clones = [replace(sample, id=clone_id) for clone_id in ("tie_a", "tie_b")]
        widened = rank(build_index(Corpus(documents=[*case.corpus.documents, *clones])), q)
        tied = [r for r in widened if r.doc_id in (sample.id, "tie_a", "tie_b")]
        assert [r.doc_id for r in tied] == sorted([sample.id, "tie_a", "tie_b"])
        assert tied[0].total == tied[1].total == tied[2].total
    return len(ranked)


def check_semantics_share_relativeness(case: RankedBoth) -> None:
    """Semantics only choose the matches: a document ALL matches carries the
    plain query share as its relativeness, bit for bit, under either."""
    any_relativeness = {r.doc_id: r.relativeness for r in case.rows[Semantics.ANY]}
    entities = case.queries[Semantics.ALL].entities
    for row in case.rows[Semantics.ALL]:
        doc = case.index.doc_table[row.doc_id]
        hits = sum(doc.mentions[e] for e in entities)
        assert row.relativeness == any_relativeness[row.doc_id] == hits / sum(doc.mentions.values())


def check_ranking_invariants(corpus: Corpus, query: Query) -> Counter:
    """Assert every invariant above for the query's entities, range,
    granularity and beta under both semantics, and return how many checks of
    each kind ran: "ranked" queries with a match, "monotonicity" queries with
    a strict relativeness rise, "ties" clone pairs ranked.

    Each invariant is written once, in its own check; the seeded sweep of
    acceptance criterion 3 runs them all through this function, and the
    hypothesis properties in test_properties.py run each over drawn corpora.
    """
    case = rank_both(corpus, query)
    check_all_within_any(case)
    check_period_shares(case)
    check_row_bounds(case)
    check_relatedness_sums(case)
    check_beta_zero(case)
    check_semantics_share_relativeness(case)
    return Counter(
        ranked=len(case.ranked()),
        monotonicity=check_monotonicity(case),
        ties=check_tie_clones(case),
    )


def reference_records(lines, report: IngestReport):
    """Plain reference for ingest's line layer: each line decoded as UTF-8,
    a BOM dropped from line 0 alone, stripped, blank lines ignored, and
    json.loads, which must give a dict. Anything else is tallied malformed."""
    for number, line in enumerate(lines):
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
        except (ValueError, RecursionError):
            report.reasons[SKIP_MALFORMED] += 1
            continue
        if isinstance(record, dict):
            yield record
        else:
            report.reasons[SKIP_MALFORMED] += 1


def reference_parse_corpus(lines) -> tuple[list[Document], Counter]:
    """Plain reference for parse_corpus: its own line layer
    (reference_records), every mention's id through is_valid_entity_id, and
    nothing shared between records. The date parser is the engine's own."""
    report = IngestReport()
    documents: list[Document] = []
    for record in reference_records(lines, report):
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
    holds tab and every C0 and C1 control), no line or paragraph separator
    (Zl, Zp) and no lone surrogate (Cs)."""
    return (
        isinstance(doc_id, str)
        and bool(doc_id)
        and all(unicodedata.category(ch) not in ("Cc", "Zl", "Zp", "Cs") for ch in doc_id)
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
