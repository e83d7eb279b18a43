"""Acceptance suite. One test per criterion, one printed pass/fail line each.

Run with plain pytest; the verdict lines bypass capture so they always show:

    pytest tests/test_acceptance.py
"""

from __future__ import annotations

import json
import random
import time
from collections import Counter
from contextlib import contextmanager
from datetime import date, timedelta

import pytest

from chronorank import (
    Granularity,
    Query,
    Semantics,
    build_index,
    load_corpus,
    oracle_rank,
    rank,
)
from chronorank.corpus import Corpus, Document

from helpers import check_ranking_invariants, golden, random_case

GRANULARITIES = list(Granularity)
BETAS = [0.0, 0.3, 0.5, 1.0]


@pytest.fixture
def verdict(capsys):
    @contextmanager
    def criterion(label: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[acceptance] {label}: FAIL")
            raise
        with capsys.disabled():
            print(f"[acceptance] {label}: PASS")

    return criterion


def test_criterion_1_engine_matches_brute_force_at_random(verdict):
    with verdict("criterion 1, brute-force equivalence on 200 random corpora"):
        started = time.perf_counter()
        rows_compared = 0
        nonempty_runs = 0
        for i in range(200):
            rng = random.Random(91000 + i)
            granularity = GRANULARITIES[i % 4]
            beta = BETAS[(i // 4) % 4]
            roll = rng.random()
            if roll < 0.55:
                doc_count = rng.randint(5, 80)
            elif roll < 0.90:
                doc_count = rng.randint(80, 250)
            else:
                doc_count = rng.randint(250, 500)
            corpus, q_all, q_any = random_case(
                rng, granularity, beta, doc_count, entity_count=rng.randint(4, 60)
            )
            index = build_index(corpus)
            for query in (q_all, q_any):
                expected = oracle_rank(corpus, query)
                assert rank(index, query) == expected
                rows_compared += len(expected)
                nonempty_runs += bool(expected)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"equivalence sweep took {elapsed:.1f}s"
        # guard against a silent generator regression starving the sweep
        assert rows_compared > 3000
        assert nonempty_runs > 200


def test_criterion_2_fixture_goldens_reproduce(verdict, run_cli, fixture_corpus_path):
    with verdict("criterion 2, frozen fixture goldens reproduce to 6 decimals"):
        for semantics in ("all", "any"):
            for granularity in ("day", "week", "month", "year"):
                code, out, err = run_cli(
                    "rank", str(fixture_corpus_path),
                    "--entity", "ent:a", "--entity", "ent:b",
                    "--semantics", semantics,
                    "--from", "1984-05-01", "--to", "1984-06-30",
                    "--granularity", granularity,
                    "--beta", "0.5", "--explain",
                )
                assert (code, err) == (0, "")
                assert out == golden(f"rank_{semantics}_{granularity}.tsv")


def test_criterion_3_invariants_hold_across_a_seeded_sweep(verdict):
    with verdict("criterion 3, invariant suite over 120 random cases"):
        checks = Counter()
        for i in range(120):
            rng = random.Random(37000 + i)
            corpus, query, _ = random_case(
                rng, GRANULARITIES[i % 4], beta=BETAS[i % 4],
                doc_count=rng.randint(0, 120), entity_count=rng.randint(2, 20),
            )
            checks += check_ranking_invariants(corpus, query)
        # guard against a silent generator regression starving the sweep
        assert checks["ranked"] > 60
        assert checks["monotonicity"] > 20
        assert checks["ties"] > 30


FOCUS, COMPANION, COMMON, PAD = "ent:focus", "ent:companion", "ent:common", "ent:pad"


def _burst_year_corpus() -> Corpus:
    """A 1990 corpus with a July burst for the focus entity, one planted
    companion that co-occurs only inside the burst, and one background entity
    that co-occurs with the focus all the time, including the year before."""
    docs: list[Document] = []
    for month in range(1, 13):
        if month == 7:
            continue
        docs.append(Document(f"bg{month:02d}", date(1990, month, 10), {FOCUS: 1, COMMON: 2}))
    docs.append(Document("march_twin", date(1990, 3, 15), {FOCUS: 2, PAD: 2}))
    july = [
        ("july_twin", {FOCUS: 2, PAD: 2}),
        ("july_companion", {FOCUS: 2, COMPANION: 2}),
        ("july_common", {FOCUS: 2, COMMON: 2}),
        ("july_heavy", {FOCUS: 5, PAD: 1}),
        ("july_light", {FOCUS: 1, PAD: 5}),
        ("july_companion_2", {FOCUS: 1, COMPANION: 1}),
        ("july_filler_1", {FOCUS: 1, COMMON: 1}),
        ("july_filler_2", {FOCUS: 1, COMMON: 1}),
    ]
    for offset, (doc_id, mentions) in enumerate(july):
        docs.append(Document(doc_id, date(1990, 7, 2 + offset * 3), dict(mentions)))
    for i in range(40):
        docs.append(Document(f"old{i:02d}", date(1989, 1 + i % 12, 5), {FOCUS: 1, COMMON: 1}))
    return Corpus(documents=docs)


def test_criterion_4_burst_scenario_promotions(verdict):
    with verdict("criterion 4, burst-period scenario promotions"):
        corpus = _burst_year_corpus()
        query = Query(
            entities=frozenset({FOCUS}),
            semantics=Semantics.ALL,
            start=date(1990, 1, 1),
            end=date(1990, 12, 31),
            granularity=Granularity.MONTH,
            beta=0.5,
        )
        index = build_index(corpus)
        rows = {r.doc_id: r for r in rank(index, query)}
        assert len(rows) == 20

        # same mention profile, burst month beats quiet month
        assert rows["july_twin"].relativeness == rows["march_twin"].relativeness
        assert rows["july_twin"].relatedness_term == rows["march_twin"].relatedness_term
        assert rows["july_twin"].total > rows["march_twin"].total

        # same relativeness and period, the planted companion beats the
        # always-around background entity
        assert rows["july_companion"].relativeness == rows["july_common"].relativeness
        assert rows["july_companion"].timeliness == rows["july_common"].timeliness
        assert rows["july_companion"].total > rows["july_common"].total

        # heavier focus mentions beat lighter ones, all else equal
        assert rows["july_heavy"].timeliness == rows["july_light"].timeliness
        assert rows["july_heavy"].relatedness_term == rows["july_light"].relatedness_term
        assert rows["july_heavy"].total > rows["july_light"].total


def _robustness_lines() -> tuple[list[str], list[str]]:
    good = []
    for i in range(90):
        good.append(json.dumps({
            "id": f"doc{i:03d}",
            "date": (date(1990, 1, 1) + timedelta(days=i * 3)).isoformat(),
            "mentions": [{"entity": f"e{i % 7}", "count": 1 + i % 4}],
        }))
    bad = [
        '{"id": "x1", "date": "1990-01-01", "mentions":',
        "[1, 2, 3]",
        '{"id": "x2", "date": "1990-01-01", "mentions": [{"entity": "e1", "count": 0}]}',
        '{"id": "x3", "date": "1990-01-01", "mentions": [{"entity": "e1", "count": 1}, {"entity": "e1", "count": 2}]}',
        '{"id": "x4", "date": "1990-13-40", "mentions": []}',
        '{"id": "x5", "mentions": []}',
        '{"id": "x6", "date": 19900101, "mentions": []}',
        '{"id": "doc000", "date": "1991-01-01", "mentions": []}',
        '{"id": "doc001", "date": "1991-01-02", "mentions": []}',
        '{"id": "doc002", "date": "1991-01-03", "mentions": []}',
    ]
    return good, bad


def _canonical_bytes(corpus: Corpus) -> bytes:
    return json.dumps(
        [
            {"id": d.id, "date": d.published_at.isoformat(), "mentions": d.mentions}
            for d in corpus.documents
        ],
        sort_keys=True,
    ).encode("utf-8")


def test_criterion_5_ingest_robustness(verdict, run_cli, tmp_path):
    with verdict("criterion 5, ingest survives 10% broken lines with exact tallies"):
        good, bad = _robustness_lines()
        lines = []
        for i, line in enumerate(good):
            lines.append(line)
            if i % 9 == 4:
                lines.append(bad[i // 9])
        assert len(lines) == 100
        path = tmp_path / "rough.jsonl"
        path.write_text("\n".join(lines) + "\n")

        corpus_one, report_one = load_corpus(path)
        assert report_one.accepted == 90
        assert report_one.skipped == 10
        assert report_one.accepted + report_one.skipped == 100
        assert report_one.reasons["malformed"] == 4
        assert report_one.reasons["dateless"] == 3
        assert report_one.reasons["duplicate"] == 3
        assert len(corpus_one) == 90

        corpus_two, report_two = load_corpus(path)
        assert report_two == report_one
        assert _canonical_bytes(corpus_two) == _canonical_bytes(corpus_one)

        first_run = run_cli("validate", str(path))
        second_run = run_cli("validate", str(path))
        assert first_run == second_run
        assert first_run[0] == 0


def test_criterion_6_scale_smoke(verdict):
    with verdict("criterion 6, 100k docs and 5k entities under 10s"):
        rng = random.Random(777)
        entity_count = 5000
        doc_count = 100_000
        pool = [f"e{i:04d}" for i in range(entity_count)]
        topic_a, topic_b = "topic:alpha", "topic:beta"
        base = date(1988, 1, 1)
        docs = []
        for i in range(doc_count):
            width = rng.randint(2, 8)
            mentions: dict[str, int] = {}
            for _ in range(width):
                # quadratic skew concentrates mentions on the low indexes
                j = int(entity_count * rng.random() ** 2.2)
                mentions[pool[j]] = rng.randint(1, 5)
            if i % 250 == 0:
                mentions[topic_a] = rng.randint(1, 3)
                mentions[topic_b] = rng.randint(1, 3)
            elif i % 97 == 0:
                mentions[topic_a] = 1
            elif i % 89 == 0:
                mentions[topic_b] = 1
            docs.append(
                Document(
                    id=f"doc{i:06d}",
                    published_at=base + timedelta(days=rng.randrange(1096)),
                    mentions=mentions,
                )
            )
        corpus = Corpus(documents=docs)
        assert len(corpus.entity_universe) <= entity_count + 2

        query = Query(
            entities=frozenset({topic_a, topic_b}),
            semantics=Semantics.ALL,
            start=date(1988, 1, 1),
            end=date(1990, 12, 31),
            granularity=Granularity.MONTH,
            beta=0.5,
        )
        started = time.perf_counter()
        index = build_index(corpus)
        rows = rank(index, query)
        elapsed = time.perf_counter() - started

        assert len(rows) >= 300
        assert elapsed < 10.0, f"index build plus query took {elapsed:.2f}s"

        # memory stays proportional to the mention postings: every mention
        # pair appears exactly once in the entity postings, nothing dense
        total_mentions = sum(len(d.mentions) for d in corpus.documents)
        assert sum(len(v) for v in index.docs_by_entity.values()) == total_mentions
