"""Ranked output pinned byte for byte.

Engine changes that claim to keep every ranked byte are checked here: the
sha256 over `doc_id|period|repr(floats)` of every row of a fixed set of
seeded queries on a seeded corpus must equal the constants below, which were
recorded before the posting order changed from id to (date, id). A change
that means to alter scores must say so and record new constants.
"""

from __future__ import annotations

import hashlib
import random
from datetime import date, timedelta

import pytest

from chronorank import Granularity, Query, Semantics, build_index, rank

from helpers import entity_pool, random_corpus

WINDOW_START = date(1989, 1, 1)
WINDOW_END = date(1990, 4, 30)  # 485 days for 900 documents, so days repeat
QUERIES_PER_GRANULARITY = 60

EXPECTED = {
    Granularity.DAY: "a8f35a1db948ed8a613a05ed9e182bb6ab28cf1228216c0de2d07587588d491e",
    Granularity.WEEK: "2796afb160b180ffaca69e7765f4a2a988b2ac2d5aa4430001b0fa8d1fd8e9cf",
    Granularity.MONTH: "b35961190e0cfb3a3ce277f85f3deb7760cd5f6a9e5e688b450f3e15566ecedc",
    Granularity.YEAR: "8b22c10c6ae332ae3662ae81eb6f27497671858771033cdab5fcba50ff1ec79c",
}


def seeded_queries(rng: random.Random, granularity: Granularity, pool: list[str]) -> list[Query]:
    """Queries over varied entity counts, semantics, beta and top_k, with
    ranges that may start before the window or end after it, lie wholly
    outside it, or cover a single day. Some name ids no document mentions."""
    queries = []
    for i in range(QUERIES_PER_GRANULARITY):
        width = rng.choice([1, 1, 2, 2, 3, 4, 12])
        entities = set(rng.sample(pool, width))
        if i % 7 == 0:
            entities.add(f"absent{i}")
        start = WINDOW_START + timedelta(days=rng.randint(-40, 520))
        span = 0 if i % 9 == 0 else rng.randint(1, 400)
        queries.append(Query(
            entities=frozenset(entities),
            semantics=rng.choice(list(Semantics)),
            start=start,
            end=start + timedelta(days=span),
            granularity=granularity,
            beta=rng.choice([0.0, 0.25, 0.5, 1.0, 3]),
            top_k=rng.choice([None, None, 1, 10]),
        ))
    return queries


def row_digest(granularity: Granularity) -> str:
    rng = random.Random(20240611)
    pool = entity_pool(30)
    corpus = random_corpus(rng, 900, pool, WINDOW_START, WINDOW_END)
    index = build_index(corpus)
    digest = hashlib.sha256()
    for query in seeded_queries(rng, granularity, pool):
        for r in rank(index, query):
            digest.update(
                f"{r.doc_id}|{r.period}|{r.relativeness!r}|{r.timeliness!r}"
                f"|{r.relatedness_term!r}|{r.total!r}\n".encode()
            )
    return digest.hexdigest()


@pytest.mark.parametrize("granularity", list(Granularity), ids=lambda g: g.value)
def test_ranked_rows_are_byte_identical(granularity):
    assert row_digest(granularity) == EXPECTED[granularity]
