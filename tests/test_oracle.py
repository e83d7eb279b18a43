"""Brute-force reference behaviour and its independence from the engine."""

from __future__ import annotations

import ast
import inspect
from datetime import date

import chronorank.oracle
from chronorank import (
    Granularity,
    Query,
    Semantics,
    build_index,
    load_corpus,
    oracle_rank,
    rank,
)
from chronorank.corpus import Corpus

from helpers import make_corpus, make_doc


def test_oracle_on_empty_corpus():
    q = Query(
        entities=frozenset({"A"}),
        semantics=Semantics.ALL,
        start=date(1990, 1, 1),
        end=date(1990, 1, 31),
        granularity=Granularity.MONTH,
    )
    assert oracle_rank(Corpus(documents=[]), q) == []


def test_oracle_single_document():
    corpus = make_corpus(make_doc("solo", "1990-01-05", {"A": 2, "B": 2}))
    q = Query(
        entities=frozenset({"A"}),
        semantics=Semantics.ALL,
        start=date(1990, 1, 1),
        end=date(1990, 1, 31),
        granularity=Granularity.MONTH,
        beta=0.5,
    )
    rows = oracle_rank(corpus, q)
    assert len(rows) == 1
    row = rows[0]
    assert row.timeliness == 1.0
    assert row.relativeness == 0.5
    # B occurs in the only union document, so idf and the term are zero
    assert row.relatedness_term == 0.0
    assert row.total == 0.5


def test_oracle_respects_top_k():
    corpus = make_corpus(
        make_doc("a", "1990-01-05", {"A": 1}),
        make_doc("b", "1990-01-06", {"A": 2, "X": 1}),
    )
    q = Query(
        entities=frozenset({"A"}),
        semantics=Semantics.ANY,
        start=date(1990, 1, 1),
        end=date(1990, 1, 31),
        granularity=Granularity.MONTH,
        top_k=1,
    )
    assert len(oracle_rank(corpus, q)) == 1


def test_oracle_matches_engine_on_fixture(fixture_corpus_path):
    corpus, _ = load_corpus(fixture_corpus_path)
    index = build_index(corpus)
    for granularity in Granularity:
        for semantics in Semantics:
            q = Query(
                entities=frozenset({"ent:a", "ent:b"}),
                semantics=semantics,
                start=date(1984, 5, 1),
                end=date(1984, 6, 30),
                granularity=granularity,
                beta=0.5,
            )
            assert oracle_rank(corpus, q) == rank(index, q)


def test_oracle_module_shares_no_scoring_code():
    """Repo rule: the reference imports data types and the calendar helper
    from the package, and nothing else."""
    tree = ast.parse(inspect.getsource(chronorank.oracle))
    allowed = {
        "corpus": {"Corpus", "Document", "EntityId"},
        "query": {"Query", "Semantics", "period_of"},
        "ranking": {"RankedResult", "ScoreBreakdown"},
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            names = {alias.name for alias in node.names}
            assert node.level == 1 and node.module in allowed, f"oracle imports from {'.' * node.level}{node.module}"
            assert names <= allowed[node.module], f"oracle imports {sorted(names - allowed[node.module])} from .{node.module}"
        elif isinstance(node, ast.ImportFrom):
            assert not (node.module or "").startswith("chronorank"), f"oracle imports from {node.module}"
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("chronorank") for alias in node.names)
