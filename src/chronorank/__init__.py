"""chronorank: entity-centric temporal ranking over annotated document collections.

The library ingests dated documents that carry entity mention counts, buckets
them into calendar periods, and ranks the documents matching an entity query
by a blend of relativeness, timeliness, and related-entity co-occurrence.

The package exports what the README's Library section lists; everything else
is importable from its module (chronorank.corpus, .query, .ranking).
"""

from .corpus import load_corpus, load_entity_catalog, parse_corpus, parse_entity_catalog
from .oracle import oracle_rank
from .query import Granularity, Query, QueryError, Semantics, parse_query, period_of
from .ranking import QueryContext, ScoreBreakdown, build_index, final_score, match_documents, rank

__version__ = "0.1.0"

__all__ = [
    "Granularity",
    "Query",
    "QueryContext",
    "QueryError",
    "ScoreBreakdown",
    "Semantics",
    "build_index",
    "final_score",
    "load_corpus",
    "load_entity_catalog",
    "match_documents",
    "oracle_rank",
    "parse_corpus",
    "parse_entity_catalog",
    "parse_query",
    "period_of",
    "rank",
]
