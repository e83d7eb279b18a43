"""chronorank: entity-centric temporal ranking over annotated document collections.

The library ingests dated documents that carry entity mention counts, buckets
them into calendar periods, and ranks the documents matching an entity query
by a blend of relativeness, timeliness, and related-entity co-occurrence.
"""

from .corpus import (
    Corpus,
    Document,
    EntityCatalog,
    EntityId,
    IngestReport,
    is_valid_entity_id,
    load_corpus,
    load_entity_catalog,
    parse_corpus,
    parse_entity_catalog,
)
from .index import (
    CorpusIndex,
    Granularity,
    build_index,
    period_of,
)
from .oracle import oracle_rank
from .query import (
    Query,
    QueryContext,
    QueryError,
    Semantics,
    expand_category,
    match_documents,
    parse_query,
)
from .ranking import (
    RankedResult,
    ScoreBreakdown,
    final_score,
    rank,
    relatedness,
    relativeness_all,
    relativeness_any,
    timeliness,
)

__version__ = "0.1.0"

__all__ = [
    "Corpus",
    "CorpusIndex",
    "Document",
    "EntityCatalog",
    "EntityId",
    "Granularity",
    "IngestReport",
    "Query",
    "QueryContext",
    "QueryError",
    "RankedResult",
    "ScoreBreakdown",
    "Semantics",
    "build_index",
    "expand_category",
    "final_score",
    "is_valid_entity_id",
    "load_corpus",
    "load_entity_catalog",
    "match_documents",
    "oracle_rank",
    "parse_corpus",
    "parse_entity_catalog",
    "parse_query",
    "period_of",
    "rank",
    "relatedness",
    "relativeness_all",
    "relativeness_any",
    "timeliness",
    "__version__",
]
