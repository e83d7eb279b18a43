"""Brute-force reference ranking used to cross-check the indexed engine.

Repo rule: this module must not import engine code. It may share exactly
these names: Corpus, Document and EntityId from .corpus; Query, Semantics and
period_of from .query; RankedResult and ScoreBreakdown from .ranking. Every
quantity, matching, per-period counts, inverse frequencies, co-occurrence
rates, is re-derived here by direct scans over the raw document list. No
inverted indexes are built. Quadratic cost in corpus size is fine; this path
exists for equivalence testing and debugging, not production use.

The summation order and tie-breaking mirror the engine exactly, so the tests
assert agreement bit for bit: every row equal with ==.
"""

from __future__ import annotations

from datetime import date

from .corpus import Corpus, Document, EntityId
from .query import Query, Semantics, period_of
from .ranking import RankedResult, ScoreBreakdown

# The co-occurrence rate has an equivalent formulation that routes through the
# per-period timeliness and conditions on the period's matched count. The two
# only agree where that count is non-zero; this slack absorbs float noise when
# asserting the agreement.
_CROSS_CHECK_TOLERANCE = 1e-9


def _matches(doc: Document, query: Query) -> bool:
    if not (query.start <= doc.published_at <= query.end):
        return False
    if query.semantics is Semantics.ALL:
        return all(entity in doc.mentions for entity in query.entities)
    return any(entity in doc.mentions for entity in query.entities)


def _entity_score(
    entity: EntityId,
    documents: list[Document],
    matched: list[tuple[str, Document]],
    period_keys: list[str],
    union_ids: set[str],
) -> float:
    """Re-derive one related entity's score from raw scans.

    Also evaluates the timeliness-conditioned formulation of the same
    quantity on every period where it is defined and asserts both routes
    agree, which guards the algebra as well as the arithmetic.
    """
    union_size = len(union_ids)
    in_union = sum(1 for doc in documents if entity in doc.mentions and doc.id in union_ids)
    inverse_freq = 1.0 - in_union / union_size
    total = len(matched)
    direct = 0.0
    conditioned = 0.0
    for key in period_keys:
        in_period = sum(1 for pk, _ in matched if pk == key)
        with_entity = sum(1 for pk, doc in matched if pk == key and entity in doc.mentions)
        direct += with_entity / total
        if in_period:
            conditioned += (in_period / total) * (with_entity / in_period)
    assert abs(direct - conditioned) <= _CROSS_CHECK_TOLERANCE, (
        f"co-occurrence formulations disagree for {entity!r}: {direct} vs {conditioned}"
    )
    return inverse_freq * direct


def oracle_rank(corpus: Corpus, query: Query) -> RankedResult:
    """Rank a corpus for a query by brute force.

    Returns the same breakdowns, ordering, and truncation as ranking.rank,
    computed without any shared scoring code.
    """
    documents = corpus.documents
    matched: list[tuple[str, Document]] = []
    for doc in documents:
        if _matches(doc, query):
            key = period_of(doc.published_at, query.granularity)
            matched.append((key, doc))
    if not matched:
        return []

    union_ids = {
        doc.id
        for doc in documents
        if any(entity in doc.mentions for entity in query.entities)
    }
    total = len(matched)
    # A period holding no matched document would add exactly 0.0.
    period_keys = sorted({pk for pk, _ in matched})

    # One evaluation per distinct entity per query: the score is a pure
    # function of corpus and query.
    entity_scores: dict[EntityId, float] = {}

    rows: list[ScoreBreakdown] = []
    for period_key, doc in matched:
        mention_mass = sum(doc.mentions.values())
        hits = sum(count for entity, count in doc.mentions.items() if entity in query.entities)
        relativeness = hits / mention_mass
        if query.semantics is Semantics.ANY:
            overlap = sum(1 for entity in query.entities if entity in doc.mentions)
            relativeness = relativeness * (overlap / len(query.entities))
        in_period = sum(1 for pk, _ in matched if pk == period_key)
        timeliness = in_period / total
        related_sum = 0.0
        for entity in sorted(doc.mentions):
            if entity in query.entities:
                continue
            if entity not in entity_scores:
                entity_scores[entity] = _entity_score(
                    entity, documents, matched, period_keys, union_ids
                )
            related_sum += entity_scores[entity]
        relatedness_term = related_sum / len(doc.mentions)
        rows.append(
            ScoreBreakdown(
                doc_id=doc.id,
                period=period_key,
                relativeness=relativeness,
                timeliness=timeliness,
                relatedness_term=relatedness_term,
                total=timeliness * relativeness + query.beta * relatedness_term,
            )
        )

    rows.sort(key=lambda row: (-row.total, row.doc_id))
    if query.top_k is not None:
        rows = rows[: query.top_k]
    return rows
