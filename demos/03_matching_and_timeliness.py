"""
Matching documents and reading the burst profile
================================================

A query names entities of interest, a date range, and a matching mode:
"all" keeps documents mentioning every entity, "any" keeps documents
mentioning at least one. The matched set's spread over periods is the
timeliness signal: periods where the topic bursts score high.

The index stores no period: the query names its granularity, so one index
answers day, week, month and year queries alike.
"""

from pathlib import Path

from chronorank import (
    Granularity,
    Query,
    Semantics,
    build_index,
    load_corpus,
    match_documents,
    parse_query,
)

fixture = Path(__file__).resolve().parent.parent / "tests" / "data" / "fixture_corpus.jsonl"
corpus, _ = load_corpus(fixture)
index = build_index(corpus)  # serves queries at every granularity

fixture_start = corpus.documents[0].published_at.replace(day=1)
query = Query(
    entities=frozenset({"ent:a", "ent:b"}),
    semantics=Semantics.ALL,
    start=fixture_start,
    end=fixture_start.replace(month=6, day=30),
    granularity=Granularity.MONTH,
)

context = match_documents(index, query)
print("matched under all:", sorted(context.matched))

# each matched document contributes to its month's share, shares sum to 1
for period, share in sorted(context.period_scores.items()):
    print(period, f"{share:.4f}")

# the same query under "any" semantics widens the matched set
relaxed = Query(
    entities=query.entities, semantics=Semantics.ANY,
    start=query.start, end=query.end, granularity=query.granularity,
)
print("matched under any:", sorted(match_documents(index, relaxed).matched))

# queries also parse from plain dictionaries, the shape the CLI reads
parsed = parse_query({
    "entities": ["ent:a", "ent:b"],
    "semantics": "any",
    "from": "1984-05-01",
    "to": "1984-06-30",
    "granularity": "week",
})
print("parsed:", sorted(parsed.entities), parsed.semantics.value, parsed.granularity.value)
