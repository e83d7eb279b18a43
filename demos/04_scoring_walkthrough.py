"""
Scoring a document, signal by signal
====================================

The final score combines three signals. Relativeness asks how much of a
document's annotation mass belongs to the query entities. Timeliness asks
how active the document's period is within the range. The relatedness term
rewards documents whose other entities cluster around the query in time
while being rare in the wider corpus. The walkthrough reproduces one
ranking row by hand.
"""

from pathlib import Path

from chronorank import (
    Granularity,
    Query,
    Semantics,
    build_index,
    load_corpus,
    match_documents,
    oracle_rank,
    period_of,
    rank,
    relatedness,
    relativeness_all,
    timeliness,
)

fixture = Path(__file__).resolve().parent.parent / "tests" / "data" / "fixture_corpus.jsonl"
corpus, _ = load_corpus(fixture)
index = build_index(corpus, Granularity.MONTH)

query = Query(
    entities=frozenset({"ent:a", "ent:b"}),
    semantics=Semantics.ALL,
    start=corpus.documents[0].published_at.replace(day=1),
    end=corpus.documents[0].published_at.replace(month=6, day=30),
    granularity=Granularity.MONTH,
    beta=0.5,
)
context = match_documents(index, query)

doc = index.doc_table["d1"]
print("mentions of d1:", dict(doc.mentions))

# relativeness: 3 of the 4 mention counts hit the query entities
print("relativeness:", relativeness_all(doc, query.entities))

# timeliness: 2 of the 3 matched documents share d1's month
period = period_of(doc.published_at, index.granularity)
print("timeliness of", period, "is", timeliness(context, period))

# relatedness of the leftover entity: rarity times burst co-occurrence.
# Its first lookup counts the entities of every document that mentions a
# query entity; idf is the share of those documents without ent:c.
related = relatedness(context, "ent:c")
union = context.query_entity_docs
print("idf of ent:c:", 1.0 - index.neighbourhood(union)["ent:c"] / len(union))
print("relatedness of ent:c:", related)

# recombine: timeliness * relativeness + beta * mean relatedness of extras
score = timeliness(context, period) * relativeness_all(doc, query.entities)
score += query.beta * (relatedness(context, "ent:c") / len(doc.mentions))
print("total by hand:", score)

# the engine agrees, and so does the brute-force reference
for row in rank(index, query):
    print(row.doc_id, f"{row.total:.6f}")
reference = oracle_rank(corpus, query)
print("reference order:", [row.doc_id for row in reference])
