"""
Ingesting an annotated corpus
=============================

Documents arrive as JSON lines: a stable id, a publication date, and the
entity mentions counted by an upstream annotation pipeline. Broken lines
must never take the ingest down, they are tallied and skipped.
"""

import io

from chronorank import parse_corpus, parse_entity_catalog

# a small feed with two broken lines and one duplicate mixed in
feed = io.StringIO("""\
{"id": "a1", "date": "1990-07-02", "mentions": [{"entity": "ent:berlin_wall", "count": 3}, {"entity": "ent:germany", "count": 1}]}
{"id": "a2", "date": "1990-07-05", "mentions": [{"entity": "ent:germany", "count": 2}]}
{"id": "a3", "date": "not a date", "mentions": []}
{"id": "a4", "date": "1990-07-09", "mentions": [{"entity": "ent:berlin_wall", "count": 0}]}
{"id": "a2", "date": "1990-08-01", "mentions": []}
{"id": "a5", "date": "1990-07-11T08:30:00", "mentions": [{"entity": "ent:berlin_wall", "count": 1}]}
""")

corpus, report = parse_corpus(feed)

print("accepted:", report.accepted)
print("skipped:", report.skipped)
for reason, count in sorted(report.reasons.items()):
    print(f"  {reason}: {count}")

# the duplicate kept the first record, the time-of-day suffix was dropped
for doc in corpus.documents:
    print(doc.id, doc.published_at, dict(doc.mentions))

print("distinct entities:", sorted(corpus.entity_universe))

# an optional catalog maps entities to categories for query expansion
catalog_feed = io.StringIO("""\
{"entity": "ent:berlin_wall", "categories": ["cat:landmark", "cat:politics"]}
{"entity": "ent:germany", "categories": ["cat:country"]}
""")
catalog, catalog_report = parse_entity_catalog(catalog_feed)
print("catalog entries:", catalog_report.accepted)
print("categories of ent:berlin_wall:", sorted(catalog["ent:berlin_wall"]))
