"""Library side of one benchmark run, executed in its own child process.

run.py starts this script so that the peak RSS it reads back through
os.wait4 belongs to the process that set up the index and ran the queries,
and to nothing the benchmark did before. The single argument is a JSON object
of settings. The script then reads one JSON command per line on stdin and
answers each with one JSON line on stdout:

  {"op": "setup"}        load_corpus + build_index, replacing the previous
                         copy, and check the ingest tallies;
  {"op": "queries", "upto": f}
                         run the seeded query mix, closed loop, one client,
                         until the share f of the run's query work is done;
  {"op": "finish"}       rank the CLI query in-process, report, and exit.

run.py alternates set-ups, query rounds and CLI children, so that each
metric samples the whole run and not one stretch of it. Every ranked result
is checked (order, length, score formula) outside the timed region.

With tracing on, every query also runs through rank() taken apart into
match_documents, final_score per matched document in id order, and sort
plus truncation, each inside a span, next to its untraced run; the rows must
equal rank()'s. finish also times cli.main with stdout captured. The per-layer
metrics are then: corpus.load_s and index.build_s, the median over set-ups;
query.match_ms, ranking.score_ms, ranking.sort_ms and cli.emit_ms, self time
per traced query; the query.*, ranking.* and index.* counts, per traced query
or per index; trace.overhead_pct, the traced runs' rank() time over the
untraced runs' for the same queries.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from chronorank import (  # noqa: E402
    Granularity,
    Semantics,
    build_index,
    cli,
    final_score,
    load_corpus,
    match_documents,
    parse_query,
    rank,
)

import gen  # noqa: E402
from spans import Tracer  # noqa: E402

TOLERANCE = 1e-12
# With 100 samples at least 10 lie beyond p90. The mix stops on a block
# boundary, so every class and option weighs the same.
MIN_QUERY_SAMPLES = 100
COUNTS = ("postings_touched", "candidates", "matched", "union", "periods", "related_entities", "relatedness_calls")


def check_rows(rows, query, matched: int) -> list[str]:
    """Invariants every ranked result must satisfy."""
    errors = []
    expected_len = matched if query.top_k is None else min(query.top_k, matched)
    if len(rows) != expected_len:
        errors.append(f"{len(rows)} rows, expected {expected_len}")
    for a, b in zip(rows, rows[1:]):
        if not (-a.total, a.doc_id) < (-b.total, b.doc_id):
            errors.append(f"rows {a.doc_id} and {b.doc_id} out of order")
            break
    for row in rows:
        formula = row.timeliness * row.relativeness + query.beta * row.relatedness_term
        if abs(row.total - formula) > TOLERANCE:
            errors.append(f"{row.doc_id}: total {row.total!r} != formula {formula!r}")
            break
    return errors


def stored(obj, name: str) -> int:
    """Entries held in an index or context field; 0 once the field is gone."""
    return len(getattr(obj, name, ()))


def decomposed_rank(index, query, qid: int, tracer: Tracer, counts: dict) -> list:
    """rank() taken apart into match, score and sort spans, plus counts."""
    with tracer.span("query.rank", qid):
        with tracer.span("query.match", qid):
            ctx = match_documents(index, query)
        with tracer.span("ranking.score", qid):
            rows = [final_score(ctx, index.doc_table[d]) for d in sorted(ctx.matched)]
        with tracer.span("ranking.sort", qid):
            rows.sort(key=lambda row: (-row.total, row.doc_id))
            if query.top_k is not None:
                rows = rows[: query.top_k]
    postings = [set(index.docs_by_entity.get(e, ())) for e in query.entities]
    union = set.union(*postings)
    candidates = set.intersection(*postings) if query.semantics is Semantics.ALL else union
    counts["postings_touched"] += sum(len(p) for p in postings)
    counts["candidates"] += len(candidates)
    counts["matched"] += len(ctx.matched)
    counts["union"] += len(union)
    counts["periods"] += stored(ctx, "periods")
    counts["related_entities"] += len(ctx.entity_scores)
    counts["relatedness_calls"] += sum(
        sum(1 for e in index.doc_table[d].mentions if e not in query.entities) for d in ctx.matched
    )
    return rows


class Session:
    def __init__(self, settings: dict) -> None:
        self.settings = settings
        self.granularity = Granularity(settings["granularity"])
        self.tracer = Tracer() if settings["trace"] else None
        self.failures: list[str] = []
        self.attempted = 0
        self.index = self.report = None
        self.setup_s: list[float] = []
        self.source = gen.query_mix(settings["seed"], settings["granularity"], settings["max_span_days"])
        self.min_samples = 1 if self.tracer else MIN_QUERY_SAMPLES
        # traced runs spend half the query time untraced, half traced
        self.budget = settings["query_seconds"] / (2 if self.tracer else 1)
        self.latencies: list[float] = []
        self.by_class: dict[str, list[float]] = {}
        self.counts = dict.fromkeys(COUNTS, 0)
        self.traced_queries = 0

    def setup(self) -> dict:
        self.index = None  # free the previous copy before building the next
        tracer = self.tracer
        started = time.perf_counter()
        if tracer:
            with tracer.span("setup"):
                with tracer.span("corpus.load"):
                    corpus, report = load_corpus(self.settings["corpus"])
                with tracer.span("index.build"):
                    index = build_index(corpus, self.granularity)
        else:
            corpus, report = load_corpus(self.settings["corpus"])
            index = build_index(corpus, self.granularity)
        self.setup_s.append(time.perf_counter() - started)
        self.index, self.report = index, report
        self.attempted += 1
        if gen.tallies(report) != self.settings["expected"]:
            self.failures.append(f"ingest tallies {gen.tallies(report)} != expected {self.settings['expected']}")
        return {"setup_s": self.setup_s[-1]}

    def queries(self, upto: float) -> dict:
        """Run queries until the share `upto` of the timed work and samples is done."""
        index, tracer = self.index, self.tracer
        budget, min_samples = self.budget * upto, math.ceil(self.min_samples * upto)
        timed = sum(self.latencies)
        # failing queries add no timed work, so wall time bounds the round too
        give_up = time.perf_counter() + 3 * self.budget + 10
        for spec in self.source:
            query = parse_query(spec.fields)
            self.attempted += 1
            # traced and untraced runs of a query alternate which goes first,
            # so that warm caches favour neither
            traced_first = tracer is not None and spec.qid % 2 == 1
            if traced_first:
                traced_rows = self.traced(spec.qid, query)
            try:
                started = time.perf_counter()
                rows = rank(index, query)
                elapsed = time.perf_counter() - started
            except Exception as exc:  # a failed query is counted; the loop goes on
                self.failures.append(f"query {spec.qid}: {type(exc).__name__}: {exc}")
                rows = None
            if tracer is not None and not traced_first:
                traced_rows = self.traced(spec.qid, query)
            if rows is not None:
                self.latencies.append(elapsed)
                self.by_class.setdefault(spec.cls, []).append(elapsed)
                timed += elapsed
                errors = check_rows(rows, query, len(match_documents(index, query).matched))
                if tracer is not None and traced_rows != rows:
                    errors.append("decomposed rows differ from rank()")
                if errors:
                    self.failures.append(f"query {spec.qid}: {'; '.join(errors[:3])}")
            done = timed >= budget and len(self.latencies) >= min_samples
            if (done and (spec.qid + 1) % gen.BLOCK == 0) or time.perf_counter() > give_up:
                break
        return {"queries": len(self.latencies)}

    def traced(self, qid: int, query) -> list | None:
        """rank() taken apart inside spans, and the rows emitted as the CLI would."""
        self.attempted += 1
        try:
            rows = decomposed_rank(self.index, query, qid, self.tracer, self.counts)
        except Exception as exc:  # counted as a failure of this query
            self.failures.append(f"query {qid} traced: {type(exc).__name__}: {exc}")
            return None
        with self.tracer.span("cli.emit", qid):
            cli._emit(rows, "tsv", False, io.StringIO())
        self.traced_queries += 1
        return rows

    def finish(self) -> dict:
        index, tracer, latencies = self.index, self.tracer, self.latencies
        if not latencies:
            raise RuntimeError("no query completed")
        buffer = io.StringIO()
        cli._emit(rank(index, parse_query(gen.criterion6_fields(self.settings["granularity"]))), "tsv", False, buffer)
        expected_cli = buffer.getvalue().encode("utf-8")
        result = {
            "setup_s": statistics.median(self.setup_s),
            "setup_samples": self.setup_s,
            "query_samples": len(latencies),
            "query_p50_ms": statistics.median(latencies) * 1e3,
            "query_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
            "queries_per_s": len(latencies) / sum(latencies),
            "class_p50_ms": {c: statistics.median(v) * 1e3 for c, v in sorted(self.by_class.items())},
            "cli_expected_sha256": hashlib.sha256(expected_cli).hexdigest(),
        }
        if tracer:
            result["layers"] = self.layers(expected_cli)
            tracer.write(self.settings["spans"])
        result["attempted"] = self.attempted
        result["failures"] = self.failures
        return result

    def layers(self, expected_cli: bytes) -> dict:
        tracer, index, report, counts = self.tracer, self.index, self.report, self.counts
        captured = io.StringIO()
        with tracer.span("cli.main"), contextlib.redirect_stdout(captured):
            code = cli.main(gen.cli_argv(self.settings["corpus"], gen.criterion6_fields(self.settings["granularity"])))
        output = captured.getvalue().encode("utf-8")
        self.attempted += 1
        if code != 0 or output != expected_cli:
            self.failures.append(f"in-process cli.main exited {code} or its output differs from rank()")

        n = max(1, self.traced_queries)

        def per_query_ms(name: str) -> float:
            return sum(tracer.self_times(name)) / n * 1e3

        load_s = statistics.median(tracer.self_times("corpus.load"))
        return {
            "corpus.load_s": load_s,
            "corpus.mb_per_s": Path(self.settings["corpus"]).stat().st_size / load_s / 1e6,
            "corpus.lines": report.accepted + report.skipped,
            "corpus.skipped": report.skipped,
            "index.build_s": statistics.median(tracer.self_times("index.build")),
            "index.entity_postings": sum(len(v) for v in index.docs_by_entity.values()),
            "index.entity_period_cells": stored(index, "docs_by_entity_period"),
            "index.periods": stored(index, "docs_by_period"),
            "query.match_ms": per_query_ms("query.match"),
            "query.postings_touched": counts["postings_touched"] / n,
            "query.candidates": counts["candidates"] / n,
            "query.matched": counts["matched"] / n,
            "query.match_yield": counts["matched"] / max(1, counts["candidates"]),
            "query.union": counts["union"] / n,
            "query.periods": counts["periods"] / n,
            "ranking.score_ms": per_query_ms("ranking.score"),
            "ranking.related_entities": counts["related_entities"] / n,
            "ranking.relatedness_calls": counts["relatedness_calls"] / n,
            "ranking.memo_hit_ratio": 1 - counts["related_entities"] / max(1, counts["relatedness_calls"]),
            "ranking.sort_ms": per_query_ms("ranking.sort"),
            "cli.main_s": tracer.durations("cli.main")[0],
            "cli.emit_ms": per_query_ms("cli.emit"),
            "cli.output_bytes": len(output),
            "trace.overhead_pct": (sum(tracer.durations("query.rank")) / sum(self.latencies) - 1) * 100,
        }


def main() -> None:
    session = Session(json.loads(sys.argv[1]))
    for line in sys.stdin:
        command = json.loads(line)
        if command["op"] == "setup":
            reply = session.setup()
        elif command["op"] == "queries":
            reply = session.queries(command["upto"])
        else:
            print(json.dumps(session.finish()), flush=True)
            return
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
