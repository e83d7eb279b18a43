"""Command line interface: validate, rank, and stats subcommands.

Data goes to stdout, diagnostics to stderr. Exit codes: 0 on success, 1 for
domain errors (bad query, empty corpus), 2 for I/O errors. A stdout closed
by its reader (`| head`) is an I/O error that prints nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter
from typing import IO

from .corpus import Corpus, EntityCatalog, IngestReport, load_corpus, load_entity_catalog
from .index import Granularity, build_index, period_of
from .oracle import oracle_rank
from .query import Query, QueryError, parse_query
from .ranking import RankedResult, rank

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2

_EXPLAIN_COLUMNS = ("rank", "doc_id", "total", "timeliness", "relativeness", "relatedness_term", "period")
_BASIC_COLUMNS = ("rank", "doc_id", "total")


def _fmt6(value: float) -> str:
    return f"{value:.6f}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chronorank",
        description="Rank entity-annotated documents by relativeness, timeliness and relatedness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="ingest a corpus and report accept/skip tallies")
    p_validate.add_argument("corpus", help="path to a line-delimited corpus file")
    p_validate.add_argument("--catalog", help="optional entity catalog to validate alongside")
    p_validate.set_defaults(func=cmd_validate)

    p_rank = sub.add_parser("rank", help="rank the documents matching a query")
    p_rank.add_argument("corpus", help="path to a line-delimited corpus file")
    p_rank.add_argument("--catalog", help="entity catalog used for category expansion")
    p_rank.add_argument("--entity", action="append", default=None, help="entity of interest (repeatable)")
    p_rank.add_argument("--category", action="append", default=None, help="category to expand (repeatable)")
    p_rank.add_argument("--semantics", default=None, help="all or any (default all)")
    p_rank.add_argument("--from", dest="from_date", default=None, help="range start, YYYY-MM-DD")
    p_rank.add_argument("--to", dest="to_date", default=None, help="range end, YYYY-MM-DD")
    p_rank.add_argument("--granularity", default=None, help="day, week, month or year (default month)")
    p_rank.add_argument("--beta", default=None, help="related-entity weight (default 0.5)")
    p_rank.add_argument("--top", default=None, help="emit at most this many rows")
    p_rank.add_argument("--format", dest="fmt", default="tsv", help="tsv or records (default tsv)")
    p_rank.add_argument("--explain", action="store_true", help="emit every score component")
    p_rank.add_argument("--oracle", action="store_true", help=argparse.SUPPRESS)
    p_rank.add_argument("--query-file", dest="query_file", default=None, help="read the query from a JSON file instead of flags")
    p_rank.set_defaults(func=cmd_rank)

    p_stats = sub.add_parser("stats", help="corpus summary and per-period document counts")
    p_stats.add_argument("corpus", help="path to a line-delimited corpus file")
    p_stats.add_argument("--granularity", default="month", help="day, week, month or year (default month)")
    p_stats.set_defaults(func=cmd_stats)

    return parser


def _print_report(report: IngestReport, out: IO[str]) -> None:
    print(f"accepted: {report.accepted}", file=out)
    print(f"skipped: {report.skipped}", file=out)
    for reason in sorted(report.reasons):
        print(f"{reason}: {report.reasons[reason]}", file=out)


def cmd_validate(args: argparse.Namespace) -> int:
    corpus, report = load_corpus(args.corpus)
    if args.catalog is not None:  # read before printing, so an I/O error prints no tallies
        catalog, cat_report = load_entity_catalog(args.catalog)
    _print_report(report, sys.stdout)
    if args.catalog is not None:
        print(f"catalog entities: {len(catalog)}", file=sys.stdout)
        print(f"catalog skipped: {cat_report.skipped}", file=sys.stdout)
    if report.accepted == 0:
        print("error: no documents ingested", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def _query_flag_map(args: argparse.Namespace) -> dict[str, object]:
    mapping: dict[str, object] = {}
    if args.entity is not None:
        mapping["entities"] = args.entity
    if args.category is not None:
        mapping["categories"] = args.category
    if args.semantics is not None:
        mapping["semantics"] = args.semantics
    if args.from_date is not None:
        mapping["from"] = args.from_date
    if args.to_date is not None:
        mapping["to"] = args.to_date
    if args.granularity is not None:
        mapping["granularity"] = args.granularity
    if args.beta is not None:
        mapping["beta"] = args.beta
    if args.top is not None:
        mapping["top_k"] = args.top
    return mapping


def _load_query_file(path: str) -> dict[str, object]:
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        record = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise QueryError(f"query file is not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise QueryError("query file must hold a single JSON object")
    return record


def _emit(rows: RankedResult, fmt: str, explain: bool, out: IO[str]) -> None:
    columns = _EXPLAIN_COLUMNS if explain else _BASIC_COLUMNS
    for position, row in enumerate(rows, start=1):
        rendered: dict[str, object] = {
            "rank": position,
            "doc_id": row.doc_id,
            "total": _fmt6(row.total),
            "timeliness": _fmt6(row.timeliness),
            "relativeness": _fmt6(row.relativeness),
            "relatedness_term": _fmt6(row.relatedness_term),
            "period": row.period,
        }
        if fmt == "tsv":
            print("\t".join(str(rendered[name]) for name in columns), file=out)
        else:
            record = {
                name: float(rendered[name]) if name in ("total", "timeliness", "relativeness", "relatedness_term") else rendered[name]
                for name in columns
            }
            print(json.dumps(record), file=out)


def cmd_rank(args: argparse.Namespace) -> int:
    if args.fmt not in ("tsv", "records"):
        raise QueryError(f"invalid format: {args.fmt!r} (use tsv or records)")
    flag_map = _query_flag_map(args)
    if args.query_file is not None:
        if flag_map:
            raise QueryError("--query-file cannot be combined with query flags")
        flag_map = _load_query_file(args.query_file)
    catalog = EntityCatalog()
    if args.catalog is not None:
        catalog, _ = load_entity_catalog(args.catalog)
    corpus, report = load_corpus(args.corpus, catalog=catalog)
    if report.accepted == 0:
        print("error: no documents ingested", file=sys.stderr)
        return EXIT_DOMAIN
    query = parse_query(flag_map, catalog=catalog)
    if args.oracle:
        rows = oracle_rank(corpus, query)
    else:
        index = build_index(corpus, query.granularity)
        rows = rank(index, query)
    _emit(rows, args.fmt, args.explain, sys.stdout)
    return EXIT_OK


def cmd_stats(args: argparse.Namespace) -> int:
    try:
        granularity = Granularity(args.granularity)
    except ValueError as exc:
        raise QueryError(
            f"invalid granularity: {args.granularity!r} (use day, week, month or year)"
        ) from exc
    corpus, report = load_corpus(args.corpus)
    if report.accepted == 0:
        print("error: no documents ingested", file=sys.stderr)
        return EXIT_DOMAIN
    counts = Counter(period_of(doc.published_at, granularity) for doc in corpus.documents)
    first = min(doc.published_at for doc in corpus.documents)
    last = max(doc.published_at for doc in corpus.documents)
    print(f"documents: {len(corpus)}")
    print(f"entities: {len(corpus.entity_universe)}")
    print(f"span: {first.isoformat()}..{last.isoformat()}")
    for key in sorted(counts):
        print(f"{key}\t{counts[key]}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout must fail here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull, so that flushing what is still buffered
        # at exit cannot print an "Exception ignored" message.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
