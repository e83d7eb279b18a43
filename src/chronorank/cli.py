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
import threading
from collections import Counter
from typing import IO

from .corpus import IngestReport, _UNPARSEABLE, _load_naming, load_corpus, load_entity_catalog, load_in_parts
from .query import QUERY_FIELDS, QueryError, parse_granularity, parse_query, period_of
from .ranking import RankedResult, build_index, rank

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2

# The printed columns in order: plain output prints the first three, --explain
# all seven. The four scores print to six decimals.
_COLUMNS = ("rank", "doc_id", "total", "timeliness", "relativeness", "relatedness_term", "period")


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
    # Query flags are stored under their query-file field names, and only when given.
    omit = argparse.SUPPRESS
    p_rank.add_argument("--entity", dest="entities", metavar="ENTITY", action="append", default=omit,
                        help="entity of interest (repeatable)")
    p_rank.add_argument("--category", dest="categories", metavar="CATEGORY", action="append", default=omit,
                        help="category to expand (repeatable)")
    p_rank.add_argument("--semantics", default=omit, help="all or any (default all)")
    p_rank.add_argument("--from", default=omit, help="range start, YYYY-MM-DD (required unless --query-file is given)")
    p_rank.add_argument("--to", default=omit, help="range end, YYYY-MM-DD (required unless --query-file is given)")
    p_rank.add_argument("--granularity", default=omit, help="day, week, month or year (default month)")
    p_rank.add_argument("--beta", default=omit, help="related-entity weight (default 0.5)")
    p_rank.add_argument("--top", dest="top_k", default=omit, help="emit at most this many rows")
    p_rank.add_argument("--format", dest="fmt", default="tsv", help="tsv or records (default tsv)")
    p_rank.add_argument("--explain", action="store_true", help="emit every score component")
    p_rank.add_argument("--query-file", dest="query_file", default=None, help="read the query from a JSON file instead of flags")
    p_rank.set_defaults(func=cmd_rank)

    p_stats = sub.add_parser("stats", help="corpus summary and per-period document counts")
    p_stats.add_argument("corpus", help="path to a line-delimited corpus file")
    p_stats.add_argument("--granularity", default="month", help="day, week, month or year (default month)")
    p_stats.set_defaults(func=cmd_stats)

    return parser


# A part smaller than this saves less than its process costs to start.
_PART_FLOOR = 4 << 20


def _ingest_parts(path: str) -> int:
    """How many parts validate ingests path in: one per CPU this process
    may use, each of at least _PART_FLOOR bytes. One where os.fork is
    missing, or unsafe because another thread is running."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, os.path.getsize(path) // _PART_FLOOR))


def _print_report(report: IngestReport, out: IO[str]) -> None:
    print(f"accepted: {report.accepted}", file=out)
    print(f"skipped: {report.skipped}", file=out)
    for reason in sorted(report.reasons):
        print(f"{reason}: {report.reasons[reason]}", file=out)


def _require_documents(usable: bool) -> None:
    if not usable:
        raise ValueError("no documents ingested")


def cmd_validate(args: argparse.Namespace) -> None:
    parts = _ingest_parts(args.corpus)  # the tallies alone, from no document kept
    report = load_in_parts(args.corpus, parts) if parts > 1 else load_corpus(args.corpus, mentioning=frozenset())[1]
    if args.catalog is not None:  # read before printing, so an I/O error prints no tallies
        catalog, cat_report = load_entity_catalog(args.catalog)
    _print_report(report, sys.stdout)
    if args.catalog is not None:
        print(f"catalog entities: {len(catalog)}", file=sys.stdout)
        print(f"catalog skipped: {cat_report.skipped}", file=sys.stdout)
    _require_documents(report.accepted > 0)


def _load_query_file(path: str) -> dict[str, object]:
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        record = json.loads(raw)
    except _UNPARSEABLE as exc:
        raise QueryError(f"query file is not valid JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise QueryError("query file must hold a single JSON object")
    return record


def _emit(rows: RankedResult, fmt: str, explain: bool, out: IO[str]) -> None:
    """Print one line per row, in tsv or as a JSON record, with only the
    printed columns built. A record carries each score rounded to six
    decimals, the value its tsv cell prints."""
    columns = _COLUMNS if explain else _COLUMNS[:3]
    for position, row in enumerate(rows, start=1):
        scores = (row.total, row.timeliness, row.relativeness, row.relatedness_term) if explain else (row.total,)
        period = (row.period,) if explain else ()
        if fmt == "tsv":
            line = "\t".join((str(position), row.doc_id, *(f"{score:.6f}" for score in scores), *period))
        else:
            values = (position, row.doc_id, *(round(score, 6) for score in scores), *period)
            line = json.dumps(dict(zip(columns, values)))
        print(line, file=out)


def cmd_rank(args: argparse.Namespace) -> None:
    if args.fmt not in ("tsv", "records"):
        raise QueryError(f"invalid format: {args.fmt!r} (use tsv or records)")
    fields = {name: value for name, value in vars(args).items() if name in QUERY_FIELDS}
    if args.query_file is not None:
        if fields:
            raise QueryError("--query-file cannot be combined with query flags")
        fields = _load_query_file(args.query_file)
    else:
        for name in ("from", "to"):
            if name not in fields:
                raise QueryError(f"missing --{name} date (required unless --query-file is given)")
    catalog = load_entity_catalog(args.catalog)[0] if args.catalog is not None else None
    query = parse_query(fields, catalog=catalog)  # before the corpus, so a bad query fails fast
    # rank reads only documents that name a query entity, so ingest keeps no
    # other, and reads in full only the lines that can change which it keeps.
    corpus, usable = _load_naming(args.corpus, query.entities)
    _require_documents(usable)
    _emit(rank(build_index(corpus), query), args.fmt, args.explain, sys.stdout)


def cmd_stats(args: argparse.Namespace) -> None:
    granularity = parse_granularity(args.granularity)
    corpus, report = load_corpus(args.corpus)
    _require_documents(report.accepted > 0)
    counts = Counter(period_of(doc.published_at, granularity) for doc in corpus.documents)
    first = min(doc.published_at for doc in corpus.documents)
    last = max(doc.published_at for doc in corpus.documents)
    print(f"documents: {len(corpus)}")
    print(f"entities: {len(corpus.entity_universe)}")
    print(f"span: {first.isoformat()}..{last.isoformat()}")
    for key in sorted(counts):
        print(f"{key}\t{counts[key]}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            args.func(args)
            code = EXIT_OK
        except ValueError as exc:  # a bad query or flag value, or an empty corpus
            print(f"error: {exc}", file=sys.stderr)
            code = EXIT_DOMAIN
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


if __name__ == "__main__":
    raise SystemExit(main())
