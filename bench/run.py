"""chronorank benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload lib-day-mix --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it ranks with the code under src/ and
exits 2 when there is none. It writes a seeded corpus (the acceptance suite's
criterion-6 generator plus about 1% broken lines, see gen.py) and measures
one process at a time, with one closed-loop client and no threads, because
the reference box has two cores:

  * a worker child (worker.py) that holds the library: it sets up
    (load_corpus + build_index) and runs rounds of the query mix on command;
  * `python -m chronorank.cli rank` children with the criterion-6 query
    (topic pair, ALL, full range) at the workload's granularity, each under
    its own PYTHONHASHSEED.
A run makes ROUNDS rounds of a set-up, queries and a CLI call, so that each
metric samples the whole run rather than one stretch of it. Peak RSS comes
from os.wait4 on each child, never from RUSAGE_CHILDREN, which would carry
the largest peak of every child reaped before.

End-to-end metrics (--trace 0):
  setup_s        median of the three load_corpus + build_index.
  query_p50_ms, query_p90_ms, queries_per_s
                 median and p90 (interpolated) of rank() latency over the
                 seeded query mix, at least 100 queries so that at least 10
                 lie beyond p90, and completed queries over their summed
                 latency.
  cli_wall_s     median wall time of the three CLI children.
  peak_rss_mb    the worker's peak RSS.
Failed checks over attempted operations are printed as failed_ratio; the
result line carries them as `failed` and `attempted`.

Outside every timed region the run checks ingest tallies against the
generator's, each ranked result's order, length and score formula,
oracle_rank against rank on a down-scaled corpus of the same generator and
seed, and that every CLI child printed the bytes rank() gives in-process.

With --trace 1 the worker records spans around calls into each module, and
import-only children (`python -c "import chronorank.cli"`) time the CLI's
start-up; the last line carries the per-layer metrics instead (see
worker.py). A record of the run (environment, samples, output sha256,
failures) and, when tracing, the spans are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import select
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"

import gen  # noqa: E402

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "lib-month-mix": {"granularity": "month", "max_span_days": gen.WINDOW_DAYS},
    "lib-day-mix": {"granularity": "day", "max_span_days": 366},
}
# Rounds of a set-up, queries and a CLI call (an import-only call when
# tracing) per run; traced runs then make import-only calls up to STARTUP_CALLS.
ROUNDS = 3
STARTUP_CALLS = 9
TOLERANCE = 1e-12
# Every child must end before this many seconds of the run have passed.
RUN_LIMIT_S = 170


class Run:
    """Operation and failure tallies of one run, and its deadline."""

    def __init__(self) -> None:
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)


def child_env(hash_seed: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(hash_seed % 2**32)
    return env


def run_child(argv: list[str], env: dict[str, str], stem: str, timeout: float):
    """Run a child to completion; return (exit code, wall s, peak RSS MB, stdout, stderr).

    The child is reaped with os.wait4, so its peak RSS is its own and not a
    high-water mark over every child reaped before it.
    """
    out_path, err_path = OUT / f"{stem}.out", OUT / f"{stem}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - started > timeout:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    out, err = out_path.read_bytes(), err_path.read_bytes()
    out_path.unlink()
    err_path.unlink()
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6, out, err


def oracle_check(run: Run, seed: int, granularity: str, max_span_days: int) -> int:
    """rank must agree with oracle_rank on a down-scaled corpus, per query class."""
    from chronorank import Granularity, build_index, oracle_rank, parse_corpus, parse_query, rank

    lines, expected = gen.corpus_lines(seed, gen.ORACLE)
    corpus, report = parse_corpus(lines)
    run.check(gen.tallies(report) == expected, f"oracle corpus tallies {gen.tallies(report)} != {expected}")
    queries = [gen.criterion6_fields(granularity)]
    mix = gen.query_mix(seed, granularity, max_span_days, gen.ORACLE)
    queries += [next(mix).fields for _ in range(16)]  # one of each class, semantics and top_k
    index = build_index(corpus, Granularity(granularity))
    rows_seen = 0
    for fields in queries:
        query = parse_query(fields)
        got, ref = rank(index, query), oracle_rank(corpus, query)
        rows_seen += len(ref)
        agree = [g.doc_id for g in got] == [r.doc_id for r in ref] and all(
            g.period == r.period and all(
                abs(getattr(g, k) - getattr(r, k)) <= TOLERANCE
                for k in ("relativeness", "timeliness", "relatedness_term", "total"))
            for g, r in zip(got, ref))
        run.check(agree, f"rank disagrees with oracle_rank on {fields}")
    return rows_seen


def run_record(args) -> dict:
    def cpu_model() -> str:
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or "unknown"

    def git_commit() -> str | None:
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_start": os.getloadavg(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


class Worker:
    """bench/worker.py in a child process, driven one JSON command at a time."""

    def __init__(self, settings: dict, env: dict[str, str], stem: str, run: Run) -> None:
        self.run = run
        self.err_path = OUT / f"{stem}.worker.err"
        with open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(
                [sys.executable, str(BENCH / "worker.py"), json.dumps(settings)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT)

    def call(self, op: str, **fields) -> dict:
        self.proc.stdin.write((json.dumps({"op": op, **fields}) + "\n").encode())
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, self.run.remaining()))
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            self.stop()
            detail = self.err_path.read_text(errors="replace")[-2000:]
            raise RuntimeError(f"worker gave no reply to {op!r}\n{detail}")
        return json.loads(line)

    def finish(self) -> tuple[dict, float]:
        """The worker's result and its own peak RSS in MB."""
        result = self.call("finish")
        return result, self.stop()

    def stop(self) -> float:
        self.proc.stdin.close()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(1.0, self.run.remaining()))
        if not ready:
            self.proc.kill()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        if self.proc.returncode == 0:
            self.err_path.unlink()
        return usage.ru_maxrss * 1024 / 1e6


def measure(args, run: Run, record: dict, corpus_path: Path) -> dict | None:
    """Generate the inputs, drive the worker and the children; return the metrics.

    Returns None when the worker dies or stops answering.
    """
    workload = WORKLOADS[args.workload]
    granularity = workload["granularity"]
    stem = corpus_path.name.removesuffix(".jsonl")
    marks = [time.perf_counter()]
    expected = gen.write_corpus(corpus_path, args.seed)
    marks.append(time.perf_counter())
    record["oracle_rows"] = oracle_check(run, args.seed, granularity, workload["max_span_days"])
    marks.append(time.perf_counter())

    worker = Worker({
        "corpus": str(corpus_path),
        "expected": expected,
        "granularity": granularity,
        "max_span_days": workload["max_span_days"],
        "seed": args.seed,
        "query_seconds": args.seconds,
        "trace": args.trace,
        "spans": str(OUT / f"{stem}.spans.jsonl"),
    }, child_env(args.seed), stem, run)
    cli_argv = [sys.executable, "-m", "chronorank.cli"] + gen.cli_argv(str(corpus_path), gen.criterion6_fields(granularity))
    walls, peaks, outcomes = [], [], []

    def cli_call() -> None:
        hash_seed = args.seed * 1000 + len(walls)  # a different hash seed for every call
        code, wall, peak, out, err = run_child(cli_argv, child_env(hash_seed), f"{stem}.cli", run.remaining())
        outcomes.append((hash_seed, code, hashlib.sha256(out).hexdigest(), err))
        walls.append(wall)
        peaks.append(peak)

    startup = []

    def startup_call() -> None:
        code, wall, _, _, err = run_child([sys.executable, "-c", "import chronorank.cli"],
                                          child_env(len(startup)), f"{stem}.startup", run.remaining())
        run.check(code == 0 and not err, f"import-only child exited {code}: {err[-500:]!r}")
        startup.append(wall)

    try:
        for rnd in range(ROUNDS):
            worker.call("setup")
            worker.call("queries", upto=(rnd + 1) / ROUNDS)
            if args.trace:
                startup_call()
            else:
                cli_call()
        while args.trace and len(startup) < STARTUP_CALLS:
            startup_call()
        lib, worker_rss = worker.finish()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    marks.append(time.perf_counter())
    run.attempted += lib["attempted"]
    run.failures += lib["failures"]
    # every CLI child, each under its own hash seed, must print what rank() gave
    for hash_seed, code, digest, err in outcomes:
        run.check(code == 0 and not err and digest == lib["cli_expected_sha256"],
                  f"CLI under PYTHONHASHSEED={hash_seed} exited {code}, stdout sha256 {digest}, stderr {err[-500:]!r}")

    if args.trace:
        record["startup_s"] = startup
        metrics = dict(lib["layers"])
        metrics["cli.startup_s"] = statistics.median(startup)
    else:
        record["cli_stdout_sha256"] = sorted({digest for _, _, digest, _ in outcomes})
        record["cli_walls_s"] = walls
        record["cli_peak_rss_mb"] = peaks
        metrics = {
            "cli_wall_s": statistics.median(walls),
            "setup_s": lib["setup_s"],
            "query_p50_ms": lib["query_p50_ms"],
            "query_p90_ms": lib["query_p90_ms"],
            "queries_per_s": lib["queries_per_s"],
            "peak_rss_mb": worker_rss,
        }
    record.update({key: lib[key] for key in ("setup_samples", "query_samples", "class_p50_ms", "cli_expected_sha256")})
    record["phase_s"] = {"generate": marks[1] - marks[0], "oracle": marks[2] - marks[1], "measure": marks[3] - marks[2]}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "chronorank" / "cli.py").is_file():
        print(f"error: no chronorank sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    record = run_record(args)
    run = Run()
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"

    corpus_path = OUT / f"{stem}.jsonl"
    try:
        metrics = measure(args, run, record, corpus_path)
    finally:
        corpus_path.unlink(missing_ok=True)
    if metrics is None:
        return 1

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in declared[key]}
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()},
    }
    record["failed_ratio"] = result["failed"] / result["attempted"]
    record["failures"] = run.failures[:50]
    record["result"] = result
    (OUT / f"{stem}.record.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, metric in result["metrics"].items():
        print(f"{args.workload}  {name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{args.workload}  {'failed_ratio':28s} {record['failed_ratio']:14.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    for message in run.failures[:10]:
        print(f"{args.workload}  FAILED: {message}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
