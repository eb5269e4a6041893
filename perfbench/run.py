"""Benchmark of the polyode command line, end to end and per module.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process, one closed-loop client, no threads: each query is one
in-process call of ``polyode.cli.main`` on the seeded inputs of
``workloads.py``, the next sent when the last returns.

An untraced run (``--trace 0``) makes one whole pass over the workload's
queries and goes on in the same order until ``--seconds`` have gone by.
Each query then counts once, with the median of its rescaled times (see
``Speedometer``): ``queries_per_s`` is the number of distinct queries over
the sum of those times, ``query_s.p50`` and ``query_s.p90`` are their
median and 90th percentile (every workload has over 100 distinct
queries).  ``setup_s`` is the median of several set-ups (import of polyode
from ``src``, input generation, writing the input files, a warm-up pass at
tiny size), ``peak_rss_mb`` the process's peak resident memory before the
checks run.  Every output is checked (``checks.py``) after the
timed region; a query that raised, exited unexpectedly or failed its check
counts in ``failed``.

A traced run (``--trace 1``) makes one untraced pass, one pass with the
wrappers of ``tracing.py`` installed and one more untraced pass, so its
counts repeat exactly for a seed, and reports the per-layer metrics.

Every metric is printed as ``name value unit``; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Inputs and the span file go to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import deque
from fractions import Fraction

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

END_TO_END = (
    ("queries_per_s", "1/s"),
    ("query_s.p50", "s"),
    ("query_s.p90", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_REPEATS = 7


class SetupError(Exception):
    """The program under test cannot be imported from the checkout."""


def import_polyode() -> dict:
    """Import every polyode module afresh from ``src``."""
    if not os.path.isfile(os.path.join(SRC, "polyode", "__init__.py")):
        raise SetupError(f"no polyode package under {SRC}")
    for name in [m for m in sys.modules if m.split(".")[0] == "polyode"]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    modules = {name: importlib.import_module("polyode." + name)
               for name in tracing.LAYERS}
    if not modules["cli"].__file__.startswith(SRC + os.sep):
        raise SetupError(f"polyode imported from {modules['cli'].__file__}")
    return modules


# The host's speed drifts by 20-30 % over tens of seconds (a shared
# virtual machine), and no statistic inside one run removes that.  A fixed
# piece of stdlib-only exact arithmetic, timed just before each query,
# measures the momentary speed; every reported time is the measured wall
# time rescaled to the speed at which that probe takes PROBE_REFERENCE_S
# (its time on an idle 2.1 GHz Xeon vCPU).
PROBE_REFERENCE_S = 0.003


def probe() -> float:
    """Seconds taken by a fixed piece of Fraction and int arithmetic."""
    start = time.perf_counter()
    x = Fraction(1, 3)
    for i in range(1, 300):
        x = x * Fraction(i, i + 1) + Fraction(1, i)
    total = 0
    for i in range(20000):
        total += i * i % 7
    return time.perf_counter() - start


class Speedometer:
    """Momentary host speed: PROBE_REFERENCE_S over the median of the last
    few probe times, which smooths the probe's own jitter."""

    def __init__(self, window: int = 5):
        self.recent: deque = deque(maxlen=window)

    def scale(self) -> float:
        self.recent.append(probe())
        return PROBE_REFERENCE_S / statistics.median(self.recent)


def call(cli, argv: list, meter: Speedometer) -> tuple[float, object, str]:
    """One query: (rescaled seconds, exit code or error text, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    scale = meter.scale()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # a crashing query is a failed query, not a failed run
        code = traceback.format_exc()
    return (time.perf_counter() - start) * scale, code, out.getvalue()


def setup(workload: str, seed: int, size: str, meter: Speedometer):
    """Import, generate, write and warm up; returns (rescaled seconds,
    modules, queries)."""
    scale = meter.scale()
    start = time.perf_counter()
    modules = import_polyode()
    directory = os.path.join(OUT, f"{workload}-{seed}-{size}")
    queries = workloads.generate(workload, seed, size)
    workloads.write_inputs(queries, directory)
    warm = workloads.generate(workload, seed, "tiny")
    workloads.write_inputs(warm, os.path.join(directory, "warmup"))
    for query in warm:
        call(modules["cli"], query.argv, meter)
    return (time.perf_counter() - start) * scale, modules, queries


def run_queries(cli, queries, seconds: float, meter: Speedometer,
                tracer=None) -> list:
    """One whole pass over ``queries``, then on in the same order until
    ``seconds`` have elapsed; returns [(query index, seconds, code,
    stdout)]."""
    records = []
    start = time.perf_counter()
    while True:
        for index, query in enumerate(queries):
            if len(records) >= len(queries) and time.perf_counter() - start >= seconds:
                return records
            if tracer is not None:
                tracer.query = index
            records.append((index, *call(cli, query.argv, meter)))


def count_failures(workload: str, queries, records) -> int:
    """Check every recorded output; print the first problems to stderr."""
    check = checks.CHECKS[workload]
    oracles: dict[int, object] = {}
    failed = 0
    for index, _, code, text in records:
        query = queries[index]
        if isinstance(code, str):
            problems = [code]
        else:
            try:
                if index not in oracles:
                    oracles[index] = checks.oracle(query)
                problems = check(query, code, json.loads(text), oracles[index])
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"malformed report: {exc!r}"]
        if problems:
            failed += 1
            if failed <= 5:
                print(f"FAILED {query.family} {' '.join(query.argv)}: "
                      f"{'; '.join(problems)}", file=sys.stderr)
    return failed


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str) -> dict:
    meter = Speedometer()
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds_taken, modules, queries = setup(workload, seed, size, meter)
        setups.append(seconds_taken)
    cli = modules["cli"]
    if not trace:
        records = run_queries(cli, queries, seconds, meter)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # each query counts once, with the median of its rescaled times
        samples: dict[int, list] = {}
        for index, seconds_taken, _, _ in records:
            samples.setdefault(index, []).append(seconds_taken)
        times = [statistics.median(v) for v in samples.values()]
        values = {
            "queries_per_s": len(times) / sum(times),
            "query_s.p50": statistics.median(times),
            "query_s.p90": statistics.quantiles(times, n=10, method="inclusive")[8],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    else:
        # untraced, traced, untraced: the overhead ratio compares the
        # traced pass with the mean of the passes around it
        before = run_queries(cli, queries, 0, meter)
        tracer = tracing.Tracer(modules)
        tracer.install()
        try:
            traced = run_queries(cli, queries, 0, meter, tracer)
        finally:
            tracer.remove()
        after = run_queries(cli, queries, 0, meter)
        records = before + traced + after
        spent = [sum(r[1] for r in rs) for rs in (before, traced, after)]
        values = tracer.metrics(2 * spent[1] / (spent[0] + spent[2]))
        units = {name: unit for name, unit, _ in tracing.METRICS}
        write_spans(workload, seed, size, queries, tracer.spans)
    failed = count_failures(workload, queries, records)
    for name, value in values.items():
        print(f"{name} {value} {units[name]}")
    print(f"failed_ratio {failed / len(records)} ratio")
    print(f"queries {len(records)} count")
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }


def write_spans(workload, seed, size, queries, spans) -> None:
    path = os.path.join(OUT, f"{workload}-{seed}-{size}", "trace.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "fields": ["name", "start", "end", "parent", "query"],
            "queries": [q.argv for q in queries],
            "spans": spans,
        }, handle)


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    results, status = {}, 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} trace={trace}", flush=True)
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--size", args.size],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode or not lines:
                status = 1
                continue
            results[f"{workload}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny: a few small queries, for the smoke tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.size)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
