"""troplift benchmark: one workload, closed loop, one request at a time.

    python3 perfbench/run.py --workload mixed-small --seed 1 --seconds 30 --trace 0

Run from anywhere inside a troplift checkout; the program is imported from
the checkout's `src/` directory and nowhere else.  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With `--trace 0` the metrics are the end-to-end ones of
BENCHMARK.json, timed against a machine-speed probe (see speed.py), and
the line before reports the workload-specific extras (tail latency,
scaling slope, error rate).  With `--trace 1` the run's cases are sent
once untraced and once traced, in wall time, and the metrics are the
per-layer ones.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe, WallClock

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 20261018
HELD_OUT_SEED = 73517
SETUP_REPEATS = 3
SHOWN_FAILURES = 5


def _import_program():
    """Import troplift from this checkout's src/ (and nothing else)."""
    src = ROOT / "src"
    if not (src / "troplift" / "__init__.py").is_file():
        raise SystemExit("perfbench: no troplift sources under %s" % src)
    sys.path.insert(0, str(src))
    import troplift
    import workloads

    if Path(troplift.__file__).resolve().parent != src / "troplift":
        raise SystemExit("perfbench: imported troplift from %s"
                         % troplift.__file__)
    return workloads


def _workload(workloads, name):
    if name not in workloads.WORKLOADS:
        raise SystemExit("perfbench: unknown workload %r (known: %s)"
                         % (name, ", ".join(workloads.WORKLOADS)))
    return workloads.WORKLOADS[name]


def build_inputs(workload, seed):
    """The run's cases: the workload's whole cycles, drawn from the seed."""
    rng = random.Random("%s/%d" % (workload.name, seed))
    cases = []
    for _ in range(workload.cycles):
        cases.extend(workload.make_cycle(rng))
    return cases


def run_requests(workload, cases, clock, seconds=0.0, tracer=None):
    """Closed loop over the cases; returns one (case, s, decide_s, failure) each.

    The first pass sends every case once and checks every answer.  Further
    passes send them all again, in order, while another pass as long as the
    last one still ends within `seconds`; a case keeps its fastest time.
    Times come from `clock`.  A case fails when a request raises, a repeat
    answers differently, or the answer fails its check.
    """
    measured = (lambda: tracer.root("xcheck")) if tracer else nullcontext
    request_root = (lambda: tracer.root("request")) if tracer else nullcontext

    def send(case):
        """(response, time in clock units, share of the time in decide)."""
        mark = clock.start()
        start = perf_counter()
        with request_root():
            response, decide_s = workload.request(case)
        raw = perf_counter() - start
        net, level = clock.since(mark)
        share = None if decide_s is None else decide_s / raw
        return response, net / level, share

    started = perf_counter()
    records = []  # [case, clock units, decide share, failure, response]
    for case in cases:
        try:
            response, units, share = send(case)
            failure = workload.check(case, response, measured)
        except Exception as exc:  # a crashing request is a counted failure
            response, units, share = None, math.inf, None
            failure = "raised %s: %s" % (type(exc).__name__, exc)
        records.append([case, units, share, failure, response])
    last = perf_counter() - started
    while perf_counter() - started + last <= seconds:
        pass_started = perf_counter()
        for record in records:
            if record[3] is not None:
                continue
            try:
                response, units, share = send(record[0])
            except Exception as exc:  # counted as in the first pass
                record[3] = "repeat raised %s: %s" % (type(exc).__name__, exc)
                continue
            if response != record[4]:
                record[3] = "a repeat answered differently"
            if units < record[1]:
                record[1], record[2] = units, share
        last = perf_counter() - pass_started
    unit = clock.reference
    return [(case, units * unit,
             None if share is None else units * unit * share, failure)
            for case, units, share, failure, _ in records]


def _loglog_slope(records):
    by_n = {}
    for case, _, decide_s, failure in records:
        if decide_s is not None and failure is None:
            by_n.setdefault(case.n, []).append(decide_s)
    if len(by_n) < 2:
        return None
    xs = [math.log(n) for n in by_n]
    ys = [math.log(statistics.median(v)) for v in by_n.values()]
    xbar = statistics.fmean(xs)
    ybar = statistics.fmean(ys)
    return (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
            / sum((x - xbar) ** 2 for x in xs))


def end_to_end(records, setup_s):
    ok = [elapsed for _, elapsed, _, failure in records if failure is None]
    failed = len(records) - len(ok)
    metrics = {
        "cases_per_s": (len(ok) / sum(ok) if ok else 0.0, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extras = {"requests": (len(records), "count"),
              "error_rate": (failed / len(records), "ratio")}
    if ok:
        extras["request_p50_ms"] = (1000.0 * statistics.median(ok), "ms")
    if len(ok) >= 200:
        extras["request_p95_ms"] = (
            1000.0 * statistics.quantiles(ok, n=20)[-1], "ms")
    slope = _loglog_slope(records)
    if slope is not None:
        extras["decide_loglog_slope"] = (slope, "1")
    return metrics, extras


def _measure(workload_name, seed, seconds, limit):
    """End-to-end run: set-up timed SETUP_REPEATS times, then the passes."""
    with SpeedProbe() as clock:
        mark = clock.start()
        workload = _workload(_import_program(), workload_name)
        net, level = clock.since(mark)
        import_units = net / level
        build_units = []
        for _ in range(SETUP_REPEATS):
            mark = clock.start()
            cases = build_inputs(workload, seed)[:limit]
            net, level = clock.since(mark)
            build_units.append(net / level)
        records = run_requests(workload, cases, clock, seconds=seconds)
        setup_s = ((import_units + statistics.median(build_units))
                   * clock.reference)
    metrics, extras = end_to_end(records, setup_s)
    extras["probe_p50_ms"] = (1000.0 * statistics.median(clock.samples), "ms")
    return metrics, extras, records


def _trace(workload_name, seed, limit):
    """Per-layer run: the cases once untraced, then once traced."""
    workload = _workload(_import_program(), workload_name)
    from tracing import Tracer

    clock = WallClock()
    cases = build_inputs(workload, seed)[:limit]
    plain = run_requests(workload, cases, clock)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_requests(workload, cases, clock, tracer=tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    plain_rate = len(plain) / sum(r[1] for r in plain)
    traced_rate = len(traced) / sum(r[1] for r in traced)
    metrics["trace.overhead_cases_per_s"] = (traced_rate - plain_rate, "1/s")
    extras = {"untraced_cases_per_s": (plain_rate, "1/s"),
              "traced_cases_per_s": (traced_rate, "1/s")}
    return metrics, extras, plain + traced


def run(workload_name, seed, seconds, trace, limit=None):
    """Run one workload; returns the result object printed as the last line."""
    if trace:
        metrics, extras, records = _trace(workload_name, seed, limit)
    else:
        metrics, extras, records = _measure(workload_name, seed, seconds, limit)
    failures = [r[3] for r in records if r[3] is not None]
    for message in failures[:SHOWN_FAILURES]:
        print("perfbench: failed request: %s" % message, file=sys.stderr)
    report = {"workload": workload_name, "seed": seed, "trace": int(trace),
              "extras": {k: {"value": v, "unit": u}
                         for k, (v, u) in extras.items()}}
    print(json.dumps(report))
    return {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="draws the inputs (default %d; re-check claims "
                             "on the held-out seed %d)"
                             % (DEFAULT_SEED, HELD_OUT_SEED))
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None,
                        help="send only the first N cases (for tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or (args.limit is not None and args.limit < 1):
        parser.error("--seconds and --limit must be positive")
    result = run(args.workload, args.seed, args.seconds, args.trace, args.limit)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
