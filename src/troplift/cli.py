"""Command-line interface.

Exit codes are the machine contract: 0 for a positive verdict, 3 for a
negative one, 2 for malformed or oversized input, 1 for internal errors.
check/lift/verify/oracle write a single JSON object to stdout; bench
writes CSV, or JSON when its output path ends in .json.
"""

from __future__ import annotations

import argparse
import json
import math
import operator
import random
import statistics
import sys
import time
from fractions import Fraction

from troplift import __version__
from troplift.formats import (
    FormatError,
    _parse_ratio,
    loads,
    parse_instance,
    parse_point,
    parse_witness,
    render_series,
    serialize_instance,
    serialize_point,
    serialize_scalar,
    serialize_witness,
)
from troplift.gen import GenConfig, gen_member, gen_point, gen_random
from troplift.lift import (MAX_GRID_SPAN, OversizedEntry, decide,
                           verify_witness)
from troplift.oracle import MAX_ORACLE_COLUMNS, TooLargeError, member_oracle
from troplift.series import (
    INF,
    LaurentPolynomial,
    grid_expand,
    laurent_divexact,
    laurent_gcd,
    to_grid,
)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INPUT = 2
EXIT_NEGATIVE = 3


def _read_json(path, what):
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(str(exc), what)
    return loads(text, what)


def _load_problem(args):
    t0 = time.perf_counter()
    inst = parse_instance(_read_json(args.instance, "instance"))
    point = parse_point(_read_json(args.point, "point"))
    if len(point) != inst.n:
        raise FormatError("point has %d coordinates but the instance has %d "
                          "columns" % (len(point), inst.n), "point.v")
    return inst, point, (time.perf_counter() - t0) * 1000.0


def _cmd_check(args):
    order = None
    if args.expand is not None:
        order = Fraction(*_parse_ratio(args.expand, "--expand"))
    inst, point, parse_ms = _load_problem(args)
    t0 = time.perf_counter()
    try:
        result = decide(inst, point)
    except OversizedEntry as exc:
        raise FormatError(exc.reason, "point." + exc.location) from exc
    decide_ms = (time.perf_counter() - t0) * 1000.0
    out = {"verdict": "member" if result.is_member else "not_member"}
    serialize_ms = 0.0
    if result.is_member:
        t0 = time.perf_counter()
        out["witness"] = [serialize_scalar(x) for x in result.witness]
        serialize_ms = (time.perf_counter() - t0) * 1000.0
        if order is not None:
            _check_order(order, inst, point)
            out["witness_expanded"] = [render_series(x, order)
                                       for x in result.witness]
    else:
        out["reason"] = result.stage
        print("rejected: %s" % result.detail, file=sys.stderr)
    out["timings"] = {"parse_ms": round(parse_ms, 3),
                      "decide_ms": round(decide_ms, 3),
                      "serialize_ms": round(serialize_ms, 3),
                      "total_ms": round(parse_ms + decide_ms + serialize_ms,
                                        3)}
    print(json.dumps(out, indent=2))
    return EXIT_OK if result.is_member else EXIT_NEGATIVE


def _check_order(order, inst, point):
    """Reject an --expand order past MAX_GRID_SPAN steps of the budget's grid.

    The witness lies on a divisor of that grid Q, so each coordinate then
    renders at most 2*MAX_GRID_SPAN + 1 orders.
    """
    q = math.lcm(inst.grid_den, *(c.denominator for c in point if c != INF))
    if abs(order) * q > MAX_GRID_SPAN:
        raise FormatError("order %s lies %s steps of the grid t^(1/%d) from "
                          "0; the limit is %d"
                          % (order, abs(order) * q, q, MAX_GRID_SPAN),
                          "--expand")


def _cmd_verify(args):
    inst, point, _ = _load_problem(args)
    witness = parse_witness(_read_json(args.witness, "witness"))
    if len(witness) != inst.n:
        raise FormatError("witness has %d coordinates but the instance has "
                          "%d columns" % (len(witness), inst.n), "witness.x")
    try:
        ok = verify_witness(inst, point, witness)
    except OversizedEntry as exc:
        raise FormatError(exc.reason, exc.location) from exc
    print(json.dumps({"verified": ok}))
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_oracle(args):
    inst, point, parse_ms = _load_problem(args)
    t0 = time.perf_counter()
    verdict = member_oracle(inst, point, max_cols=args.max_cols)
    oracle_ms = (time.perf_counter() - t0) * 1000.0
    out = {"verdict": "member" if verdict else "not_member",
           "timings": {"parse_ms": round(parse_ms, 3),
                       "oracle_ms": round(oracle_ms, 3)}}
    print(json.dumps(out, indent=2))
    return EXIT_OK if verdict else EXIT_NEGATIVE


def _gen_config(args):
    try:
        return GenConfig(seed=args.seed, m=args.m, n=args.n,
                         terms_per_entry=args.terms, exp_lo=args.exp_lo,
                         exp_hi=args.exp_hi, grid_den=args.grid_den,
                         coeff_bound=args.coeff_bound)
    except ValueError as exc:
        raise FormatError(str(exc), "gen flags")


def _cmd_gen(args):
    cfg = _gen_config(args)
    payload = {}
    if args.member:
        inst, point, planted = gen_member(cfg)
        payload["witness"] = serialize_witness(planted)
    else:
        inst = gen_random(cfg)
        point = gen_point(cfg)
    payload["instance"] = serialize_instance(inst)
    payload["point"] = serialize_point(point)
    if args.output:
        written = []
        for kind in ("instance", "point", "witness"):
            if kind in payload:
                path = "%s.%s.json" % (args.output, kind)
                with open(path, "w") as fh:
                    json.dump(payload[kind], fh, indent=2)
                    fh.write("\n")
                written.append(path)
        print(json.dumps({"written": written}))
    else:
        print(json.dumps(payload, indent=2))
    return EXIT_OK


# Kernel operand sizes (terms, coefficient bits): a small entry, and the
# largest reduced numerators decide builds on the bench generator at n=25
# and n=50.
KERNEL_SIZES = ((40, 26), (121, 144), (254, 363))
# Orders the expansion kernel reads.  `decide` reads orders <= 0 of its
# reduced entries through it, and `check --expand` renders each witness
# coordinate through the order asked for.
KERNEL_EXPANSION_ORDER = 16


# `bench` repeats each seed's decide, and its oracle call, while that
# seed's calls total under BENCH_REPEAT_BUDGET_S, at most
# BENCH_REPEAT_MAX_CALLS times, and keeps the fastest: one cold call of a
# few milliseconds times the machine more than the code.
BENCH_REPEAT_BUDGET_S = 0.1
BENCH_REPEAT_MAX_CALLS = 5


def _fastest(call):
    """call()'s result and its fastest time in ms over the repeats."""
    times = []
    while (sum(times) < BENCH_REPEAT_BUDGET_S
           and len(times) < BENCH_REPEAT_MAX_CALLS):
        t0 = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - t0)
    return result, round(min(times) * 1000.0, 3)


def _bench_rows(sizes, seed, reps, oracle_max_cols):
    """decide (and, within the guard, oracle) times on planted instances."""
    rows = []
    for n in sizes:
        m = max(1, n // 2)
        row = {"n": n, "m": m, "seeds": [], "decide_ms": [], "oracle_ms": []}
        for rep in range(reps):
            cfg = GenConfig(seed=seed + 1000 * rep + n, m=m, n=n,
                            terms_per_entry=3, exp_lo=-5, exp_hi=5,
                            grid_den=1, coeff_bound=9)
            inst, point, _ = gen_member(cfg)
            result, ms = _fastest(lambda: decide(inst, point))
            row["decide_ms"].append(ms)
            row["seeds"].append(cfg.seed)
            if not result.is_member:
                raise RuntimeError("planted bench point was rejected")
            if n + 1 <= oracle_max_cols:
                row["oracle_ms"].append(_fastest(lambda: member_oracle(
                    inst, point, max_cols=oracle_max_cols))[1])
        rows.append(row)
    return rows


def _loglog_slope(points):
    """Least-squares slope of log(y) against log(x); None below two points."""
    if len(points) < 2:
        return None
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    return (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
            / sum((x - xbar) ** 2 for x in xs))


def _kernel_timings(seed, budget_s=0.1):
    """Best-of-3 times of the Laurent kernels on seeded dense pairs (a, b).

    The multiply times a * b; the exact divide splits that product by b;
    the gcd is that of the pair, coprime like most gcds `decide` takes;
    the expansion is a/b at orders 0..KERNEL_EXPANSION_ORDER of t, as
    grid triples (both operands start at t^0).  Each round
    gives every row one window of `budget_s` in turn, and a row keeps its
    best window, so a stall of the machine costs one window of one round
    rather than all windows of one row.
    """
    rng = random.Random(seed)

    def operand(terms, bits):
        return LaurentPolynomial.from_terms(
            {i: rng.choice((1, -1)) * (rng.getrandbits(bits - 1)
                                        | 1 << (bits - 1))
             for i in range(terms)})

    pairs = [(terms, bits, operand(terms, bits), operand(terms, bits))
             for terms, bits in KERNEL_SIZES]
    kernels = (("LaurentPolynomial.__mul__", lambda a, b: (operator.mul, a, b)),
               ("laurent_divexact", lambda a, b: (laurent_divexact, a * b, b)),
               ("laurent_gcd", lambda a, b: (laurent_gcd, a, b)),
               ("grid_expand",
                lambda a, b: (grid_expand, to_grid(b, 1, 1),
                              [(to_grid(a, 1, 1), 0,
                                KERNEL_EXPANSION_ORDER)])))
    rows = [({"op": name, "terms": terms, "bits": bits}, call(a, b))
            for name, call in kernels for terms, bits, a, b in pairs]
    best = [math.inf] * len(rows)
    for _ in range(3):
        for k, (_, (op, *args)) in enumerate(rows):
            calls = 0
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < budget_s:
                op(*args)
                calls += 1
            best[k] = min(best[k], (time.perf_counter() - t0) / calls)
    return [dict(row, ms=round(b * 1000.0, 4))
            for (row, _), b in zip(rows, best)]


def _cmd_bench(args):
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        raise FormatError("sizes must be a comma-separated integer list",
                          "bench --sizes")
    if not sizes or any(s < 1 for s in sizes):
        raise FormatError("sizes must be positive", "bench --sizes")
    if args.reps < 1:
        raise FormatError("reps must be positive", "bench --reps")
    rows = _bench_rows(sizes, args.seed, args.reps, args.oracle_max_cols)
    if args.output and args.output.endswith(".json"):
        for row in rows:
            row["decide_ms_median"] = statistics.median(row["decide_ms"])
            row["oracle_ms_median"] = (statistics.median(row["oracle_ms"])
                                       if row["oracle_ms"] else None)
        report = {
            "generator": {"m": "max(1, n // 2)", "terms_per_entry": 3,
                          "exp_lo": -5, "exp_hi": 5, "coeff_bound": 9,
                          "seed": "%d + 1000*rep + n" % args.seed},
            "rows": rows,
            "loglog_slope": _loglog_slope(
                [(r["n"], r["decide_ms_median"]) for r in rows]),
            "kernels": _kernel_timings(args.seed),
        }
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        return EXIT_OK
    lines = ["n,m,decide_ms,oracle_ms"]
    for row in rows:
        oracle_ms = ("%.3f" % statistics.median(row["oracle_ms"])
                     if row["oracle_ms"] else "skipped")
        lines.append("%d,%d,%.3f,%s" % (row["n"], row["m"],
                                        statistics.median(row["decide_ms"]),
                                        oracle_ms))
    table = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(table)
    else:
        sys.stdout.write(table)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="troplift",
        description="Decide whether a rational point lies in the tropical "
                    "linear variety of A*x = b over Puiseux series, with an "
                    "exact witness on yes.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_flags(p):
        p.add_argument("-i", "--instance", required=True,
                       help="instance JSON file")
        p.add_argument("-p", "--point", required=True, help="point JSON file")

    for name in ("check", "lift"):
        p = sub.add_parser(name, help="decide membership and emit a witness")
        add_problem_flags(p)
        p.add_argument("--expand", metavar="E", default=None,
                       help="also render witness expansions through order E, "
                            "an exact rational such as 3 or 7/2")
        p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify", help="check a witness file exactly")
    add_problem_flags(p)
    p.add_argument("-w", "--witness", required=True, help="witness JSON file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="brute-force verdict (exponential)")
    add_problem_flags(p)
    p.add_argument("--max-cols", type=int, default=MAX_ORACLE_COLUMNS,
                   help="enumeration guard (default %d)" % MAX_ORACLE_COLUMNS)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="generate instance/point files")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--member", action="store_true",
                   help="plant a solution and emit its point and witness")
    p.add_argument("--terms", type=int, default=3)
    p.add_argument("--exp-lo", type=int, default=-3)
    p.add_argument("--exp-hi", type=int, default=3)
    p.add_argument("--grid-den", type=int, default=1)
    p.add_argument("--coeff-bound", type=int, default=9)
    p.add_argument("-o", "--output", metavar="PREFIX",
                   help="write PREFIX.instance.json / PREFIX.point.json "
                        "(and PREFIX.witness.json with --member)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench",
                       help="time decide against the brute-force oracle")
    p.add_argument("--sizes", default="25,50,100,200",
                   help="comma-separated column counts")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--oracle-max-cols", type=int, default=MAX_ORACLE_COLUMNS)
    p.add_argument("-o", "--output",
                   help="output path; JSON when it ends in .json, else CSV "
                        "(default: CSV on stdout)")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, TooLargeError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # pragma: no cover - defect path
        print("internal error: %s: %s" % (type(exc).__name__, exc),
              file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
