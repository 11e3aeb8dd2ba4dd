"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see the lines
for passing criteria).  Seeds are fixed; every check is exact.
"""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

import troplift
from troplift.gen import GenConfig, gen_member, gen_point, gen_random, perturb_point
from troplift.lift import (
    Instance,
    Member,
    NotMember,
    STAGE_FAMILY_L,
    STAGE_SYSTEM3,
    decide,
    permute_columns,
    regrid_instance,
    regrid_point,
    verify_witness,
)
from troplift.oracle import member_oracle
from troplift.series import INF, PuiseuxFraction, valuation


def report(criterion, ok, detail):
    line = "criterion %d %s: %s" % (criterion, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def px(terms):
    return PuiseuxFraction.from_terms(terms)


ONE = PuiseuxFraction.one()
ZERO = PuiseuxFraction.zero()
T = PuiseuxFraction.t_power(1)


# -- shared case pools ---------------------------------------------------------

@pytest.fixture(scope="session")
def mixed_pool():
    """300 (instance, point) pairs mixing random, planted and perturbed points."""
    rng = random.Random(20240901)
    cases = []
    t0 = time.perf_counter()
    for i in range(300):
        n = rng.randint(2, 7)
        m = rng.randint(1, min(4, n))
        cfg = GenConfig(seed=10_000 + i, m=m, n=n, terms_per_entry=3,
                        exp_lo=-3, exp_hi=3, grid_den=rng.randint(1, 3),
                        coeff_bound=9)
        kind = i % 3
        if kind == 0:
            inst = gen_random(cfg)
            point = gen_point(cfg)
        elif kind == 1:
            inst, point, _ = gen_member(cfg)
        else:
            inst, point, _ = gen_member(cfg)
            finite = [j for j, c in enumerate(point) if c != INF]
            if finite:
                j = rng.choice(finite)
                delta = F(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3))
                point = perturb_point(point, j, delta)
        result = decide(inst, point)
        oracle = member_oracle(inst, point)
        cases.append((inst, point, result, oracle))
    elapsed = time.perf_counter() - t0
    return cases, elapsed


@pytest.fixture(scope="session")
def planted_pool():
    """1000 planted instances with n up to 30 and m up to 15."""
    rng = random.Random(777)
    outcomes = []
    for i in range(1000):
        n = rng.randint(2, 30)
        m = rng.randint(1, min(15, n))
        cfg = GenConfig(seed=50_000 + i, m=m, n=n, terms_per_entry=2,
                        exp_lo=-2, exp_hi=2, grid_den=rng.choice((1, 2)),
                        coeff_bound=9)
        inst, point, _ = gen_member(cfg)
        result = decide(inst, point)
        verified = result.is_member and verify_witness(inst, point,
                                                       result.witness)
        sweeps = result.sweeps if result.is_member else ()
        outcomes.append((result.is_member, verified, sweeps))
    return outcomes


def test_criterion_1_oracle_equivalence(mixed_pool):
    cases, elapsed = mixed_pool
    disagreements = sum(1 for _, _, result, oracle in cases
                        if result.is_member != oracle)
    ok = disagreements == 0 and elapsed < 300.0
    report(1, ok, "decide matched the brute-force oracle on %d/300 mixed "
                  "pairs in %.1fs (budget 300s)"
           % (300 - disagreements, elapsed))


def test_criterion_2_soundness(mixed_pool, planted_pool):
    cases, _ = mixed_pool
    bad = 0
    members = 0
    for inst, point, result, _ in cases:
        if result.is_member:
            members += 1
            if not verify_witness(inst, point, result.witness):
                bad += 1
    planted_members = sum(1 for is_member, _, _ in planted_pool if is_member)
    bad += sum(1 for is_member, verified, _ in planted_pool
               if is_member and not verified)
    members += planted_members
    report(2, bad == 0, "%d member results, all witnesses exact "
                        "(A*x=b and valuations, zero tolerance)" % members)


def test_criterion_3_planted_completeness(planted_pool):
    accepted = sum(1 for is_member, _, _ in planted_pool if is_member)
    report(3, accepted == 1000,
           "%d/1000 planted instances accepted" % accepted)


def test_criterion_4_fixture_exactness():
    w1 = Instance.from_rows([[ONE, T]], [ONE])
    w2 = Instance.from_rows([[ONE, ONE, ONE]], [ZERO])
    w3 = Instance.from_rows([[ONE, px({-1: 1, 0: 1})]], [ONE])
    w4 = Instance.from_rows([[ONE, px({-1: 1, 0: 1}), px({-1: 1})]], [ONE])

    checks = []
    checks.append(decide(w1, (0, 0)) == Member((px({0: 1, 1: -1}), ONE)))
    checks.append(decide(w1, (1, 0)) == NotMember(STAGE_SYSTEM3))
    checks.append(decide(w1, (3, -1))
                  == Member((px({3: 1}), px({-1: 1, 2: -1}))))
    checks.append(decide(w2, (0, 0, 0)) == Member((px({0: -2}), ONE, ONE)))
    checks.append(decide(w3, (0, 0)) == NotMember(STAGE_FAMILY_L))
    w4_result = decide(w4, (0, 0, 0))
    checks.append(w4_result.is_member
                  and verify_witness(w4, (0, 0, 0), w4_result.witness))
    # deterministic first-passing-candidate rule
    checks.append(all(decide(w4, (0, 0, 0)) == w4_result for _ in range(3)))
    report(4, all(checks),
           "worked instances reproduce the stated verdicts, stages and "
           "witnesses (%d/7 checks)" % sum(checks))


def test_criterion_5_sweep_bound(mixed_pool, planted_pool):
    violations = 0
    total = 0
    for _, _, result, _ in mixed_pool[0]:
        if result.is_member:
            for stats in result.sweeps:
                total += 1
                if not (stats.chosen_p
                        <= stats.family_size * stats.dim + 1 == stats.bound):
                    violations += 1
    for is_member, _, sweeps in planted_pool:
        for stats in sweeps:
            total += 1
            if not (stats.chosen_p
                    <= stats.family_size * stats.dim + 1 == stats.bound):
                violations += 1
    report(5, violations == 0,
           "%d sweeps, first passing candidate within |family|*dim+1 in all"
           % total)


def test_criterion_6_metamorphic_invariances():
    rng = random.Random(4242)
    grid_failures = 0
    perm_failures = 0
    for i in range(100):
        n = rng.randint(2, 6)
        m = rng.randint(1, min(3, n))
        cfg = GenConfig(seed=90_000 + i, m=m, n=n, terms_per_entry=2,
                        exp_lo=-2, exp_hi=2, grid_den=rng.choice((1, 2)),
                        coeff_bound=7)
        if i % 2:
            inst, point, _ = gen_member(cfg)
        else:
            inst = gen_random(cfg)
            point = gen_point(cfg)
        base = decide(inst, point)
        for factor in (2, 3):
            scaled = decide(regrid_instance(inst, factor),
                            regrid_point(point, factor))
            if scaled.is_member != base.is_member:
                grid_failures += 1
            elif base.is_member:
                regridded = tuple(x.substitute_power(factor)
                                  for x in base.witness)
                if not verify_witness(regrid_instance(inst, factor),
                                      regrid_point(point, factor), regridded):
                    grid_failures += 1
        perm = list(range(inst.n))
        rng.shuffle(perm)
        pinst = permute_columns(inst, perm)
        ppoint = tuple(point[p] for p in perm)
        permuted = decide(pinst, ppoint)
        if permuted.is_member != base.is_member:
            perm_failures += 1
        elif base.is_member and not verify_witness(
                pinst, ppoint, tuple(base.witness[p] for p in perm)):
            perm_failures += 1
    ok = grid_failures == 0 and perm_failures == 0
    report(6, ok, "100 grid-equivariance and 100 permutation cases, "
                  "%d/%d failures" % (grid_failures, perm_failures))


PROBE_SNIPPET = """
import json, sys, time
from troplift.gen import GenConfig, gen_member
from troplift.lift import decide
n, m, seed = map(int, sys.argv[1:4])
cfg = GenConfig(seed=seed, m=m, n=n, terms_per_entry=3, exp_lo=-5, exp_hi=5,
                grid_den=1, coeff_bound=9)
inst, point, _ = gen_member(cfg)
t0 = time.perf_counter()
result = decide(inst, point)
print(json.dumps({"ms": (time.perf_counter() - t0) * 1000.0,
                  "member": result.is_member}))
"""


def _probe_decide(n, seed, timeout_s):
    # the probe imports the troplift these tests import, however it was found
    src = os.path.dirname(os.path.dirname(troplift.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", PROBE_SNIPPET, str(n), str(max(1, n // 2)),
             str(seed)],
            capture_output=True, timeout=timeout_s, text=True,
            env=dict(os.environ, PYTHONPATH=path))
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        raise RuntimeError("probe failed: %s" % proc.stderr)
    payload = json.loads(proc.stdout)
    assert payload["member"]
    return payload["ms"]


def test_criterion_7_scaling_trend(tmp_path):
    from troplift.cli import main as cli_main

    # small-size bench table: records the brute-force oracle blowing up
    # while decide stays flat
    csv_path = tmp_path / "bench.csv"
    assert cli_main(["bench", "--sizes", "4,6,8,10,12", "--seed", "31",
                     "--reps", "1", "-o", str(csv_path)]) == 0
    rows = [line.split(",") for line in
            csv_path.read_text().strip().splitlines()[1:]]
    oracle_ms = [float(r[3]) for r in rows]
    decide_ms_small = [float(r[2]) for r in rows]
    contrast = (oracle_ms[-1] / max(oracle_ms[0], 1e-9)
                > 4 * decide_ms_small[-1] / max(decide_ms_small[0], 1e-9))

    sizes = (25, 50, 100, 200)
    reps = {25: 3, 50: 3, 100: 1, 200: 1}
    medians = {}
    for n in sizes:
        times = []
        for rep in range(reps[n]):
            ms = _probe_decide(n, seed=31_000 + 17 * rep + n, timeout_s=130)
            if ms is None:
                times = None
                break
            times.append(ms)
        if times is None:
            medians[n] = None
        else:
            times.sort()
            medians[n] = times[len(times) // 2]

    completed = {n: ms for n, ms in medians.items() if ms is not None}
    slope = None
    if len(completed) >= 2:
        import math

        xs = [math.log(n) for n in completed]
        ys = [math.log(ms) for ms in completed.values()]
        xbar = sum(xs) / len(xs)
        ybar = sum(ys) / len(ys)
        slope = (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
                 / sum((x - xbar) ** 2 for x in xs))

    ok = (medians[200] is not None and medians[200] <= 120_000.0
          and slope is not None and slope < 4 and contrast)
    detail = ", ".join(
        "n=%d: %s" % (n, "timeout>130s" if medians[n] is None
                      else "%.0fms" % medians[n]) for n in sizes)
    detail += ("; log-log slope %s (need <4); oracle/decide contrast %s"
               % ("%.2f" % slope if slope is not None else "n/a", contrast))
    report(7, ok, detail)


def test_criterion_8_scalar_suite():
    rng = random.Random(88)
    from troplift.series import LaurentPolynomial

    def rand_poly(nonzero=False):
        terms = {}
        for _ in range(rng.randint(1 if nonzero else 0, 3)):
            e = F(rng.randint(-6, 6), rng.randint(1, 3))
            terms[e] = terms.get(e, 0) + F(rng.randint(-9, 9),
                                           rng.randint(1, 9))
        poly = LaurentPolynomial.from_terms(terms)
        while nonzero and poly.is_zero:
            poly = rand_poly(True)
        return poly

    def rand_scalar(nonzero=False):
        return PuiseuxFraction(rand_poly(nonzero), rand_poly(True))

    failures = 0
    for _ in range(10_000):
        a = rand_scalar(nonzero=True)
        b = rand_scalar(nonzero=True)
        if valuation(a * b) != valuation(a) + valuation(b):
            failures += 1
        c = rand_scalar()
        vs = valuation(a + c)
        va, vc = valuation(a), valuation(c)
        if vs < min(va, vc) or (va != vc and vs != min(va, vc)):
            failures += 1
        if (a * b) / b != a:
            failures += 1
    report(8, failures == 0,
           "10000 iterations of valuation additivity, ultrametric "
           "inequality and mul/div round-trips, %d failures" % failures)
