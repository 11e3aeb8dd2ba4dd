"""The benchmark's workloads: seeded inputs, the request each case makes, its check.

Every case is serialized once, at set-up, to the JSON text a `troplift check`
(or `troplift oracle`) caller would send; the request parses that text,
runs the program and serializes the answer.  The checks read the answer
back and judge it against the original, never-serialized instance.

Inputs come in cycles.  A cycle visits every stratum of the workload's
recipe (size, grid, kind of point) once, in a fixed order, so a run of any
length sees the same mix whatever the seed; the seed draws only the
entries of each case.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter
from typing import Callable

import troplift.formats as formats
import troplift.lift as lift
import troplift.oracle as oracle
from troplift.gen import GenConfig, gen_member, gen_point, gen_random, perturb_point
from troplift.lift import Instance, verify_witness
from troplift.series import INF, LaurentPolynomial, PuiseuxFraction

STAGES = frozenset({lift.STAGE_INFEASIBLE, lift.STAGE_EMPTY_CLASS,
                    lift.STAGE_SYSTEM3, lift.STAGE_FAMILY_L})

# Kinds of point in the criterion-1 recipe.
RANDOM, PLANTED, PERTURBED = 0, 1, 2


@dataclass(frozen=True)
class Case:
    n: int
    planted: bool
    instance: Instance
    point: tuple
    instance_text: str
    point_text: str


def _case(n, planted, inst, point):
    return Case(n=n, planted=planted, instance=inst, point=point,
                instance_text=json.dumps(formats.serialize_instance(inst)),
                point_text=json.dumps(formats.serialize_point(point)))


# -- generators ------------------------------------------------------------

PLANTED_SIZES = (8, 12, 16)


def _dense_scalar(rng):
    """Exactly 3 terms, distinct exponents in -5..5, coefficients as in gen."""
    terms = {}
    for e in rng.sample(range(-5, 6), 3):
        terms[e] = Fraction(rng.randint(1, 9) * rng.choice((1, -1)),
                            rng.randint(1, 9))
    return PuiseuxFraction(LaurentPolynomial.from_terms(terms))


def _dense_planted(seed, n):
    """m = n/2 planted instance with every entry and coordinate 3 terms."""
    rng = random.Random(seed)
    rows = [[_dense_scalar(rng) for _ in range(n)] for _ in range(n // 2)]
    planted = [_dense_scalar(rng) for _ in range(n)]
    rhs = []
    for row in rows:
        acc = PuiseuxFraction.zero()
        for a, x in zip(row, planted):
            acc = acc + a * x
        rhs.append(acc)
    inst = Instance.from_rows(rows, rhs)
    return inst, tuple(x.valuation() for x in planted)


def planted_cycle(rng):
    cases = []
    for n in PLANTED_SIZES:
        inst, point = _dense_planted(rng.getrandbits(48), n)
        cases.append(_case(n, True, inst, point))
    return cases


def _strata(sizes):
    """(n, m, grid_den, kind) for every stratum, in a fixed shuffled order."""
    strata = [(n, m, grid_den, kind)
              for n in sizes
              for m in range(1, min(4, n) + 1)
              for grid_den in (1, 2, 3)
              for kind in (RANDOM, PLANTED, PERTURBED)]
    random.Random(0).shuffle(strata)
    return tuple(strata)


def _recipe_case(rng, n, m, grid_den, kind):
    """One criterion-1 case: random, planted, or planted then perturbed."""
    cfg = GenConfig(seed=rng.getrandbits(48), m=m, n=n, terms_per_entry=3,
                    exp_lo=-3, exp_hi=3, grid_den=grid_den, coeff_bound=9)
    if kind == RANDOM:
        return _case(n, False, gen_random(cfg), gen_point(cfg))
    inst, point, _ = gen_member(cfg)
    finite = [j for j, c in enumerate(point) if c != INF]
    if kind == PERTURBED and finite:
        delta = Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
        return _case(n, False, inst,
                     perturb_point(point, rng.choice(finite), delta))
    return _case(n, True, inst, point)


MIXED_STRATA = _strata(range(2, 8))
ORACLE_STRATA = _strata((5, 6))


def mixed_cycle(rng):
    return [_recipe_case(rng, *s) for s in MIXED_STRATA]


def oracle_cycle(rng):
    return [_recipe_case(rng, *s) for s in ORACLE_STRATA]


# -- requests --------------------------------------------------------------

def _parse(case):
    inst = formats.parse_instance(formats.loads(case.instance_text, "instance"))
    point = formats.parse_point(formats.loads(case.point_text, "point"))
    return inst, point


def check_request(case):
    """What `troplift check` does: parse, decide, serialize the answer.

    Returns the response text and the seconds spent in `decide`.
    """
    inst, point = _parse(case)
    start = perf_counter()
    result = lift.decide(inst, point)
    decide_s = perf_counter() - start
    if result.is_member:
        out = {"verdict": "member",
               "witness": formats.serialize_witness(result.witness)["x"]}
    else:
        out = {"verdict": "not_member", "reason": result.stage}
    return json.dumps(out), decide_s


def oracle_request(case):
    """What `troplift oracle` does: parse, enumerate circuits, answer."""
    inst, point = _parse(case)
    verdict = oracle.member_oracle(inst, point)
    return json.dumps({"verdict": "member" if verdict else "not_member"}), None


# -- checks ----------------------------------------------------------------

def _judge(case, verdict, witness, reason):
    """Failure message for one answer, or None when it is right."""
    if verdict == "member":
        if not verify_witness(case.instance, case.point, witness):
            return "witness does not verify"
        return None
    if case.planted:
        return "planted point rejected (%s)" % reason
    if reason not in STAGES:
        return "rejection names no stage: %r" % (reason,)
    return None


def check_answer(case, response, measured=nullcontext):
    """Judge a `troplift check` answer as its caller reads it."""
    out = json.loads(response)
    if out["verdict"] not in ("member", "not_member"):
        return "unknown verdict %r" % (out["verdict"],)
    witness = None
    if out["verdict"] == "member":
        witness = formats.parse_witness({"x": out["witness"]})
    return _judge(case, out["verdict"], witness, out.get("reason"))


def check_oracle_answer(case, response, measured=nullcontext):
    """The oracle's verdict must match `decide` on the same case.

    `measured` wraps the cross-check `decide`, so a traced run counts its
    layers, while the request time holds the oracle alone.
    """
    oracle_member = json.loads(response)["verdict"] == "member"
    with measured():
        result = lift.decide(case.instance, case.point)
    if result.is_member != oracle_member:
        return "decide says %s, oracle says %s" % (result.is_member,
                                                   oracle_member)
    if result.is_member:
        return _judge(case, "member", result.witness, None)
    return _judge(case, "not_member", None, result.stage)


@dataclass(frozen=True)
class Workload:
    name: str
    make_cycle: Callable
    request: Callable
    check: Callable
    cycles: int           # whole cycles of cases in one run


WORKLOADS = {
    w.name: w for w in (
        Workload("planted-scaling", planted_cycle, check_request,
                 check_answer, cycles=5),
        Workload("mixed-small", mixed_cycle, check_request, check_answer,
                 cycles=4),
        Workload("oracle-xval", oracle_cycle, oracle_request,
                 check_oracle_answer, cycles=2),
    )
}
