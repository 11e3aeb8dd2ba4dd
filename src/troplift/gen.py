"""Deterministic, seeded generation of test instances and points."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from troplift.lift import MAX_GRID_SPAN, Instance
from troplift.series import INF, LaurentPolynomial, PuiseuxFraction

__all__ = ["GenConfig", "gen_random", "gen_member", "gen_point", "perturb_point"]


@dataclass(frozen=True)
class GenConfig:
    """Shape and coefficient ranges for random instances.

    Exponents are drawn as k/grid_den with k an integer in
    [exp_lo, exp_hi]; coefficients are fractions with numerator and
    denominator bounded by coeff_bound.  A planted right-hand side
    b = A*x reaches twice as far as the exponents, so the range must keep
    2*max(|exp_lo|, |exp_hi|) within MAX_GRID_SPAN steps of t^(1/grid_den).
    """

    seed: int
    m: int
    n: int
    terms_per_entry: int = 3
    exp_lo: int = -3
    exp_hi: int = 3
    grid_den: int = 1
    coeff_bound: int = 9

    def __post_init__(self):
        if self.m < 1 or self.n < 1 or self.m > self.n:
            raise ValueError("need 1 <= m <= n")
        if self.exp_lo > self.exp_hi:
            raise ValueError("empty exponent range")
        reach = 2 * max(abs(self.exp_lo), abs(self.exp_hi))
        if reach > MAX_GRID_SPAN:
            raise ValueError("exponents %d..%d reach %d grid steps in b = A*x; "
                             "the limit is %d" % (self.exp_lo, self.exp_hi,
                                                  reach, MAX_GRID_SPAN))
        if self.grid_den < 1 or self.coeff_bound < 1 or self.terms_per_entry < 0:
            raise ValueError("bounds must be positive")


def _coefficient(rng, cfg):
    num = rng.randint(1, cfg.coeff_bound) * rng.choice((1, -1))
    return Fraction(num, rng.randint(1, cfg.coeff_bound))


def _laurent(rng, cfg, min_terms=0):
    count = rng.randint(min_terms, max(min_terms, cfg.terms_per_entry))
    terms = {}
    for _ in range(count):
        e = Fraction(rng.randint(cfg.exp_lo, cfg.exp_hi), cfg.grid_den)
        terms[e] = terms.get(e, 0) + _coefficient(rng, cfg)
    return LaurentPolynomial.from_terms(terms)


def _scalar(rng, cfg, min_terms=0):
    return PuiseuxFraction(_laurent(rng, cfg, min_terms))


def gen_random(cfg):
    """Random instance with Laurent-polynomial entries; deterministic per seed."""
    rng = random.Random(cfg.seed)
    rows = [[_scalar(rng, cfg) for _ in range(cfg.n)] for _ in range(cfg.m)]
    rhs = [_scalar(rng, cfg) for _ in range(cfg.m)]
    return Instance.from_rows(rows, rhs)


def gen_member(cfg):
    """Instance plus a point guaranteed to lie in its valuation image.

    Draws A and a nonzero solution x*, sets b := A*x* and v := the
    valuation vector of x*.  Coordinates of x* are occasionally zero, so
    v exercises INF handling.
    """
    rng = random.Random(cfg.seed)
    rows = tuple(tuple(_scalar(rng, cfg) for _ in range(cfg.n))
                 for _ in range(cfg.m))
    planted = [_scalar(rng, cfg) if rng.random() < 0.9 else PuiseuxFraction.zero()
               for _ in range(cfg.n)]
    if not any(planted):
        planted[rng.randrange(cfg.n)] = _scalar(rng, cfg, min_terms=1)
    rhs = []
    for row in rows:
        acc = PuiseuxFraction.zero()
        for a, xi in zip(row, planted):
            if a and xi:
                acc = acc + a * xi
        rhs.append(acc)
    inst = Instance(rows, tuple(rhs))
    v = tuple(x.valuation() for x in planted)
    return inst, v, tuple(planted)


def gen_point(cfg, n=None):
    """Random target point, mostly finite with occasional INF coordinates."""
    rng = random.Random(cfg.seed ^ 0x9E3779B97F4A7C15)
    n = cfg.n if n is None else n
    coords = []
    for _ in range(n):
        if rng.random() < 0.06:
            coords.append(INF)
        else:
            coords.append(Fraction(rng.randint(2 * cfg.exp_lo, 2 * cfg.exp_hi),
                                   rng.randint(1, cfg.grid_den)))
    return tuple(coords)


def perturb_point(v, column, delta):
    """Shift one finite coordinate by a rational delta."""
    coords = list(v)
    if coords[column] == INF:
        raise ValueError("cannot perturb an infinite coordinate")
    coords[column] = Fraction(coords[column]) + Fraction(delta)
    return tuple(coords)
