"""Differential test of the scalar kernels against sympy.

Seeded Laurent polynomials on the grids t^(1/1), t^(1/2) and t^(1/3) are
written as s**k * F(s), with s = t^(1/Q) for Q the lcm of a pair's grids
and F a sympy polynomial with a nonzero constant term.  Every result of
`+`, `*`, `laurent_gcd`, `laurent_divexact` and the reduction of
`PuiseuxFraction(a, b)` is compared with sympy's polynomial arithmetic,
`gcd` and `div`, and every expansion `series_coefficients` and
`grid_expand` give with sympy's power series of F_a/F_b
(`sympy.polys.ring_series`).  sympy is a test-only dependency.  One seed
draws wide operands, whose products' coefficients pass
KRONECKER_DIVIDE_MAX_BITS, and one wide operands with small ends, whose
root bounds are large in both orientations.  Every pair the coprimality
certificate `_coprime_at` passes has a sympy gcd of degree 0.
"""

import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

sympy = pytest.importorskip("sympy")

from sympy.polys.ring_series import (  # noqa: E402
    rs_mul,
    rs_series_inversion,
)
from sympy.polys.rings import ring  # noqa: E402

from troplift import series  # noqa: E402
from troplift.series import (  # noqa: E402
    LaurentPolynomial,
    PuiseuxFraction,
    grid_expand,
    laurent_divexact,
    laurent_gcd,
    to_grid,
)

S = sympy.Symbol("s")


def draw(rng, shape=None):
    """A monomial, or up to 8 terms with gaps, negative exponents and
    rational coefficients of up to 200 bits; if "wide", 8 to 12 terms of
    160 to 240 bits; if "small-ends", 8 to 12 integer terms of 160 to 240
    bits between a lowest and a highest of at most 3."""
    q = rng.choice((1, 2, 3))
    wide = shape is not None
    bits = rng.choice((160, 240) if wide else (3, 30, 200))
    low = rng.randint(-8, 4)
    count = rng.choice((8, 12) if wide else (1, 1, 2, 3, 5, 8))
    terms = {k: F(rng.randint(1, 1 << bits) * rng.choice((1, -1)),
                  rng.choice((1, 1, 6, 1 << bits)))
             for k in rng.sample(range(14), count)}
    if shape == "small-ends":
        terms = {k: c.numerator for k, c in terms.items()}
        for k in (min(terms), max(terms)):
            terms[k] = rng.choice((1, -1)) * rng.randint(1, 3)
    return LaurentPolynomial.from_terms(
        {F(low + k, q): c for k, c in terms.items()})


def split(p, grid):
    """(k, F) with p = s**k * F(s), s = t^(1/grid); (0, 0) for zero."""
    if not p:
        return 0, sympy.Poly(0, S, domain="QQ")
    k = int(p.valuation() * grid)
    return k, sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator)
                             * S ** (int(e * grid) - k) for e, c in p.terms()),
                         S, domain="QQ")


def normal(k, f):
    """s**k * f(s) rewritten so the polynomial has a nonzero constant term."""
    if f.is_zero:
        return 0, f
    low = min(m[0] for m in f.monoms())
    return k + low, sympy.Poly(sympy.expand(f.as_expr() / S ** low), S,
                               domain="QQ")


def pairs(seed, count, shape):
    rng = random.Random(seed)
    for _ in range(count):
        a, b = draw(rng, shape), draw(rng, shape)
        if rng.random() < 0.5:  # plant a common factor
            c = draw(rng, shape)
            a, b = a * c, b * c
        yield a, b


@pytest.mark.parametrize("seed, count, shape", [
    pytest.param(101, 40, None, id="101"),
    pytest.param(202, 40, None, id="202"),
    pytest.param(303, 40, None, id="303"),
    pytest.param(404, 12, "wide", id="404-wide"),
    pytest.param(505, 12, "small-ends", id="505-small-ends")])
def test_kernels_match_sympy(seed, count, shape):
    for a, b in pairs(seed, count, shape):
        grid = math.lcm(a.q, b.q)
        (ka, fa), (kb, fb) = split(a, grid), split(b, grid)
        low = min(ka, kb)
        s_sum = fa * sympy.Poly(S ** (ka - low), S) + fb * sympy.Poly(
            S ** (kb - low), S)
        assert split(a + b, grid) == normal(low, s_sum)
        assert split(a * b, grid) == (ka + kb, fa * fb)

        g = laurent_gcd(a, b)
        kg, fg = split(g, grid)
        assert kg == 0 and fg.monic() == sympy.gcd(fa, fb)

        for p, d in ((a, g), (b, g), (a * b, b)):
            (kp, fp), (kd, fd) = split(p, grid), split(d, grid)
            quotient, remainder = sympy.div(fp, fd)
            assert remainder.is_zero
            assert split(laurent_divexact(p, d), grid) == (kp - kd, quotient)

        f = PuiseuxFraction(a, b)
        (kn, fn), (kd, fd) = split(f.num, grid), split(f.den, grid)
        common = sympy.gcd(fa, fb)
        want_num, want_den = sympy.quo(fa, common), sympy.quo(fb, common)
        assert (kn, kd) == (ka - kb, 0)
        assert fd.eval(0) == 1 and fd.monic() == want_den.monic()
        assert fn * want_den == want_num * fd
        assert sympy.gcd(fn, fd).degree() == 0


@pytest.mark.parametrize("seed, shape", [
    pytest.param(606, None, id="606"),
    pytest.param(707, "wide", id="707-wide"),
    pytest.param(808, "small-ends", id="808-small-ends")])
def test_coprime_certificate_matches_sympy(seed, shape):
    # half the pairs share a planted factor; the certificate may fail on a
    # coprime pair (the remainder sequence then answers), never pass a
    # pair with a common factor
    proven = 0
    for a, b in pairs(seed, 60, shape):
        grid = math.lcm(a.q, b.q)
        la, lb = (p._on_grid(grid)[1][::-1] for p in (a, b))
        if len(la) < 2 or len(lb) < 2:
            continue
        if series._coprime_at(la, lb):
            (_, fa), (_, fb) = split(a, grid), split(b, grid)
            assert sympy.gcd(fa, fb).degree() == 0
            proven += 1
    assert proven >= 10


def sympy_expansion(fa, fb, count):
    """Coefficients of s^0..s^(count-1) in fa/fb, fb(0) != 0."""
    r, s = ring("s", sympy.QQ)
    a, b = r(fa.as_expr()), r(fb.as_expr())
    series = rs_mul(a, rs_series_inversion(b, s, count), s, count)
    return [F(int(c.numerator), int(c.denominator))
            for c in (series.coeff(s ** k) for k in range(count))]


@pytest.mark.parametrize("seed", [101, 202, 303])
def test_expansions_match_sympy(seed):
    seen = Counter()
    for a, b in pairs(seed, 40, None):
        grid = math.lcm(a.q, b.q)
        (ka, fa), (kb, fb) = split(a, grid), split(b, grid)
        want = sympy_expansion(fa, fb, 9)
        # through 8 grid steps past the valuation, and through a step below
        for depth in (8, -1):
            upto = F(ka - kb + depth, grid)
            assert PuiseuxFraction(a, b).series_coefficients(upto) == {
                F(ka - kb + k, grid): c
                for k, c in enumerate(want[:depth + 1]) if c}
        # one inverse of b for two windows: a/b from two steps below its
        # valuation, b/b = 1
        scale = math.lcm(a.content.denominator, b.content.denominator)
        ga, gb = to_grid(a, grid, scale), to_grid(b, grid, scale)
        lo = ka - kb - 2
        assert grid_expand(gb, [(ga, lo, ka - kb + 8), (gb, 0, 3)]) == [
            [0, 0] + want, [1, 0, 0, 0]]
        seen["monomial_den"] += fb.is_monomial
        seen["negative"] += ka < kb
        seen["grid %d" % grid] += 1
    assert seen["monomial_den"] and seen["negative"]
    assert seen["grid 2"] and seen["grid 3"]
