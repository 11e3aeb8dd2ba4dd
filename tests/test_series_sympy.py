"""Differential test of the scalar kernels against sympy.

Seeded Laurent polynomials on the grids t^(1/1), t^(1/2) and t^(1/3) are
written as s**k * F(s), with s = t^(1/Q) for Q the lcm of a pair's grids
and F a sympy polynomial with a nonzero constant term.  Every result of
`+`, `*`, `laurent_gcd`, `laurent_divexact` and the reduction of
`PuiseuxFraction(a, b)` is compared with sympy's polynomial arithmetic,
`gcd` and `div`.  sympy is a test-only dependency.  One seed draws wide
operands, whose products' coefficients pass KRONECKER_DIVIDE_MAX_BITS.
"""

import math
import random
from fractions import Fraction as F

import pytest

sympy = pytest.importorskip("sympy")

from troplift.series import (  # noqa: E402
    LaurentPolynomial,
    PuiseuxFraction,
    laurent_divexact,
    laurent_gcd,
)

S = sympy.Symbol("s")


def draw(rng, wide=False):
    """A monomial, or up to 8 terms with gaps, negative exponents and
    rational coefficients of up to 200 bits; if wide, 8 to 12 terms of
    160 to 240 bits."""
    q = rng.choice((1, 2, 3))
    bits = rng.choice((160, 240) if wide else (3, 30, 200))
    low = rng.randint(-8, 4)
    count = rng.choice((8, 12) if wide else (1, 1, 2, 3, 5, 8))
    return LaurentPolynomial.from_terms({
        F(low + k, q): F(rng.randint(1, 1 << bits) * rng.choice((1, -1)),
                         rng.choice((1, 1, 6, 1 << bits)))
        for k in rng.sample(range(14), count)})


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


def pairs(seed, count, wide):
    rng = random.Random(seed)
    for _ in range(count):
        a, b = draw(rng, wide), draw(rng, wide)
        if rng.random() < 0.5:  # plant a common factor
            c = draw(rng, wide)
            a, b = a * c, b * c
        yield a, b


@pytest.mark.parametrize("seed, count, wide", [
    pytest.param(101, 40, False, id="101"),
    pytest.param(202, 40, False, id="202"),
    pytest.param(303, 40, False, id="303"),
    pytest.param(404, 12, True, id="404-wide")])
def test_kernels_match_sympy(seed, count, wide):
    for a, b in pairs(seed, count, wide):
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
