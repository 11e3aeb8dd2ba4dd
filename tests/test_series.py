"""Tests for the exact scalar field: Laurent polynomials and their ratios."""

import math
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest

from troplift import series
from troplift.series import (
    INF,
    KRONECKER_DIVIDE_MAX_BITS,
    KRONECKER_MIN_TERMS,
    LaurentPolynomial,
    PuiseuxFraction,
    coefficient_at,
    laurent_divexact,
    laurent_gcd,
    regrid,
    scale_by_monomial,
    valuation,
)


def poly(terms):
    return PuiseuxFraction.from_terms(terms)


def ratio(num_terms, den_terms):
    return PuiseuxFraction(LaurentPolynomial.from_terms(num_terms),
                           LaurentPolynomial.from_terms(den_terms))


def rand_laurent(rng, max_terms=3, lo=-3, hi=3, q=2, bound=9, allow_zero=True):
    n = rng.randint(0 if allow_zero else 1, max_terms)
    terms = {}
    for _ in range(n):
        e = F(rng.randint(lo * q, hi * q), q)
        c = F(rng.randint(-bound, bound), rng.randint(1, bound))
        terms[e] = terms.get(e, 0) + c
    return LaurentPolynomial.from_terms(terms)


def nonzero_laurent(rng, **kw):
    p = rand_laurent(rng, allow_zero=False, **kw)
    while p.is_zero:
        p = rand_laurent(rng, allow_zero=False, **kw)
    return p


def rand_scalar(rng, nonzero=False):
    num = rand_laurent(rng, allow_zero=not nonzero)
    while nonzero and num.is_zero:
        num = rand_laurent(rng, allow_zero=False)
    den = rand_laurent(rng, allow_zero=False)
    while den.is_zero:
        den = rand_laurent(rng, allow_zero=False)
    return PuiseuxFraction(num, den)


class TestValuation:
    def test_laurent_lowest_exponent(self):
        assert valuation(poly({-1: 1, 0: 3, 1: 1})) == -1

    def test_zero_is_infinite(self):
        assert valuation(PuiseuxFraction.zero()) == INF
        assert valuation(LaurentPolynomial.zero()) == INF

    def test_ratio(self):
        assert valuation(ratio({2: 1, 3: 1}, {0: 1, 1: -1})) == 2


class TestFieldOps:
    def test_mul_across_grids(self):
        h = PuiseuxFraction.t_power(F(1, 2))
        assert h * h == PuiseuxFraction.t_power(1)

    def test_div_canonical_ratio(self):
        x = PuiseuxFraction.one() / poly({0: 1, 1: -1})
        assert x.num == LaurentPolynomial.one()
        assert x.den == LaurentPolynomial.from_terms({0: 1, 1: -1})

    def test_add_cancellation_changes_valuation(self):
        a = poly({-1: 1, 0: 1})
        b = poly({-1: -1})
        assert a + b == PuiseuxFraction.one()
        assert valuation(a + b) == 0

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            PuiseuxFraction.one() / PuiseuxFraction.zero()
        with pytest.raises(ZeroDivisionError):
            PuiseuxFraction(LaurentPolynomial.one(), LaurentPolynomial.zero())

    def test_scalar_coercion(self):
        x = poly({1: 2})
        assert x + 1 == poly({0: 1, 1: 2})
        assert 2 * x == poly({1: 4})
        assert 1 - x == poly({0: 1, 1: -2})
        assert (x / 2) == poly({1: 1})


class TestCoefficientAt:
    def test_geometric_series(self):
        x = PuiseuxFraction.one() / poly({0: 1, 1: -1})
        assert coefficient_at(x, 2) == 1

    def test_plain_laurent(self):
        assert coefficient_at(poly({-1: 1, 0: 3, 1: 1}), 0) == 3

    def test_alternating_expansion(self):
        # t^2/(1+t) = t^2 - t^3 + t^4 - ...; frozen from multiplying the
        # truncation back by (1+t) and comparing with t^2 through order 4.
        x = ratio({2: 1}, {0: 1, 1: 1})
        assert coefficient_at(x, 3) == -1
        trunc = PuiseuxFraction(
            LaurentPolynomial.from_terms(x.series_coefficients(4)))
        back = trunc * poly({0: 1, 1: 1})
        diff = back - poly({2: 1})
        assert valuation(diff) > 4

    def test_off_grid_exponent_is_zero(self):
        x = poly({0: 1, 1: 1})
        assert coefficient_at(x, F(1, 2)) == 0

    def test_below_valuation_is_zero(self):
        x = ratio({2: 1}, {0: 1, 1: 1})
        assert coefficient_at(x, 1) == 0


class TestMonomialScaleAndRegrid:
    def test_scale_shifts_terms(self):
        x = scale_by_monomial(poly({0: 1, 1: 1}), F(1, 2))
        assert x == poly({F(1, 2): 1, F(3, 2): 1})

    def test_scale_zero(self):
        assert scale_by_monomial(PuiseuxFraction.zero(), F(7, 3)).is_zero

    def test_scale_shifts_valuation(self):
        x = poly({-1: 1, 0: 1})
        assert valuation(scale_by_monomial(x, 3)) == valuation(x) + 3

    def test_regrid_clears_grid(self):
        assert regrid(poly({F(1, 2): 1, 1: 1}), 2) == poly({1: 1, 2: 1})

    def test_regrid_identity(self):
        assert regrid(PuiseuxFraction.one(), 5) == PuiseuxFraction.one()

    def test_regrid_scales_valuation(self):
        x = poly({F(-1, 3): 1})
        assert valuation(regrid(x, 3)) == -1

    def test_regrid_reduces_before_it_spreads(self):
        # t -> t^Q on the grid t^(1/Q) only coarsens it: no Q-slot list
        q = 10 ** 20
        t0 = time.perf_counter()
        assert regrid(poly({F(1, q): 1, 0: 1}), q) == poly({0: 1, 1: 1})
        assert time.perf_counter() - t0 < 1.0

    def test_regrid_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            regrid(PuiseuxFraction.one(), 0)

    def test_regrid_maps_exponent_multiset(self):
        rng = random.Random(7)
        for _ in range(50):
            a = rand_laurent(rng, allow_zero=False)
            exps = [e for e, _ in a.terms()]
            exps3 = [e for e, _ in a.substitute_power(3).terms()]
            assert exps3 == [3 * e for e in exps]


class TestCanonicalForm:
    def test_gcd_reduction(self):
        t = LaurentPolynomial.t_power(1)
        shared = LaurentPolynomial.from_terms({0: 2, 1: 2})
        x = PuiseuxFraction(LaurentPolynomial.from_terms({0: 1, 1: -1}) * shared,
                            LaurentPolynomial.from_terms({0: 1, 1: 1}) * shared * t)
        assert x == ratio({-1: 1, 0: -1}, {0: 1, 1: 1})
        assert x.den.valuation() == 0
        assert x.den.lowest_coefficient() == 1

    def test_denominator_monic_lowest(self):
        # the unit monomial 2t is folded into the numerator, leaving a
        # denominator with valuation 0 and lowest coefficient 1
        x = ratio({0: 1}, {1: 2, 2: 2})
        assert x.den == LaurentPolynomial.from_terms({0: 1, 1: 1})
        assert x.num == LaurentPolynomial.from_terms({-1: F(1, 2)})

    def test_equality_and_hash(self):
        a = ratio({0: 1, 1: 1}, {0: 2})
        b = poly({0: F(1, 2), 1: F(1, 2)})
        assert a == b
        assert hash(a) == hash(b)

    def test_grid_minimality(self):
        a = LaurentPolynomial.from_terms({F(2, 4): 1})
        assert a.q == 2 and a.terms() == [(F(1, 2), 1)]

    def test_int_gcd_matches_fraction_euclid(self):
        # randomized cross-check of the primitive-PRS gcd against naive
        # monic Euclid over Fraction coefficients
        def euclid(a, b):
            def norm(p):
                while p and p[-1] == 0:
                    p.pop()
                return p

            def pmod(p, d):
                p = p[:]
                while len(p) >= len(d):
                    f = p[-1] / d[-1]
                    off = len(p) - len(d)
                    for i, c in enumerate(d):
                        p[off + i] -= f * c
                    norm(p)
                    if not p:
                        break
                return p

            a, b = norm(a[:]), norm(b[:])
            while b:
                a, b = b, pmod(a, b)
            return [c / a[-1] for c in a]

        rng = random.Random(11)
        for _ in range(60):
            g = nonzero_laurent(rng, max_terms=2, lo=0, hi=2, q=1)
            a = nonzero_laurent(rng, max_terms=3, lo=0, hi=3, q=1) * g
            b = nonzero_laurent(rng, max_terms=3, lo=0, hi=3, q=1) * g
            got = laurent_gcd(a, b)
            da = [a.coefficient(i) for i in range(int(a.degree()) + 1)]
            db = [b.coefficient(i) for i in range(int(b.degree()) + 1)]
            want = euclid(da, db)
            while want and want[0] == 0:  # laurent_gcd strips unit monomials
                want.pop(0)
            lead = got.coefficient(got.degree())
            scaled = [got.coefficient(i) / lead
                      for i in range(int(got.degree()) + 1)]
            assert scaled == [c / want[-1] for c in want]
            assert laurent_divexact(a, got) * got == a

    P = 1073741789  # a prime

    @pytest.mark.parametrize("a, b, gcd", [
        # a common root mod P, but coprime over the rationals
        ({0: 1, 1: 1}, {0: 1 + P, 1: 1}, {0: 1}),
        # mod P the gcd has degree 2; over the rationals it is 1 + t
        ({0: 2, 1: 3, 2: 1}, {0: 2 + P, 1: 3 + P, 2: 1}, {0: 1, 1: 1}),
        # P divides both leading coefficients
        ({0: 1, 1: 1 + P, 2: P}, {0: 3, 1: 1 + 3 * P, 2: P}, {0: 1, 1: P}),
    ], ids=["coprime", "common-factor", "leading-coefficients"])
    def test_gcd_exact_at_unlucky_prime(self, a, b, gcd):
        a = LaurentPolynomial.from_terms(a)
        b = LaurentPolynomial.from_terms(b)
        assert laurent_gcd(a, b) == LaurentPolynomial.from_terms(gcd)
        assert laurent_gcd(b, a) == LaurentPolynomial.from_terms(gcd)

    def test_coprime_pair_the_certificate_cannot_prove(self):
        # t - 1 and (t - 2)t + 1, the reversed lists of x - 1 and
        # x + t - 2, at t = 2**34 where the least root bound R = 2 puts
        # the point: their gcd t - 1 is above t - R, so the certificate
        # fails on a coprime pair and the remainder sequence answers
        t = 1 << 34
        a, b = [1, -1], [1, t - 2]
        assert not series._coprime_at(a, b)
        assert series._int_poly_gcd(a, b) == [1]
        a = LaurentPolynomial.from_terms({0: -1, 1: 1})
        b = LaurentPolynomial.from_terms({0: t - 2, 1: 1})
        assert laurent_gcd(a, b) == laurent_gcd(b, a) == LaurentPolynomial.one()

    def test_certificate_never_proves_a_common_factor_away(self):
        # ends of +-1 around middles of up to 300 bits make most root
        # bounds large, which puts the point t past the coefficients' width
        rng = random.Random(29)

        def draw(terms):
            middle = [rng.choice((0, 1, -1)) * rng.getrandbits(300)
                      for _ in range(terms - 2)]
            return [rng.choice((1, -1))] + middle + [rng.choice((1, -1))]

        for _ in range(200):
            f = draw(rng.randint(2, 5))
            a = convolve(draw(rng.randint(2, 8)), f)
            b = convolve(draw(rng.randint(2, 8)), f)
            assert not series._coprime_at(a, b)
            assert not series._coprime_at(b, a)
            assert len(series._int_poly_gcd(a, b)) >= len(f)

    def test_every_route_gives_one_canonical_form(self):
        # b a constant, a monomial or an exact divisor of a: the shapes in
        # which the reduced denominator is 1
        def divides(b, a):
            try:
                laurent_divexact(a, b)
            except ArithmeticError:
                return False
            return True

        rng = random.Random(23)
        dens_one = 0
        for case in range(240):
            q = 1 + case % 2
            a = nonzero_laurent(rng, q=q)
            g = nonzero_laurent(rng, q=3 - q)
            shape = case // 2 % 4
            if shape == 0:
                b = LaurentPolynomial.constant(rng.choice([-3, 2, F(1, 2)]))
            elif shape == 1:
                b = LaurentPolynomial.from_terms(
                    {F(rng.randint(-6, 6), q): rng.choice([-2, 1, F(3, 4)])})
            else:
                b = nonzero_laurent(rng, q=q)
                if shape == 2:
                    a = a * b
            x = PuiseuxFraction(a, b)
            assert PuiseuxFraction(a * g, b * g) == x
            assert PuiseuxFraction(a) / PuiseuxFraction(b) == x
            assert x.den.valuation() == 0
            assert x.den.lowest_coefficient() == 1
            assert laurent_gcd(x.num, x.den).is_monomial
            assert x.den.is_one == divides(b, a)
            dens_one += x.den.is_one
        assert 180 <= dens_one < 240


class TestFieldProperties:
    def test_valuation_additivity(self):
        rng = random.Random(3)
        for _ in range(400):
            a = rand_scalar(rng, nonzero=True)
            b = rand_scalar(rng, nonzero=True)
            assert valuation(a * b) == valuation(a) + valuation(b)

    def test_ultrametric(self):
        rng = random.Random(4)
        for _ in range(400):
            a = rand_scalar(rng)
            b = rand_scalar(rng)
            va, vb, vs = valuation(a), valuation(b), valuation(a + b)
            assert vs >= min(va, vb)
            if va != vb:
                assert vs == min(va, vb)

    def test_mul_div_round_trip(self):
        rng = random.Random(5)
        for _ in range(300):
            a = rand_scalar(rng)
            b = rand_scalar(rng, nonzero=True)
            assert (a * b) / b == a

    def test_expansion_consistency(self):
        rng = random.Random(6)
        for _ in range(100):
            a = rand_scalar(rng, nonzero=True)
            bound = F(3)
            s = PuiseuxFraction(
                LaurentPolynomial.from_terms(a.series_coefficients(bound)))
            if a == s:
                continue
            assert valuation(a - s) > bound


def schoolbook(a, b):
    """Reference product built term by term from the two term lists."""
    out = {}
    for ea, ca in a.terms():
        for eb, cb in b.terms():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return LaurentPolynomial.from_terms(out)


def spaced(coeffs, gap=1, q=1, start=0, content=1):
    """content * sum coeffs[i] * t**((start + gap*i)/q), zeros skipped."""
    return LaurentPolynomial.from_terms(
        {F(start + gap * i, q): content * c
         for i, c in enumerate(coeffs) if c})


class TestMultiply:
    """Every product equals the schoolbook reference, on both sides of the
    Kronecker rule: the factor with fewer nonzero terms has fewer than
    KRONECKER_MIN_TERMS of them, or not."""

    @staticmethod
    def check(a, b):
        want = schoolbook(a, b)
        for got in (a * b, b * a):
            assert (got.q, got.terms()) == (want.q, want.terms())
            assert got == want and hash(got) == hash(want)

    def test_seeded_pairs_match_schoolbook(self):
        rng = random.Random(61)
        packed = 0
        for _ in range(400):
            ops = []
            for _ in range(2):
                terms = rng.choice((1, 2, 5, 7, 8, 9, 12, 30))
                bits = rng.choice((1, 4, 30, 64, 200))
                coeffs = [rng.randint(-(1 << bits), 1 << bits)
                          for _ in range(terms)]
                coeffs[0] = coeffs[0] or 1
                content = F(rng.choice((-3, 1, 2, 7)), rng.choice((1, 5, 12)))
                ops.append(spaced(coeffs, gap=rng.choice((1, 1, 2, 3, 4, 9)),
                                  q=rng.choice((1, 2, 3)),
                                  start=rng.randint(-20, 20), content=content))
            a, b = ops
            self.check(a, b)
            packed += min(a.term_count, b.term_count) >= KRONECKER_MIN_TERMS
        assert packed >= 40

    def test_digit_boundary_coefficients(self):
        edges = (1 << 63) - 1, -((1 << 63) - 1), -(1 << 63), 1 << 127
        rng = random.Random(62)
        for _ in range(60):
            coeffs = [rng.choice(edges + (0, 1, -1, 5)) for _ in range(2, 20)]
            for c in edges:
                a = spaced([1, c] + coeffs[:rng.randint(6, 18)])
                b = spaced([c] * 9 + [-1], start=rng.randint(-3, 3))
                self.check(a, b)
                self.check(a, a)

    def test_product_bound_on_byte_boundary(self):
        # a = k ones against a run of M's: the middle coefficients reach
        # the bound max|a|*max|b|*min(terms) = k*M exactly
        for k, M in ((127, 1), (8, 16), (31, 1057), (8, 1 << 12),
                     (49, ((1 << 63) - 1) // 49), (8, 1 << 60)):
            for sign in (1, -1):
                a = spaced([sign] * k)
                b = spaced([1] + [M] * (k + 3))
                self.check(a, b)
                assert max(abs(c) for _, c in (a * b).terms()) == k * M

    def test_monomials_and_sparse_gaps(self):
        rng = random.Random(63)
        for _ in range(80):
            mono = spaced([rng.randint(-9, 9) or 1], start=rng.randint(-9, 9),
                          q=rng.choice((1, 4)), content=F(1, 3))
            dense = spaced([rng.randint(-99, 99) for _ in range(20)],
                           start=-5)
            holes = spaced([rng.choice((0, 0, rng.randint(-9, 9)))
                            for _ in range(40)] + [1], q=2)
            far = spaced([3] + [0] * 500 + [rng.randint(1, 9)] * 10)
            for a, b in ((mono, dense), (dense, holes), (holes, holes),
                         (far, dense), (far, far)):
                self.check(a, b)


def convolve(a, b):
    """Reference product of two ascending integer lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.fixture
def routes(monkeypatch):
    """Counts which route each exact quotient took.

    "short": quotient or divisor has under KRONECKER_MIN_TERMS slots;
    "wide": the dividend reaches KRONECKER_DIVIDE_MAX_BITS bits; both go
    to the loop.  "kronecker": the packed division ran, and "uncertified":
    its quotient failed the certificate, so the loop ran after it.
    """
    seen = Counter()
    divide, kronecker = series._divexact_ascending, series._kronecker_divexact

    def spy_divide(p, d):
        if min(len(p) - len(d) + 1, len(d)) < KRONECKER_MIN_TERMS:
            seen["short"] += 1
        elif max(map(abs, p)).bit_length() >= KRONECKER_DIVIDE_MAX_BITS:
            seen["wide"] += 1
        return divide(p, d)

    def spy_kronecker(*args):
        seen["kronecker"] += 1
        q = kronecker(*args)
        seen["uncertified"] += q is None
        return q

    monkeypatch.setattr(series, "_divexact_ascending", spy_divide)
    monkeypatch.setattr(series, "_kronecker_divexact", spy_kronecker)
    return seen


class TestDivide:
    """Every exact quotient of a schoolbook product q*d gives back q and
    d, on both routes: one packed integer division when quotient and
    divisor both have KRONECKER_MIN_TERMS slots and the dividend stays
    under KRONECKER_DIVIDE_MAX_BITS bits, the loop otherwise.  Every
    inexact division raises on both."""

    @staticmethod
    def check(q, d):
        p = schoolbook(q, d)
        for got, want in ((laurent_divexact(p, d), q),
                          (laurent_divexact(p, q), d)):
            assert (got.q, got.terms()) == (want.q, want.terms())
            assert got == want and hash(got) == hash(want)

    def test_seeded_products_divide_back(self, routes):
        rng = random.Random(71)
        for _ in range(300):
            ops = []
            for _ in range(2):
                terms = rng.choice((1, 2, 5, 8, 9, 12, 30))
                bits = rng.choice((1, 4, 30, 64, 150, 220, 300))
                coeffs = [rng.randint(-(1 << bits), 1 << bits)
                          for _ in range(terms)]
                coeffs[0] = coeffs[0] or 1
                content = F(rng.choice((-3, 1, 2, 7)), rng.choice((1, 5, 12)))
                ops.append(spaced(coeffs, gap=rng.choice((1, 1, 2, 3)),
                                  q=rng.choice((1, 2)),
                                  start=rng.randint(-20, 20), content=content))
            self.check(*ops)
        assert routes["kronecker"] >= 100 and routes["wide"] >= 50
        assert routes["short"] >= 100 and routes["uncertified"] == 0

    def test_digit_boundary_coefficients(self, routes):
        edges = (1 << 63) - 1, -((1 << 63) - 1), -(1 << 63), 1 << 127
        rng = random.Random(72)
        for _ in range(20):
            coeffs = [rng.choice(edges + (0, 1, -1, 5)) for _ in range(2, 20)]
            for c in edges:
                q = spaced([1, c] + coeffs[:rng.randint(6, 18)])
                d = spaced([c] * 9 + [-1], start=rng.randint(-3, 3))
                self.check(q, d)
        # the product bound max|q|*max|d|*min(terms) reached exactly
        for k, M in ((127, 1), (8, 16), (31, 1057), (8, 1 << 12),
                     (49, ((1 << 63) - 1) // 49), (8, 1 << 60)):
            for sign in (1, -1):
                self.check(spaced([sign] * k), spaced([1] + [M] * (k + 3)))
        assert routes["kronecker"] >= 150 and routes["uncertified"] == 0

    def test_quotient_wider_than_dividend(self, routes):
        # (1 - t)^k * (1 + t)^k = (1 - t^2)^k: each factor's middle
        # binomial is as large as the product's, so max|q|*max|d| is
        # about max|p| squared and overflows a digit sized from max|p|
        k = 24
        minus = spaced([(-1) ** i * math.comb(k, i) for i in range(k + 1)])
        plus = spaced([math.comb(k, i) for i in range(k + 1)])
        self.check(minus, plus)
        assert routes["kronecker"] == 2 and routes["uncertified"] == 2
        # (1 - t^10)^8 / (1 - t)^8: the quotient's coefficients, up to
        # 4,816,030, do not fit the 16-bit digits sized from max|p| = 70,
        # so the digits read back carry into each other
        ones = spaced([1] * 10)
        self.check(ones * ones * ones * ones * ones * ones * ones * ones,
                   spaced([(-1) ** i * math.comb(8, i) for i in range(9)]))
        assert routes["kronecker"] == 4 and routes["uncertified"] == 4
        # d = 1 + t and q = 1, -2, 3, -4, ...: two divisor slots, the loop
        self.check(spaced([(-1) ** i * (i + 1) for i in range(40)]),
                   spaced([1, 1]))
        assert routes["short"] == 2

    def test_quotient_out_of_digit_range_is_not_certified(self):
        # p(t) = 7,720,000 = 40,000 * d(t) at t = 256, but 40,000 has no
        # two balanced 8-bit digits; p / d is inexact as polynomials
        p, d = [64, -52, 118], [-63, 1]
        assert series._kronecker_divexact(p, d, 1, 2) is None
        with pytest.raises(ArithmeticError):
            series._divexact_ascending(p, d)

    @pytest.mark.parametrize("route, terms, bits", [
        ("kronecker", 12, 60), ("short", 4, 60), ("wide", 12, 200)])
    def test_inexact_division_raises(self, routes, route, terms, bits):
        rng = random.Random(73)
        q, d = ([rng.randint(-(1 << bits), 1 << bits) or 1
                 for _ in range(terms)] for _ in range(2))
        p = convolve(q, d)
        assert series._divexact_ascending(p, d) == q
        for i in (0, len(p) // 2, len(p) - 1):
            bad = list(p)
            bad[i] += 1
            with pytest.raises(ArithmeticError):
                series._divexact_ascending(bad, d)
        assert routes[route] == 4 and routes["uncertified"] == 0
        assert routes["kronecker"] == (4 if route == "kronecker" else 0)
        with pytest.raises(ArithmeticError):  # dividend shorter than divisor
            series._divexact_ascending(p[:len(d) - 1], d)


def grid_terms(x, prec=INF):
    """{exponent: coefficient} of a grid triple's value below t^prec."""
    if x is None:
        return {}
    low, c, coeffs = x
    return {low + i: c * v for i, v in enumerate(coeffs)
            if v and low + i < prec}


def rand_triple(rng):
    """A grid triple with a negative or positive low, 1-20 slots, a content
    and, half the time, a list with a common factor (as a cut list has)."""
    length = rng.choice((1, 2, 5, 9, 14, 20))
    coeffs = [rng.choice((0, rng.randint(-40, 40))) for _ in range(length)]
    coeffs[0] = coeffs[0] or 3
    coeffs[-1] = coeffs[-1] or -7
    if rng.random() < 0.5:
        coeffs = [rng.choice((2, 6)) * v for v in coeffs]
    return rng.randint(-15, 8), rng.choice((1, 1, 4, 9)), coeffs


class TestTruncatedGridKernels:
    """With a precision, grid_mul, grid_sub and grid_divexact give the
    exact result's terms below that order, from operands cut there."""

    def test_products_and_differences_match_the_cut_exact_result(self):
        rng = random.Random(111)
        for _ in range(400):
            x, y = rand_triple(rng), rand_triple(rng)
            prod, diff = series.grid_mul(x, y), series.grid_sub(x, y)
            lo = min(x[0], y[0])
            for prec in (x[0] + y[0] - 1, x[0] + y[0], lo, lo + 1,
                         rng.randint(lo - 3, lo + 40), 100):
                # a product's terms below prec involve its factors' terms
                # below prec - (the other factor's low) only
                xc = series.grid_cut(x, prec - y[0])
                yc = series.grid_cut(y, prec - x[0])
                assert (grid_terms(series.grid_mul(xc, yc, prec))
                        == grid_terms(prod, prec))
                assert (grid_terms(series.grid_sub(
                    series.grid_cut(x, prec), series.grid_cut(y, prec),
                    prec)) == grid_terms(diff, prec))
                assert (grid_terms(series.grid_sub(x, None, prec))
                        == grid_terms(x, prec))
                assert (grid_terms(series.grid_sub(None, y, prec))
                        == grid_terms(series.grid_sub(None, y), prec))

    def test_quotients_match_the_cut_exact_quotient(self):
        rng = random.Random(112)
        for _ in range(400):
            q, d = rand_triple(rng), rand_triple(rng)
            x = series.grid_mul(q, d)
            assert grid_terms(series.grid_divexact(x, d)) == grid_terms(q)
            vq, vd = q[0], d[0]
            for px, pd in ((x[0] + 1, d[0] + 1),
                           (rng.randint(x[0] + 1, x[0] + 30),
                            rng.randint(d[0] + 1, d[0] + 30)),
                           (200, 200)):
                # the low terms of x/d follow from those of x and d
                bound = min(px - vd, pd - 2 * vd + x[0])
                for prec in (vq + 1, bound, rng.randint(vq + 1, bound)):
                    got = series.grid_divexact(series.grid_cut(x, px),
                                               series.grid_cut(d, pd), prec)
                    assert grid_terms(got) == grid_terms(q, prec)
            assert series.grid_divexact(x, d, vq) is None

    def test_inexact_truncated_quotient_raises(self):
        # 1 / (2 + t): the first term is already no integer
        with pytest.raises(ArithmeticError):
            series.grid_divexact((0, 1, [1]), (0, 1, [2, 1]), 3)
        # (2 + 3t + 5t^2) / (2 + 4t): 2/2 = 1, then (3 - 4)/2 is not
        with pytest.raises(ArithmeticError):
            series.grid_divexact((-2, 1, [2, 3, 5]), (-1, 1, [2, 4]), 1)
        # a content the divisor's does not divide, multiplied back in
        with pytest.raises(ArithmeticError):
            series.grid_divexact((0, 3, [1, 1]), (0, 2, [1]), 2)
