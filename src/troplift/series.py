"""Exact arithmetic in the field of rational functions of fractional powers of t.

Scalars are ratios of Laurent polynomials in t**(1/q) with rational
coefficients.  This field is closed under the four operations, carries an
exact valuation (the lowest exponent), and supports coefficient extraction
to any order, which is all the series machinery the lifting algorithm
needs while staying finitely representable.

A Laurent polynomial is one dense ascending list of integer coefficients,
which the kernels (product, gcd, exact division) read directly;
`troplift.lift.MAX_GRID_SPAN` bounds its length, the exponent span.  The
series elimination of `troplift.linalg` runs on the same lists, all on
one grid, without building polynomial objects (`grid_mul`, `grid_sub`,
`grid_divexact`).  Series expansion has one routine, `grid_expand`, on
those lists: `PuiseuxFraction.series_coefficients` and the orders <= 0
of `troplift.linalg`'s reduced entries both read it.

Large products and exact quotients use Kronecker substitution
(Schönhage 1982): a list is evaluated at t = 2**(8*nb) through bytes and
read back as balanced nb-byte digits.  Every exact division ends in
`_divexact_ascending`.  Its packed route is one integer divmod whose
quotient digits are used only under a certificate that makes quotient
times divisor equal the dividend digit by digit.  Short quotients,
uncertified ones and dividends with coefficients of
KRONECKER_DIVIDE_MAX_BITS bits or more, where packing is the slower,
take a term-by-term loop instead.

`laurent_gcd` keeps ratios in lowest terms.  Nearly every pair it meets
is coprime, and `_coprime_at` proves that with one integer gcd of the two
lists evaluated past their roots (the heuristic gcd of Char, Geddes and
Gonnet, 1989, made exact by Cauchy's root bound); the primitive remainder
sequence computes every other gcd.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

INF = float("inf")

# Products whose shorter factor has fewer nonzero terms than this are
# convolved term by term, which beats packing at that size.  Exact
# quotients apply the same rule to the shorter of quotient and divisor.
KRONECKER_MIN_TERMS = 8

# Exact quotients whose dividend has a coefficient of this many bits or
# more are divided term by term (see `_divexact_ascending`); on the
# criterion-7 quotients the loop is the faster from about 320 bits up.
KRONECKER_DIVIDE_MAX_BITS = 320

__all__ = [
    "INF",
    "LaurentPolynomial",
    "PuiseuxFraction",
    "valuation",
    "coefficient_at",
    "scale_by_monomial",
    "regrid",
    "laurent_gcd",
    "laurent_divexact",
]


def _frac_gcd(a, b):
    """Positive gcd of two rationals: gcd of numerators over lcm of denominators."""
    return Fraction(math.gcd(a.numerator, b.numerator),
                    math.lcm(a.denominator, b.denominator))


def _int_content(values):
    g = 0
    for v in values:
        g = math.gcd(g, v)
        if g == 1:
            return 1
    return g


class LaurentPolynomial:
    """Laurent polynomial in t**(1/q) over the rationals.

    Internal form is a minimal grid denominator ``q``; the grid exponent
    ``low`` of the first slot; ``coeffs``, a dense ascending list of
    primitive integers whose first and last entries are nonzero (slot
    ``i`` is the term ``content*coeffs[i] * t**((low+i)/q)``, interior
    zeros included, and the list is empty for zero); and a positive
    rational ``content`` factored out of all coefficients.  The form is
    unique, so equal polynomials have identical representations and can
    be hashed and compared structurally.  Instances are immutable: no
    list is mutated once stored.  (A list, not a tuple, because CPython
    keeps up to 2000 freed tuples of each length under 20 for reuse,
    which raised the peak memory of short-lived polynomials.)
    """

    __slots__ = ("q", "low", "coeffs", "content")

    def __init__(self, q, low, coeffs, content):
        # Trusted constructor: arguments must already be normalized.
        # Use from_terms / _normalized to build values safely.
        self.q = q
        self.low = low
        self.coeffs = coeffs
        self.content = content

    @classmethod
    def _normalized(cls, q, low, raw, content):
        """Trim, make content positive and coeffs primitive, coarsen q."""
        g = _int_content(raw)
        if g > 1:
            content = content * g
            raw = [v // g for v in raw]
        return cls._from_primitive(q, low, raw, content)

    @classmethod
    def _from_primitive(cls, q, low, raw, content):
        """`_normalized` for raw whose integer content is already 0 or 1.

        Products and exact quotients of primitive lists are primitive
        (Gauss's lemma), so they need only the trim, the sign and the
        grid coarsening.
        """
        low, raw = _trimmed(low, raw)
        if not raw or not content:
            return cls.zero()
        if content < 0:
            content, raw = -content, [-v for v in raw]
        if q > 1:
            d = math.gcd(q, low, *(i for i, v in enumerate(raw) if v))
            if d > 1:
                q, low, raw = q // d, low // d, raw[::d]
        return cls(q, low, raw, content)

    @classmethod
    def from_terms(cls, terms):
        """Build from a mapping {exponent: coefficient} of rationals."""
        clean = {}
        q = 1
        for e, c in terms.items():
            e, c = Fraction(e), Fraction(c)
            if c:
                clean[e] = clean.get(e, Fraction(0)) + c
                q = math.lcm(q, e.denominator)
        clean = {e: c for e, c in clean.items() if c}
        if not clean:
            return cls.zero()
        content = reduce(_frac_gcd, clean.values())
        keys = [e.numerator * (q // e.denominator) for e in clean]
        low = min(keys)
        raw = [0] * (max(keys) - low + 1)
        for k, c in zip(keys, clean.values()):
            raw[k - low] = (c / content).numerator
        return cls._normalized(q, low, raw, content)

    @classmethod
    def zero(cls):
        return cls(1, 0, [], Fraction(0))

    @classmethod
    def one(cls):
        return cls(1, 0, [1], Fraction(1))

    @classmethod
    def constant(cls, c):
        return cls.from_terms({0: Fraction(c)})

    @classmethod
    def t_power(cls, e):
        return cls.from_terms({Fraction(e): 1})

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def is_one(self):
        return (self.q == 1 and self.low == 0 and self.coeffs == [1]
                and self.content == 1)

    @property
    def is_monomial(self):
        return len(self.coeffs) == 1

    @property
    def term_count(self):
        """Number of nonzero terms (slots minus interior zeros)."""
        return len(self.coeffs) - self.coeffs.count(0)

    def valuation(self):
        """Lowest exponent as a Fraction; INF for the zero polynomial."""
        if not self.coeffs:
            return INF
        return Fraction(self.low, self.q)

    def degree(self):
        if not self.coeffs:
            return -INF
        return Fraction(self.low + len(self.coeffs) - 1, self.q)

    def terms(self):
        """Sorted list of (exponent, coefficient) pairs with Fraction values."""
        return [(Fraction(self.low + i, self.q), self.content * c)
                for i, c in enumerate(self.coeffs) if c]

    def coefficient(self, e):
        k = Fraction(e) * self.q - self.low  # slot index, if on the grid
        if k.denominator == 1 and 0 <= k < len(self.coeffs):
            return self.content * self.coeffs[int(k)]
        return Fraction(0)

    def reach(self, q):
        """Largest |exponent| in steps of t^(1/q), a refinement of the grid."""
        return max(-self.low, self.low + len(self.coeffs) - 1, 0) * (q // self.q)

    def lowest_coefficient(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no lowest coefficient")
        return self.content * self.coeffs[0]

    def _on_grid(self, q):
        """(low, ascending coefficients) on t^(1/q), a refinement of self.q."""
        f = q // self.q
        if f == 1:
            return self.low, self.coeffs
        out = [0] * ((len(self.coeffs) - 1) * f + 1)
        out[::f] = self.coeffs
        return self.low * f, out

    def __add__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        q = math.lcm(self.q, other.q)
        g = _frac_gcd(self.content, other.content)
        m1 = (self.content / g).numerator
        m2 = (other.content / g).numerator
        la, a = self._on_grid(q)
        lb, b = other._on_grid(q)
        low, out = _combine(la, a, m1, lb, b, m2)
        return LaurentPolynomial._normalized(q, low, out, g)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        return LaurentPolynomial(self.q, self.low,
                                 [-v for v in self.coeffs], self.content)

    def __sub__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return LaurentPolynomial.zero()
        q = math.lcm(self.q, other.q)
        la, a = self._on_grid(q)
        lb, b = other._on_grid(q)
        return LaurentPolynomial._from_primitive(q, la + lb, _mul_lists(a, b),
                                                 self.content * other.content)

    __rmul__ = __mul__

    def scale(self, c):
        """Multiply by a rational scalar."""
        c = Fraction(c)
        if not c or self.is_zero:
            return LaurentPolynomial.zero()
        return LaurentPolynomial._from_primitive(self.q, self.low, self.coeffs,
                                                 self.content * c)

    def shift(self, e):
        """Multiply by the monomial t**e."""
        e = Fraction(e)
        if self.is_zero or not e:
            return self
        q = math.lcm(self.q, e.denominator)
        low, out = self._on_grid(q)
        return LaurentPolynomial._from_primitive(q, low + int(e * q), out,
                                                 self.content)

    def substitute_power(self, n):
        """Substitute t -> t**n (n a positive rational), scaling every exponent by n."""
        n = Fraction(n)
        if n <= 0:
            raise ValueError("substitution power must be positive")
        if self.is_zero or n == 1:
            return self
        # exponent k/q becomes k*(a/g)/((q/g)*b) for n = a/b and
        # g = gcd(q, a): spread the slots a/g apart on grid (q/g)*b
        g = math.gcd(self.q, n.numerator)
        low, out = self._on_grid(self.q * (n.numerator // g))
        return LaurentPolynomial._from_primitive(
            self.q // g * n.denominator, low, out, self.content)

    def __eq__(self, other):
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return (self.q == other.q and self.low == other.low
                and self.content == other.content
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.q, self.low, tuple(self.coeffs), self.content))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for e, c in self.terms():
            frag = _fmt_term(e, abs(c))
            if not parts:
                parts.append(frag if c > 0 else "-" + frag)
            else:
                parts.append(("+ " if c > 0 else "- ") + frag)
        return " ".join(parts)


def _as_laurent(x):
    if isinstance(x, LaurentPolynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPolynomial.constant(x)
    return NotImplemented


def _coerce_poly(x):
    p = _as_laurent(x)
    if p is NotImplemented:
        raise TypeError("cannot build scalar from %r" % type(x).__name__)
    return p


def _fmt_term(e, c):
    if e == 0:
        return str(c)
    t = "t" if e == 1 else ("t^%s" % e if e.denominator == 1 and e >= 0
                            else "t^(%s)" % e)
    if c == 1:
        return t
    return "%s*%s" % (c, t)


# -- integer polynomial helpers (dense coefficient lists) -------------------

def _trimmed(low, raw):
    """(low, raw) with the zero slots at both ends cut off; raw is [] for zero."""
    lo, hi = 0, len(raw)
    while lo < hi and not raw[lo]:
        lo += 1
    while hi > lo and not raw[hi - 1]:
        hi -= 1
    if lo or hi < len(raw):
        raw = raw[lo:hi]
    return low + lo, raw


def _combine(la, a, ma, lb, b, mb):
    """ma*a + mb*b for lists whose first slots sit at grid exponents la, lb.

    Returns (low, list), untrimmed.
    """
    low = min(la, lb)
    out = [0] * (max(la + len(a), lb + len(b)) - low)
    i = la - low
    out[i:i + len(a)] = a if ma == 1 else [v * ma for v in a]
    j = lb - low
    out[j:j + len(b)] = [u + v * mb for u, v in zip(out[j:j + len(b)], b)]
    return low, out


def _mul_lists(a, b):
    """Product of two ascending integer lists with nonzero ends.

    Under KRONECKER_MIN_TERMS nonzero terms in the sparser factor it
    convolves term by term, otherwise it packs (`_kronecker_mul`).  The
    product of primitive lists is primitive (Gauss's lemma).
    """
    na = len(a) - a.count(0)
    nb = len(b) - b.count(0)
    if na > nb:
        a, b, na = b, a, nb
    if na >= KRONECKER_MIN_TERMS:
        return _kronecker_mul(a, b)
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for k, cb in enumerate(b, i):
                out[k] += ca * cb
    return out


def _digit_offset(half, nb, slots):
    """sum half*t**i over i < slots, t = 2**(8*nb): half a digit per slot."""
    return int.from_bytes(half.to_bytes(nb, "little") * slots, "little")


def _pack(coeffs, nb):
    """Value at t = 2**(8*nb) of sum coeffs[i]*t**i, packed through bytes.

    Every |coeffs[i]| must be under 2**(8*nb-1).  Adding half a digit to
    each makes it one unsigned nb-byte digit, so the value is one join and
    one int.from_bytes, less the same offset.
    """
    half = 1 << (8 * nb - 1)
    data = b"".join([(c + half).to_bytes(nb, "little") for c in coeffs])
    return (int.from_bytes(data, "little")
            - _digit_offset(half, nb, len(coeffs)))


def _unpack(x, nb, slots):
    """The balanced nb-byte digits c_0..c_(slots-1) of x = sum c_i*t**i.

    t = 2**(8*nb) and every |c_i| < 2**(8*nb-1).  Raises OverflowError if
    x has no such form in `slots` digits.
    """
    # adding half a digit to every slot makes each digit nonnegative, so
    # the bytes of the sum are the digits with no borrows between them
    half = 1 << (8 * nb - 1)
    data = (x + _digit_offset(half, nb, slots)).to_bytes(nb * slots, "little")
    from_bytes = int.from_bytes
    return [from_bytes(data[i:i + nb], "little") - half
            for i in range(0, nb * slots, nb)]


def _kronecker_mul(a, b):
    """Product of two ascending integer lists by Kronecker substitution.

    Both lists are evaluated at t = 2**(8*nb) and multiplied as two
    integers; the product is read back as signed nb-byte digits.  No
    product coefficient exceeds max|a| * max|b| * min(len(a), len(b)) in
    absolute value, and nb leaves that bound a sign bit to spare, so the
    digits never overlap.
    """
    bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
    nb = bound.bit_length() // 8 + 1
    return _unpack(_pack(a, nb) * _pack(b, nb), nb, len(a) + len(b) - 1)


def _trim(p):
    i = 0
    while i < len(p) and p[i] == 0:
        i += 1
    return p[i:]


def _primitive(p):
    g = _int_content(p)
    if g == 0:
        return []
    if p[0] < 0:
        g = -g
    if g != 1:
        p = [c // g for c in p]
    return p


def _coprime_at(a, b):
    """True only if the descending integer lists a and b are coprime.

    Both are primitive, of degree >= 1, with nonzero ends; reversing both
    keeps their gcd's degree.  Every root of a list p is below
    R = 2 + max|p_i| // |lead p| in absolute value (Cauchy).  For R the
    least over both lists and orientations and an integer t > R + 1, a
    nonconstant common factor H has |H(t)| > t - R and divides
    g = gcd(a(t), b(t)) != 0, so g <= t - R leaves no room for H.  The
    point is t = 2**k + 1, odd, so lists whose end coefficients share
    many factors of two do not share them at t.
    """
    def bound(p):
        return 2 + max(map(abs, p[1:])) // abs(p[0])

    r = min(bound(a), bound(b))
    rev_r = min(bound(a[::-1]), bound(b[::-1]))
    if rev_r < r:
        a, b, r = a[::-1], b[::-1], rev_r
    k = r.bit_length() + 32  # t > 2**32 * R leaves g room below t - R
    va, vb = (reduce(lambda v, c: (v << k) + v + c, p, 0) for p in (a, b))
    return math.gcd(va, vb) + r <= (1 << k) + 1


def _pseudo_rem_controlled(u, v):
    """Pseudo-remainder of u by v with per-step content stripping.

    Uses reduced multipliers lc(v)/g and lead/g at every cancellation so
    coefficients do not stack powers of lc(v); the result equals the
    classical pseudo-remainder up to a rational unit, which is all a
    primitive remainder sequence needs.
    """
    dv = len(v) - 1
    lv = v[0]
    r = list(u)
    while len(r) - 1 >= dv:
        lead = r[0]
        if lead == 0:
            r.pop(0)
            continue
        g = math.gcd(lead, lv)
        mult = lv // g
        fl = lead // g
        r = r[1:] if mult == 1 else [mult * c for c in r[1:]]
        for j in range(1, dv + 1):
            r[j - 1] -= fl * v[j]
        if mult != 1:
            c = _int_content(r)
            if c > 1:
                r = [x // c for x in r]
    return r


def _int_poly_gcd(a, b):
    """Primitive gcd of two descending integer lists with nonzero ends.

    `_coprime_at` proves the common, coprime case; a primitive remainder
    sequence computes the rest."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    if len(b) > 1 and _coprime_at(a, b):
        return [1]
    while b:
        if len(b) == 1:
            return [1]
        a, b = b, _primitive(_trim(_pseudo_rem_controlled(a, b)))
    return a


def _divexact_ascending(p, d):
    """Exact quotient of ascending integer lists with d[0] != 0.

    Raises ArithmeticError if d does not divide p, on either route.
    When quotient and divisor both have at least KRONECKER_MIN_TERMS
    slots and the dividend's coefficients stay under
    KRONECKER_DIVIDE_MAX_BITS bits, the quotient is one integer division
    (`_kronecker_divexact`), used only if its digits pass the certificate
    max|q| * max|d| * min(len(q), len(d)) < 2**(8*nb-1).  Otherwise, or
    without the certificate, a loop divides term by term; it is exact on
    its own.  Short quotients cost the packing more than the loop.  From
    the bit crossover up, the packed digits, as wide as the dividend's
    coefficients, cost CPython's long division (quadratic in the digit
    width) more than the loop pays multiplying the narrower coefficients
    of q and d.
    """
    n = len(p) - len(d) + 1
    if n <= 0:
        raise ArithmeticError("inexact polynomial division")
    if n >= KRONECKER_MIN_TERMS and len(d) >= KRONECKER_MIN_TERMS:
        top = max(map(abs, p))
        if top.bit_length() < KRONECKER_DIVIDE_MAX_BITS:
            # max|q|*max|d| rarely exceeds max|p| by more than two bits;
            # four guard bits leave the certificate to catch the rest
            nb = ((top * min(n, len(d))).bit_length() + 4) // 8 + 1
            q = _kronecker_divexact(p, d, nb, n)
            if q is not None:
                return q
    r = list(p)
    q = _quotient_digits(r, d, n)
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return q


def _quotient_digits(r, d, n):
    """The first n coefficients of the power series r/d, term by term.

    Each is one integer divmod by d[0] whose remainder must be zero, or
    ArithmeticError is raised.  r, of length at least n + len(d) - 1, is
    left holding the remainder.
    """
    q = [0] * n
    d0 = d[0]
    for i in range(n):
        c = r[i]
        if c:
            qi, rem = divmod(c, d0)
            if rem:
                raise ArithmeticError("inexact polynomial division")
            q[i] = qi
            for j, dj in enumerate(d):
                r[i + j] -= qi * dj
    return q


def _kronecker_divexact(p, d, nb, n):
    """The n-slot quotient p/d by Kronecker substitution, or None.

    p and d are evaluated at t = 2**(8*nb), where every coefficient of p
    fits a balanced digit, and divided once as integers.  If d divides p,
    then d(t) divides p(t), so a nonzero remainder proves the division
    inexact and raises ArithmeticError.  The integer quotient is read back
    as balanced nb-byte digits q and returned only under the certificate
    max|q| * max|d| * min(n, len(d)) < 2**(8*nb-1): then no coefficient
    of q*d overflows its digit either, so q*d and p, equal at t, are equal
    digit by digit and q is the true quotient.  Without it the result is
    None, and the caller divides term by term.
    """
    half = 1 << (8 * nb - 1)
    spread = max(map(abs, d)) * min(n, len(d))
    if spread >= half:  # no nonzero q could pass; d may not even fit
        return None
    quotient, rem = divmod(_pack(p, nb), _pack(d, nb))
    if rem:
        raise ArithmeticError("inexact polynomial division")
    try:
        q = _unpack(quotient, nb, n)
    except OverflowError:
        return None
    return q if max(map(abs, q)) * spread < half else None


def laurent_gcd(a, b):
    """Monic-content gcd of two nonzero Laurent polynomials.

    The result is primitive with valuation 0 (units, i.e. monomials, are
    divided out), so a trivial gcd comes back as the constant 1.
    """
    if a.is_zero or b.is_zero:
        raise ValueError("gcd of zero polynomial")
    q = math.lcm(a.q, b.q)
    _, pa = a._on_grid(q)
    _, pb = b._on_grid(q)
    g = _int_poly_gcd(pa[::-1], pb[::-1])
    # ascending, g[0] != 0 after primitive trim
    return LaurentPolynomial._from_primitive(q, 0, g[::-1], Fraction(1))


def laurent_divexact(a, g):
    """Exact quotient a/g of Laurent polynomials (g must divide a)."""
    if g.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    if a.is_zero:
        return LaurentPolynomial.zero()
    q = math.lcm(a.q, g.q)
    lo_a, pa = a._on_grid(q)
    lo_g, pg = g._on_grid(q)
    return LaurentPolynomial._from_primitive(q, lo_a - lo_g,
                                             _divexact_ascending(pa, pg),
                                             a.content / g.content)


# -- integer lists on one grid ----------------------------------------------
#
# The series elimination kernel (`troplift.linalg`) runs on the fields a
# LaurentPolynomial stores, all on one grid t^(1/q): a nonzero entry is
# the triple (low, content, coeffs), a positive integer content times a
# primitive ascending list with nonzero ends whose first slot sits at
# grid exponent low, and zero is None.  Products and exact quotients of
# primitive lists are primitive (Gauss's lemma), so only the difference
# takes a content gcd.
#
# Given a precision `prec`, each kernel returns only the terms of its
# result below t^prec, which depend only on the terms of its operands
# below some order, so the truncated elimination pass runs on cut
# triples.  A cut list need not be primitive.

def to_grid(p, q, scale):
    """p * scale as a triple on t^(1/q), a refinement of p's grid.

    `scale` must clear the denominator of p's content.
    """
    if not p.coeffs:
        return None
    low, coeffs = p._on_grid(q)
    c = p.content
    return low, c.numerator * (scale // c.denominator), coeffs


def from_grid(x, q, scale):
    """The LaurentPolynomial x / scale of a triple x on t^(1/q)."""
    if x is None:
        return LaurentPolynomial.zero()
    low, c, coeffs = x
    return LaurentPolynomial._from_primitive(q, low, coeffs, Fraction(c, scale))


def _cut(low, c, coeffs, prec):
    """The triple of c * coeffs at t^low, less its terms at exponents >= prec.

    Trims zero slots at both ends; None when nothing is left.  The list
    that is left need not be primitive.
    """
    if prec is not None:
        coeffs = coeffs[:max(0, prec - low)]
    low, coeffs = _trimmed(low, coeffs)
    return (low, c, coeffs) if coeffs else None


def grid_cut(x, prec):
    """The triple x less its terms at exponents >= prec."""
    return None if x is None else _cut(*x, prec)


def grid_mul(x, y, prec=None):
    """Product of two triples; with `prec`, only its terms below t^prec.

    Those terms involve only the factors' first prec - low slots, where
    low is the product's lowest exponent, so the factors are cut first.
    """
    if x is None or y is None:
        return None
    low = x[0] + y[0]
    if prec is None:
        return low, x[1] * y[1], _mul_lists(x[2], y[2])
    n = prec - low
    if n <= 0:
        return None
    return _cut(low, x[1] * y[1], _mul_lists(x[2][:n], y[2][:n]), prec)


def grid_sub(x, y, prec=None):
    """Difference of two triples: one aligned combine and one content gcd.

    With `prec`, only its terms below t^prec.
    """
    if y is None:
        return x if prec is None else grid_cut(x, prec)
    ly, cy, b = y
    if x is None:
        neg = ly, cy, [-v for v in b]
        return neg if prec is None else grid_cut(neg, prec)
    lx, cx, a = x
    g = math.gcd(cx, cy)
    low, out = _combine(lx, a, cx // g, ly, b, -(cy // g))
    if prec is not None:
        out = out[:max(0, prec - low)]
    low, out = _trimmed(low, out)
    if not out:
        return None
    h = _int_content(out)
    if h != 1:
        out = [v // h for v in out]
    return low, g * h, out


def grid_divexact(x, y, prec=None):
    """Exact quotient of two triples; raises ArithmeticError if inexact.

    With `prec`, only the quotient's terms below t^prec, from the first
    prec - low slots of x and y (low the quotient's lowest exponent): the
    power series x/y, one checked integer divmod per term.  Cut operands
    need not be primitive, so their contents are multiplied back in (less
    their gcd) and the quotient carries content 1.
    """
    low = x[0] - y[0]
    if prec is None:
        c, r = divmod(x[1], y[1])
        if r:
            raise ArithmeticError("inexact content division")
        return low, c, _divexact_ascending(x[2], y[2])
    n = prec - low
    if n <= 0:
        return None
    g = math.gcd(x[1], y[1])
    a, b = x[1] // g, y[1] // g
    d = y[2][:n]
    if b != 1:
        d = [b * v for v in d]
    r = [a * v for v in x[2][:n]] if a != 1 else x[2][:n]
    r += [0] * (n + len(d) - 1 - len(r))
    return _cut(low, 1, _quotient_digits(r, d, n), prec)


def grid_expand(den, windows):
    """Coefficients of x/den at grid orders lo..hi, for each (x, lo, hi).

    `den` is a nonzero triple and each x a triple or None, all on one
    grid t^(1/q); order e is the coefficient of t^(e/q) in the expansion
    of x/den about t=0.  One truncated inverse of den's list serves every
    window, through order need, the highest a window reads of it.  Its
    coefficient e_j carries at most d0**(j+1) in its denominator, d0 the
    list's first slot, so inv[j] = d0**(need+1) * e_j is an integer and
    each order takes one exact `//`.  A monomial den needs one term.
    Returns one list of hi - lo + 1 Fractions per window.
    """
    dlow, dc, d = den
    need = max([0] + [hi - x[0] + dlow for x, _, hi in windows if x])
    if len(d) == 1:
        need = 0
    d = d[:need + 1]
    d0 = d[0]
    inv = [d0 ** need]
    for j in range(1, need + 1):
        inv.append(-sum(d[i] * inv[j - i]
                        for i in range(1, min(j, len(d) - 1) + 1) if d[i])
                   // d0)
    scale = dc * d0 ** (need + 1)
    out = []
    for x, lo, hi in windows:
        if x is None:
            out.append([Fraction(0)] * (hi - lo + 1))
            continue
        low, c, a = x
        shift = low - dlow
        out.append([Fraction(c * sum(a[i] * inv[k - i]
                                     for i in range(max(0, k - need),
                                                    min(k, len(a) - 1) + 1)),
                              scale)
                     for k in range(lo - shift, hi - shift + 1)])
    return out


def _unit_normalized(num, den):
    """Divide out the denominator's unit part: val(den)=0, lowest coeff 1."""
    if den.is_one:
        return num, den
    s = den.valuation()
    if s:
        num = num.shift(-s)
        den = den.shift(-s)
    c = den.lowest_coefficient()
    if c != 1:
        num = num.scale(1 / c)
        den = den.scale(1 / c)
    return num, den


def _cofactor_gcd(a, b):
    """gcd g plus the cofactors a/g, b/g, skipping work on trivial shapes."""
    if a.is_monomial or b.is_monomial:
        return None, a, b
    g = laurent_gcd(a, b)
    if g.is_monomial:
        return None, a, b
    return g, laurent_divexact(a, g), laurent_divexact(b, g)


class PuiseuxFraction:
    """Exact scalar: a ratio of Laurent polynomials in t**(1/q).

    Canonical form: the denominator is nonzero with valuation 0, lowest
    coefficient 1, and coprime to the numerator; zero is 0/1.  Canonical
    form is unique, so equality and hashing are structural.  Instances
    are immutable and safe to share.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _coerce_poly(num)
        den = LaurentPolynomial.one() if den is None else _coerce_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("denominator is zero")
        if num.is_zero:
            self.num = LaurentPolynomial.zero()
            self.den = LaurentPolynomial.one()
            return
        if not den.is_one:
            _, num, den = _cofactor_gcd(num, den)
            num, den = _unit_normalized(num, den)
        self.num = num
        self.den = den

    @classmethod
    def _exact(cls, num, den):
        """Trusted constructor for already-canonical num/den pairs."""
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @classmethod
    def zero(cls):
        return cls._exact(LaurentPolynomial.zero(), LaurentPolynomial.one())

    @classmethod
    def one(cls):
        return cls._exact(LaurentPolynomial.one(), LaurentPolynomial.one())

    @classmethod
    def constant(cls, c):
        return cls(LaurentPolynomial.constant(c))

    @classmethod
    def t_power(cls, e):
        return cls._exact(LaurentPolynomial.t_power(e), LaurentPolynomial.one())

    @classmethod
    def from_terms(cls, terms):
        return cls(LaurentPolynomial.from_terms(terms))

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_one(self):
        return self.num.is_one and self.den.is_one

    @property
    def term_count(self):
        return self.num.term_count + self.den.term_count

    def valuation(self):
        """Exact valuation: lowest exponent of num minus that of den; INF at 0."""
        if self.num.is_zero:
            return INF
        return self.num.valuation() - self.den.valuation()

    def __bool__(self):
        return not self.num.is_zero

    def __add__(self, other):
        other = _as_fraction(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        d1, d2 = self.den, other.den
        if d1.is_one and d2.is_one:
            return PuiseuxFraction._exact(self.num + other.num,
                                          LaurentPolynomial.one())
        # classical reduced addition: only gcd(d1, d2) can cancel, and the
        # only factors the new numerator can share with the denominator
        # sit inside that gcd
        g, d1g, d2g = _cofactor_gcd(d1, d2)
        num = self.num * d2g + other.num * d1g
        if num.is_zero:
            return PuiseuxFraction.zero()
        if g is None:
            den = d1 * d2g
        else:
            g2, num, g = _cofactor_gcd(num, g)
            den = d1g * (d2g * g)
        return PuiseuxFraction._exact(*_unit_normalized(num, den))

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxFraction._exact(-self.num, self.den)

    def __sub__(self, other):
        other = _as_fraction(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_fraction(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return PuiseuxFraction.zero()
        if self.den.is_one and other.den.is_one:
            return PuiseuxFraction._exact(self.num * other.num,
                                          LaurentPolynomial.one())
        # cross-cancel: with both operands reduced, the product of the
        # cofactors is reduced again
        _, n1, d2 = _cofactor_gcd(self.num, other.den)
        _, n2, d1 = _cofactor_gcd(other.num, self.den)
        return PuiseuxFraction._exact(*_unit_normalized(n1 * n2, d1 * d2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_fraction(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero")
        if self.is_zero:
            return self
        _, n1, n2 = _cofactor_gcd(self.num, other.num)
        _, dl, d2 = _cofactor_gcd(self.den, other.den)
        return PuiseuxFraction._exact(*_unit_normalized(n1 * d2, dl * n2))

    def __rtruediv__(self, other):
        other = _as_fraction(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def shift(self, e):
        """Multiply by the monomial t**e; shifts the valuation by exactly e."""
        return PuiseuxFraction._exact(self.num.shift(e), self.den)

    def substitute_power(self, n):
        """Substitute t -> t**n for a positive rational n."""
        return PuiseuxFraction._exact(self.num.substitute_power(n),
                                      self.den.substitute_power(n))

    def series_coefficients(self, upto):
        """Coefficients of the expansion about t=0 for all exponents <= upto.

        Returns {exponent: coefficient}, zeros omitted; exponents lie on
        the common grid of num and den.
        """
        q = math.lcm(self.num.q, self.den.q)
        s = math.lcm(self.num.content.denominator,
                     self.den.content.denominator)
        num = to_grid(self.num, q, s)
        if num is None:
            return {}
        den = to_grid(self.den, q, s)
        lo, hi = num[0] - den[0], math.floor(Fraction(upto) * q)
        coeffs = grid_expand(den, [(num, lo, hi)])[0]
        return {Fraction(e, q): c for e, c in enumerate(coeffs, lo) if c}

    def coefficient_at(self, e):
        """Exact coefficient of t**e in the expansion about t=0."""
        e = Fraction(e)
        if self.num.is_zero or e < self.valuation():
            return Fraction(0)
        return self.series_coefficients(e).get(e, Fraction(0))

    def __eq__(self, other):
        other = _as_fraction(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den.is_one:
            return repr(self.num)
        return "(%r)/(%r)" % (self.num, self.den)


def _as_fraction(x):
    if isinstance(x, PuiseuxFraction):
        return x
    if isinstance(x, (int, Fraction, LaurentPolynomial)):
        return PuiseuxFraction(x)
    return NotImplemented


# -- module-level operation surface ------------------------------------------

def valuation(x):
    """Valuation of a scalar or Laurent polynomial; INF exactly for zero."""
    return x.valuation()


def coefficient_at(x, e):
    """Coefficient of t**e in the expansion of x about t=0."""
    if isinstance(x, LaurentPolynomial):
        return x.coefficient(e)
    return x.coefficient_at(e)


def scale_by_monomial(x, e):
    """x * t**e."""
    return x.shift(e)


def regrid(x, n):
    """Substitute t -> t**n for a positive integer n, multiplying exponents by n."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("regrid factor must be a positive integer")
    return x.substitute_power(n)
