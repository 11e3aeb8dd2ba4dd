"""Exact JSON file formats for instances, points, witnesses and results.

Rationals travel as strings like "-3/7" so no reader can silently round
them; floats are rejected everywhere.  Parsing is strict: unknown fields
and malformed values fail with the offending location.  A scalar is read
straight into the dense integer form of `LaurentPolynomial`, and written
from it, with no Fraction per coefficient.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from troplift.lift import MAX_GRID_SPAN, Instance, OversizedEntry
from troplift.series import INF, LaurentPolynomial, PuiseuxFraction

__all__ = [
    "FormatError",
    "parse_instance",
    "parse_point",
    "parse_witness",
    "serialize_instance",
    "serialize_point",
    "serialize_witness",
    "serialize_scalar",
    "parse_scalar",
    "render_series",
]

_RATIONAL = re.compile(r"^-?\d+(/[1-9]\d*)?$")


class FormatError(ValueError):
    """Malformed input file; carries the location of the offending field."""

    def __init__(self, message, location):
        super().__init__("%s: %s" % (location, message))
        self.location = location
        self.reason = message


def _require_keys(obj, allowed, required, loc):
    if not isinstance(obj, dict):
        raise FormatError("expected an object", loc)
    for key in obj:
        if key not in allowed:
            raise FormatError("unknown field %r" % key, loc)
    for key in required:
        if key not in obj:
            raise FormatError("missing field %r" % key, loc)


def _parse_ratio(value, loc):
    """(numerator, positive denominator) of an exact rational string."""
    if not isinstance(value, str):
        raise FormatError("rationals must be exact strings like \"3/4\", got %s"
                          % type(value).__name__, loc)
    if not _RATIONAL.match(value):
        raise FormatError("not an exact rational: %r" % value, loc)
    num, _, den = value.partition("/")
    try:
        return int(num), int(den or 1)
    except ValueError as exc:  # past the interpreter's integer digit limit
        raise FormatError(str(exc), loc) from exc


def _format_rational(f):
    f = Fraction(f)
    if f.denominator == 1:
        return str(f.numerator)
    return "%d/%d" % (f.numerator, f.denominator)


def _parse_int(value, loc, minimum=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError("expected an integer", loc)
    if minimum is not None and value < minimum:
        raise FormatError("must be >= %d" % minimum, loc)
    return value


def _parse_terms(value, loc):
    """(L, {k: summed numerator over L}) of the [k, c] pairs, terms c*t^(k/q).

    L is the lcm of the coefficients' denominators.
    """
    if not isinstance(value, list):
        raise FormatError("expected a list of [exponent, coefficient] pairs", loc)
    pairs = []
    for idx, item in enumerate(value):
        at = "%s[%d]" % (loc, idx)
        if not isinstance(item, list) or len(item) != 2:
            raise FormatError("expected a [exponent, coefficient] pair", at)
        pairs.append((_parse_int(item[0], at + ".exponent"),
                      *_parse_ratio(item[1], at + ".coefficient")))
    lcm = math.lcm(*(d for _, _, d in pairs))
    sums = {}
    for k, n, d in pairs:
        sums[k] = sums.get(k, 0) + n * (lcm // d)
    return lcm, sums


def parse_scalar(obj, default_q, loc):
    """A series scalar, no exponent over MAX_GRID_SPAN steps of its own grid.

    Its own grid is t^(1/g), g the lcm of the denominators of its nonzero
    exponents k/q, so g = q/G and an exponent is |k|/G steps out, for G
    the gcd of q and those k.  Checked before the dense lists are built
    (on that grid) or the fraction reduced, since both are sized by those
    steps.
    """
    _require_keys(obj, {"q", "num", "den"}, {"num"}, loc)
    q = _parse_int(obj["q"], loc + ".q", minimum=1) if "q" in obj else default_q
    parsed = [_parse_terms(obj[key], loc + "." + key)
              for key in ("num", "den") if key in obj]
    ks = [k for _, sums in parsed for k, c in sums.items() if c]
    common = math.gcd(q, *ks)
    steps = max(map(abs, ks), default=0) // common
    if steps > MAX_GRID_SPAN:
        raise FormatError("puts an exponent %d steps of its grid t^(1/%d) "
                          "from 0; the limit is %d"
                          % (steps, q // common, MAX_GRID_SPAN), loc)
    polys = []
    for lcm, sums in parsed:
        slots = {k // common: c for k, c in sums.items() if c}
        low = min(slots, default=0)
        raw = [0] * (max(slots, default=-1) - low + 1)
        for k, c in slots.items():
            raw[k - low] = c
        polys.append(LaurentPolynomial._normalized(q // common, low, raw,
                                                   Fraction(1, lcm)))
    num, *den = polys
    den = den[0] if den else LaurentPolynomial.one()
    if den.is_zero:
        raise FormatError("denominator is zero", loc + ".den")
    return PuiseuxFraction(num, den)


def _serialize_terms(p, q):
    """[k, c] pairs of p on t^(1/q): content n/d times each coefficient."""
    f = q // p.q
    n, d = p.content.numerator, p.content.denominator
    out = []
    for i, c in enumerate(p.coeffs):
        if c:
            g = math.gcd(c, d)
            out.append([(p.low + i) * f, str(n * c // g) if g == d
                        else "%d/%d" % (n * c // g, d // g)])
    return out


def serialize_scalar(x):
    q = math.lcm(x.num.q, x.den.q)
    out = {"q": q, "num": _serialize_terms(x.num, q)}
    if not x.den.is_one:
        out["den"] = _serialize_terms(x.den, q)
    return out


def parse_instance(obj):
    """Instance from its JSON object form; exact round-trip with serialize."""
    _require_keys(obj, {"q", "m", "n", "A", "b"}, {"A", "b"}, "instance")
    q = _parse_int(obj["q"], "instance.q", minimum=1) if "q" in obj else 1
    rows_obj = obj["A"]
    if not isinstance(rows_obj, list) or not rows_obj:
        raise FormatError("expected a non-empty list of rows", "instance.A")
    rows = []
    for i, row in enumerate(rows_obj):
        if not isinstance(row, list) or not row:
            raise FormatError("expected a non-empty row", "instance.A[%d]" % i)
        rows.append([parse_scalar(entry, q, "instance.A[%d][%d]" % (i, j))
                     for j, entry in enumerate(row)])
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise FormatError("rows have differing lengths", "instance.A")
    b_obj = obj["b"]
    if not isinstance(b_obj, list):
        raise FormatError("expected a list", "instance.b")
    rhs = [parse_scalar(entry, q, "instance.b[%d]" % i)
           for i, entry in enumerate(b_obj)]
    if len(rhs) != len(rows):
        raise FormatError("b length %d does not match %d rows"
                          % (len(rhs), len(rows)), "instance.b")
    if "m" in obj and _parse_int(obj["m"], "instance.m", 1) != len(rows):
        raise FormatError("declared m does not match A", "instance.m")
    if "n" in obj and _parse_int(obj["n"], "instance.n", 1) != len(rows[0]):
        raise FormatError("declared n does not match A", "instance.n")
    try:
        return Instance.from_rows(rows, rhs)
    except OversizedEntry as exc:
        raise FormatError(exc.reason, "instance." + exc.location) from exc


def serialize_instance(inst):
    entries = [[serialize_scalar(x) for x in row] for row in inst.matrix]
    rhs = [serialize_scalar(x) for x in inst.rhs]
    return {"q": inst.grid_den, "m": inst.m, "n": inst.n, "A": entries,
            "b": rhs}


def parse_point(obj):
    _require_keys(obj, {"v"}, {"v"}, "point")
    coords_obj = obj["v"]
    if not isinstance(coords_obj, list):
        raise FormatError("expected a list", "point.v")
    coords = []
    for i, c in enumerate(coords_obj):
        loc = "point.v[%d]" % i
        if c == "inf":
            coords.append(INF)
        else:
            coords.append(Fraction(*_parse_ratio(c, loc)))
    return tuple(coords)


def serialize_point(v):
    return {"v": ["inf" if c == INF else _format_rational(c) for c in v]}


def parse_witness(obj):
    """Witness coordinates from {"x": [...]}; result files are accepted too."""
    if isinstance(obj, dict) and "witness" in obj and "x" not in obj:
        coords_obj = obj.get("witness")
        loc = "result.witness"
        if coords_obj is None:
            raise FormatError("result carries no witness", loc)
    else:
        _require_keys(obj, {"x"}, {"x"}, "witness")
        coords_obj = obj["x"]
        loc = "witness.x"
    if not isinstance(coords_obj, list):
        raise FormatError("expected a list", loc)
    return tuple(parse_scalar(entry, 1, "%s[%d]" % (loc, i))
                 for i, entry in enumerate(coords_obj))


def serialize_witness(x):
    return {"x": [serialize_scalar(c) for c in x]}


def render_series(x, upto):
    """Human-readable truncated expansion of a scalar, exact tail marker included."""
    if x.is_zero:
        return "0"
    upto = Fraction(upto)
    coeffs = x.series_coefficients(upto)
    parts = []
    for e in sorted(coeffs):
        c = coeffs[e]
        if e == 0:
            frag = _format_rational(abs(c))
        else:
            power = "t" if e == 1 else ("t^%s" % e if e.denominator == 1
                                        else "t^(%s)" % e)
            frag = power if abs(c) == 1 else "%s*%s" % (_format_rational(abs(c)),
                                                        power)
        if not parts:
            parts.append(frag if c > 0 else "-" + frag)
        else:
            parts.append(("+ " if c > 0 else "- ") + frag)
    rendered = " ".join(parts) if parts else "0"
    tail = x - PuiseuxFraction.from_terms(coeffs)
    if tail:
        rendered += " + O(t^%s)" % tail.valuation()
    return rendered


def loads(text, what):
    try:
        return json.loads(text)
    # a JSONDecodeError, an over-long integer, or lists nested too deep
    except (ValueError, RecursionError) as exc:
        raise FormatError("invalid JSON (%s)" % exc, what) from exc
