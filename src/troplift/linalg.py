"""Exact linear algebra: one fraction-free elimination kernel, used twice.

The kernel reduces an augmented system over an integral domain in two
fraction-free passes (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968; Nakos,
Turner and Williams, "Fraction-free algorithms for linear and polynomial
equations", SIGSAM Bull. 31(3), 1997).  Forward elimination updates only
the rows below each pivot, by cross-multiplication divided exactly by the
previous pivot; back substitution then brings each earlier pivot row to
the last pivot D, dividing exactly by the row's own pivot.  Every entry
either pass divides out is a minor of the input, so every division is
exact.  The kernel runs on Python ints for the rational coefficient
system, after each row is cleared to integers, and on integer
coefficient lists for the series system: each row is cleared of its
denominators, scaled to integer contents and put on the system's common
grid t^(1/Q), where an entry is a content times a primitive list
(`troplift.series.grid_mul`, `grid_sub`, `grid_divexact`; the last
raises ArithmeticError on an inexact division).  Laurent polynomial
objects are built once, from the eliminated lists.  When elimination
ends, every pivot row carries the same pivot D, so each reduced entry is
N/D.  `rref_solve` returns the numerator rows N and D themselves, and
builds a reduced entry N/D only when a caller reads `matrix` or `rhs`;
`kernel_basis` returns its vectors scaled by D.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from troplift.series import (
    LaurentPolynomial,
    PuiseuxFraction,
    from_grid,
    grid_divexact,
    grid_mul,
    grid_sub,
    laurent_divexact,
    laurent_gcd,
    to_grid,
)

__all__ = [
    "Matrix",
    "RrefResult",
    "AffineSpace",
    "LinearForm",
    "rref_solve",
    "solve_affine",
    "kernel_basis",
    "vanishes_identically",
]


@dataclass(frozen=True)
class Matrix:
    """Dense rectangular matrix of field elements, a sequence of rows."""

    rows: tuple

    @classmethod
    def from_rows(cls, rows):
        rows = tuple(tuple(r) for r in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
        return cls(rows)

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, i):
        return self.rows[i]

    def __len__(self):
        return len(self.rows)


@dataclass(frozen=True)
class RrefResult:
    """Outcome of fraction-free reduced row elimination on an augmented system.

    `num` holds the eliminated Laurent numerator rows N, each with its
    right-hand side last, and `den` the common pivot D.  Pivot row i
    carries D in column pivot_cols[i] and 0 in every other pivot column,
    so its reduced entries are N[i][j]/D; rows past `rank` are zero but
    for their right-hand sides, which are kept undivided.

    `matrix` and `rhs` are those reduced entries as series scalars, built
    on first read: pivot rows carry 1 in their pivot column and 0 in
    every other pivot column, rows past `rank` are identically zero, and
    the solution set of (matrix, rhs) equals that of the input system.
    """

    num: tuple
    den: LaurentPolynomial
    pivot_cols: tuple
    free_cols: tuple
    rank: int
    consistent: bool

    def _entry(self, i, j):
        x = self.num[i][j]
        return PuiseuxFraction(x, self.den if i < self.rank else None)

    @cached_property
    def matrix(self):
        n = len(self.pivot_cols) + len(self.free_cols)
        return Matrix.from_rows([[self._entry(i, j) for j in range(n)]
                                 for i in range(len(self.num))])

    @cached_property
    def rhs(self):
        return tuple(self._entry(i, len(row) - 1)
                     for i, row in enumerate(self.num))


@dataclass(frozen=True)
class AffineSpace:
    """offset + span(basis): the solution set of a rational linear system."""

    offset: tuple
    basis: tuple
    dim: int

    def point(self, weights):
        out = list(self.offset)
        for w, vec in zip(weights, self.basis):
            for i, v in enumerate(vec):
                out[i] += w * v
        return tuple(out)


@dataclass(frozen=True)
class LinearForm:
    """Affine-linear form constant + sum(coeffs[i] * y_i) over ambient R^N."""

    constant: Fraction
    coeffs: tuple  # sorted ((index, coefficient), ...) with no zeros

    @classmethod
    def make(cls, constant, coeffs):
        items = tuple(sorted((i, c) for i, c in coeffs.items() if c))
        return cls(Fraction(constant), items)

    def evaluate(self, values):
        acc = self.constant
        for i, c in self.coeffs:
            acc += c * values[i]
        return acc

    def gradient_dot(self, vector):
        acc = Fraction(0)
        for i, c in self.coeffs:
            acc += c * vector[i]
        return acc


def _bareiss(rows, ncols, key, mul, sub, divexact):
    """Fraction-free reduction of augmented rows to reduced row form, in place.

    Each row holds `ncols` coefficients, optionally followed by its
    right-hand side, all in an integral domain whose product, difference
    and exact quotient are `mul`, `sub` and `divexact`; zero is falsy and
    `sub(x, x)` returns it.  `solve_affine` runs it on ints with
    `operator.mul`, `sub` and `floordiv`; `_eliminate` runs the series
    system on integer coefficient lists on one grid, through
    `troplift.series.grid_mul`, `grid_sub` and `grid_divexact`.  Two
    passes:

    - Forward elimination.  Step k takes as pivot D_k the nonzero
      coefficient with the smallest (key(x), column, row) among the rows
      not used yet, swaps its row into place k, and replaces every row
      below by (D_k*a - f*b) / D_(k-1), undivided at k = 0.  Each updated
      entry is a minor of the input (Sylvester's identity), so the
      division is exact.
    - Back substitution.  With rank r and D = D_(r-1), row r-1 is already
      final.  Pivot row i = r-2, ..., 0, holding U[i] from the forward
      pass, becomes D in its own pivot column c_i, zero in the other pivot
      columns and, in each other column f,
      N[i][f] = (D*U[i][f] - sum_(j>i) U[i][c_j]*N[j][f]) / D_i.
      N[i][f] is the minor of the pivot rows in the pivot columns with
      c_i replaced by f (Cramer's rule), so this division is exact too.

    `divexact` must return the exact quotient.  Returns the pivot columns
    and the row order: row i now holds the reduction of input row
    order[i].  Afterwards row i < r carries D in column pivot_cols[i] and
    zero in every other pivot column, so its reduced entries are N[i][j]/D,
    and the rows past the rank are zero but for their right-hand sides.
    """
    m = len(rows)
    order = list(range(m))
    pivot_cols = []
    pivots = []
    for rank in range(min(m, ncols)):
        best = None
        for c in range(ncols):
            if c in pivot_cols:
                continue
            for r in range(rank, m):
                x = rows[r][c]
                if x:
                    k = (key(x), c, r)
                    if best is None or k < best:
                        best = k
        if best is None:
            break
        _, c, r = best
        rows[rank], rows[r] = rows[r], rows[rank]
        order[rank], order[r] = order[r], order[rank]
        prow = rows[rank]
        piv = prow[c]
        prev = pivots[-1] if pivots else None
        for i in range(rank + 1, m):
            row = rows[i]
            f = row[c]
            new = ([sub(mul(piv, a), mul(f, b)) for a, b in zip(row, prow)]
                   if f else [mul(piv, a) for a in row])
            rows[i] = new if prev is None else [divexact(x, prev) if x else x
                                                for x in new]
        pivots.append(piv)
        pivot_cols.append(c)
    rank = len(pivot_cols)
    if rank < 2:
        return pivot_cols, order
    d = pivots[-1]
    zero = sub(d, d)
    width = len(rows[0])
    others = [f for f in range(width) if f not in pivot_cols]
    for i in range(rank - 2, -1, -1):
        row = rows[i]
        new = [zero] * width
        new[pivot_cols[i]] = d
        for f in others:
            acc = mul(d, row[f]) if row[f] else zero
            for j in range(i + 1, rank):
                u = row[pivot_cols[j]]
                x = rows[j][f]
                if u and x:
                    acc = sub(acc, mul(u, x))
            new[f] = divexact(acc, pivots[i]) if acc else acc
        rows[i] = new
    return pivot_cols, order


def _nullspace(n, pivot_cols, neg_entry, zero, scale):
    """Kernel basis of a reduced system, one vector per free column f.

    The vector holds `scale` at f, neg_entry(i, f) at the pivot column of
    pivot row i, and zero elsewhere.  With scale 1 and neg_entry the
    negated reduced entry -N/D, this is the usual basis; with scale D and
    neg_entry the negated eliminated entry -N, it is that basis scaled
    by D.
    """
    basis = []
    for f in range(n):
        if f in pivot_cols:
            continue
        vec = [zero] * n
        vec[f] = scale
        for i, c in enumerate(pivot_cols):
            vec[c] = neg_entry(i, f)
        basis.append(tuple(vec))
    return basis


def _grid_key(x):
    # smallest |valuation| first to keep expansion orders near zero, then
    # sparsest entry to limit fill-in; on one grid |low| orders |valuation|
    low, _, coeffs = x
    return abs(low), len(coeffs) - coeffs.count(0)


def _clear_denominators(entries):
    """Numerators of a row of series scalars times their lcm."""
    dens = [x.den for x in entries if not x.den.is_one]
    if not dens:
        return [x.num for x in entries]
    common = dens[0]
    for d in dens[1:]:
        common = laurent_divexact(common, laurent_gcd(common, d)) * d
    return [x.num * (common if x.den.is_one
                     else laurent_divexact(common, x.den))
            for x in entries]


def _integer_row(row, rhs):
    """An augmented row of rationals times the lcm of its denominators."""
    entries = [*row, rhs]
    scale = math.lcm(*(x.denominator for x in entries))
    return [x.numerator * (scale // x.denominator) for x in entries]


def _eliminate(rows, ncols):
    """Bareiss elimination of rows of series scalars, cleared of denominators.

    Each cleared row i is scaled by L_i, the lcm of its contents'
    denominators, and runs through `_bareiss` as integer triples on the
    system's common grid Q (see `troplift.series.to_grid`).  Scaling the
    input rows scales every minor by the scales of the rows it spans, so
    the pivot rows come back scaled by S, the product of the pivot rows'
    scales, and a row past the rank by S times its own; the objects are
    built with those factors divided out.  Returns the eliminated Laurent
    numerator rows N, the pivot columns and the common pivot D (1 at
    rank 0); each reduced entry is N/D.
    """
    polys = [_clear_denominators(row) for row in rows]
    q = math.lcm(*(p.q for row in polys for p in row))
    scales = [math.lcm(*(p.content.denominator for p in row))
              for row in polys]
    grid = [[to_grid(p, q, s) for p in row] for row, s in zip(polys, scales)]
    pivot_cols, order = _bareiss(grid, ncols, _grid_key, grid_mul, grid_sub,
                                 grid_divexact)
    rank = len(pivot_cols)
    s = math.prod(scales[k] for k in order[:rank])
    polys = [[from_grid(x, q, s if i < rank else s * scales[order[i]])
              for x in row] for i, row in enumerate(grid)]
    d = polys[0][pivot_cols[0]] if rank else LaurentPolynomial.one()
    return polys, pivot_cols, d


def rref_solve(matrix, rhs):
    """Reduce the augmented system (matrix | rhs) of series scalars.

    Inconsistency is reported through the `consistent` flag, never raised.
    """
    rhs = list(rhs)
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if len(rhs) != m:
        raise ValueError("rhs length does not match row count")
    polys, pivot_cols, d = _eliminate(
        [[*row, b] for row, b in zip(matrix, rhs)], n)
    rank = len(pivot_cols)
    return RrefResult(
        num=tuple(map(tuple, polys)),
        den=d,
        pivot_cols=tuple(pivot_cols),
        free_cols=tuple(c for c in range(n) if c not in pivot_cols),
        rank=rank,
        consistent=not any(row[n] for row in polys[rank:]),
    )


def solve_affine(matrix, rhs, ncols=None):
    """Solution set of a rational linear system as an AffineSpace, or None.

    Accepts a (possibly empty) list of coefficient rows; an empty
    constraint list leaves the whole space of dimension ``ncols``.
    """
    rhs = list(rhs)
    if len(rhs) != len(matrix):
        raise ValueError("rhs length does not match row count")
    if not matrix and ncols is None:
        raise ValueError("empty system needs an explicit column count")
    n = len(matrix[0]) if matrix else ncols
    if ncols is not None and ncols != n:
        raise ValueError("declared column count does not match rows")
    ints = [_integer_row(row, b) for row, b in zip(matrix, rhs)]
    # every nonzero integer is an equally good pivot
    pivot_cols, _ = _bareiss(ints, n, lambda x: 0, operator.mul,
                             operator.sub, operator.floordiv)
    rank = len(pivot_cols)
    if any(row[n] for row in ints[rank:]):
        return None
    d = ints[0][pivot_cols[0]] if rank else 1
    offset = [Fraction(0)] * n
    for c, row in zip(pivot_cols, ints):
        offset[c] = Fraction(row[n], d)
    basis = _nullspace(n, pivot_cols, lambda i, f: Fraction(-ints[i][f], d),
                       Fraction(0), Fraction(1))
    return AffineSpace(offset=tuple(offset), basis=tuple(basis),
                       dim=len(basis))


def kernel_basis(matrix, ncols=None):
    """Basis of the right kernel of a matrix of series scalars.

    Each vector is the reduced-form basis vector scaled by the common
    pivot D: D at its free column and -N at the pivot columns, so every
    entry has denominator 1.  An empty matrix needs ``ncols`` and gives
    the unit vectors.
    """
    if not matrix and ncols is None:
        raise ValueError("empty matrix needs an explicit column count")
    n = len(matrix[0]) if matrix else ncols
    polys, pivot_cols, d = _eliminate(matrix, n)
    return _nullspace(n, pivot_cols,
                      lambda i, f: PuiseuxFraction(-polys[i][f]),
                      PuiseuxFraction.zero(), PuiseuxFraction(d))


def vanishes_identically(form, space):
    """True iff an affine-linear form is 0 at every point of the space."""
    if form.evaluate(space.offset):
        return False
    return all(not form.gradient_dot(vec) for vec in space.basis)
