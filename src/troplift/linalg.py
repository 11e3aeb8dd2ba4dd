"""Exact linear algebra: one fraction-free elimination kernel, two pivot keys.

The kernel reduces an augmented system of series scalars in two
fraction-free passes (Bareiss, "Sylvester's identity and multistep
integer-preserving Gaussian elimination", Math. Comp. 22, 1968; Nakos,
Turner and Williams, "Fraction-free algorithms for linear and polynomial
equations", SIGSAM Bull. 31(3), 1997).  Forward elimination updates only
the rows below each pivot, by cross-multiplication divided exactly by the
previous pivot; back substitution then brings each earlier pivot row to
the last pivot D, dividing exactly by the row's own pivot.  Every entry
either pass divides out is a minor of the input, so every division is
exact.  The kernel runs on grid triples: each row is cleared of its
denominators, scaled to integer contents and put on the system's common
grid t^(1/Q), where an entry is a content times a primitive integer list
(`troplift.series.grid_mul`, `grid_sub`, `grid_divexact`; the last raises
ArithmeticError on an inexact division).  Laurent polynomial objects are
built once, from the eliminated lists.  When elimination ends, every
pivot row carries the same pivot D, so each reduced entry is N/D.

The two callers differ only in the pivot key.  `rref_solve`, which
`troplift.lift.decide` runs, pivots by least valuation: full pivoting by
valuation (Caruso, Roe and Vaccon, "p-adic stability in linear algebra",
ISSAC 2015), so every reduced free-column entry has valuation >= 0, which
the lifting stages rely on.  `kernel_basis`, which the circuit oracle
runs, pivots by least |valuation|: any pivot order gives the same kernel,
and that one keeps the oracle's small entries sparse.  `rref_solve`
returns the numerator rows N and D themselves, and builds a reduced entry
N/D only when a caller reads `matrix` or `rhs`; `kernel_basis` returns its
vectors scaled by D.
"""

from __future__ import annotations

import math
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
    "LinearForm",
    "rref_solve",
    "kernel_basis",
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


def _bareiss(rows, ncols, key):
    """Fraction-free reduction of augmented rows of grid triples, in place.

    Each row holds `ncols` coefficients, optionally followed by its
    right-hand side, all triples on one grid (None is zero).  Two passes:

    - Forward elimination.  Step k takes as pivot D_k the nonzero
      coefficient with the smallest (key(x), column, row) among the rows
      not used yet, swaps its row into place k, and replaces every row
      below by (D_k*a - f*b) / D_(k-1), undivided at k = 0.  Each updated
      entry is a minor of the input (Sylvester's identity), so the
      division is exact.  Every candidate at step k is D_(k-1) times its
      Schur-complement entry, so a key on valuations ranks those entries.
    - Back substitution.  With rank r and D = D_(r-1), row r-1 is already
      final.  Pivot row i = r-2, ..., 0, holding U[i] from the forward
      pass, becomes D in its own pivot column c_i, zero in the other pivot
      columns and, in each other column f,
      N[i][f] = (D*U[i][f] - sum_(j>i) U[i][c_j]*N[j][f]) / D_i.
      N[i][f] is the minor of the pivot rows in the pivot columns with
      c_i replaced by f (Cramer's rule), so this division is exact too.

    Returns the pivot columns and the row order: row i now holds the
    reduction of input row order[i].  Afterwards row i < r carries D in
    column pivot_cols[i] and zero in every other pivot column, so its
    reduced entries are N[i][j]/D, and the rows past the rank are zero but
    for their right-hand sides.
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
            new = ([grid_sub(grid_mul(piv, a), grid_mul(f, b))
                    for a, b in zip(row, prow)]
                   if f else [grid_mul(piv, a) for a in row])
            rows[i] = new if prev is None else [grid_divexact(x, prev) if x
                                                else x for x in new]
        pivots.append(piv)
        pivot_cols.append(c)
    rank = len(pivot_cols)
    if rank < 2:
        return pivot_cols, order
    d = pivots[-1]
    width = len(rows[0])
    others = [f for f in range(width) if f not in pivot_cols]
    for i in range(rank - 2, -1, -1):
        row = rows[i]
        new = [None] * width
        new[pivot_cols[i]] = d
        for f in others:
            acc = grid_mul(d, row[f])
            for j in range(i + 1, rank):
                u = row[pivot_cols[j]]
                x = rows[j][f]
                if u and x:
                    acc = grid_sub(acc, grid_mul(u, x))
            new[f] = grid_divexact(acc, pivots[i]) if acc else acc
        rows[i] = new
    return pivot_cols, order


# Pivot keys on a triple (low, content, coefficients); on one grid, low
# orders valuations.  Ties go to the sparsest entry, to limit fill-in.

def _least_valuation_key(x):
    low, _, coeffs = x
    return low, len(coeffs) - coeffs.count(0)


def _near_zero_key(x):
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


def _eliminate(rows, ncols, key):
    """Bareiss elimination of rows of series scalars, cleared of denominators.

    Each cleared row i is scaled by L_i, the lcm of its contents'
    denominators, and runs through `_bareiss` with pivot key `key` as
    integer triples on the system's common grid Q (see
    `troplift.series.to_grid`).  Scaling the input rows scales every minor
    by the scales of the rows it spans, so the pivot rows come back scaled
    by S, the product of the pivot rows' scales, and a row past the rank
    by S times its own; the objects are built with those factors divided
    out.  Returns the eliminated Laurent numerator rows N, the pivot
    columns and the common pivot D (1 at rank 0); each reduced entry is
    N/D.
    """
    polys = [_clear_denominators(row) for row in rows]
    q = math.lcm(*(p.q for row in polys for p in row))
    scales = [math.lcm(*(p.content.denominator for p in row))
              for row in polys]
    grid = [[to_grid(p, q, s) for p in row] for row, s in zip(polys, scales)]
    pivot_cols, order = _bareiss(grid, ncols, key)
    rank = len(pivot_cols)
    s = math.prod(scales[k] for k in order[:rank])
    polys = [[from_grid(x, q, s if i < rank else s * scales[order[i]])
              for x in row] for i, row in enumerate(grid)]
    d = polys[0][pivot_cols[0]] if rank else LaurentPolynomial.one()
    return polys, pivot_cols, d


def rref_solve(matrix, rhs):
    """Reduce the augmented system (matrix | rhs) of series scalars.

    Pivots by least valuation, so every reduced entry of a free column has
    valuation >= 0.  Inconsistency is reported through the `consistent`
    flag, never raised.
    """
    rhs = list(rhs)
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if len(rhs) != m:
        raise ValueError("rhs length does not match row count")
    polys, pivot_cols, d = _eliminate(
        [[*row, b] for row, b in zip(matrix, rhs)], n, _least_valuation_key)
    rank = len(pivot_cols)
    return RrefResult(
        num=tuple(map(tuple, polys)),
        den=d,
        pivot_cols=tuple(pivot_cols),
        free_cols=tuple(c for c in range(n) if c not in pivot_cols),
        rank=rank,
        consistent=not any(row[n] for row in polys[rank:]),
    )


def kernel_basis(matrix, ncols=None):
    """Basis of the right kernel of a matrix of series scalars.

    One vector per free column f: the reduced-form basis vector scaled by
    the common pivot D, so D at f, -N[i][f] at the pivot column of pivot
    row i and zero elsewhere; every entry has denominator 1.  An empty
    matrix needs ``ncols`` and gives the unit vectors.
    """
    if not matrix and ncols is None:
        raise ValueError("empty matrix needs an explicit column count")
    n = len(matrix[0]) if matrix else ncols
    polys, pivot_cols, d = _eliminate(matrix, n, _near_zero_key)
    zero = PuiseuxFraction.zero()
    basis = []
    for f in range(n):
        if f in pivot_cols:
            continue
        vec = [zero] * n
        vec[f] = PuiseuxFraction(d)
        for i, c in enumerate(pivot_cols):
            vec[c] = PuiseuxFraction(-polys[i][f])
        basis.append(tuple(vec))
    return basis
