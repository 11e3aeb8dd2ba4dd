"""Exact linear algebra: one fraction-free elimination kernel, two pivot keys.

The kernel reduces an augmented system of series scalars fraction-free
(Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 22, 1968; Nakos, Turner and Williams,
"Fraction-free algorithms for linear and polynomial equations", SIGSAM
Bull. 31(3), 1997).  Forward elimination (`_forward`) updates only the
rows below each pivot, by cross-multiplication divided exactly by the
previous pivot; back substitution (`_back`) then brings each earlier
pivot row to the last pivot D, one column at a time (`_back_column`),
dividing exactly by the row's own pivot.  Every entry either pass divides
out is a minor of the input, so every division is exact.  The kernel runs
on grid triples: each row is cleared of its denominators, scaled to
integer contents and put on the system's common grid t^(1/Q), where an
entry is a content times a primitive integer list
(`troplift.series.grid_mul`, `grid_sub`, `grid_divexact`; the last raises
ArithmeticError on an inexact division).  Laurent polynomial objects are
built once, from the eliminated lists.  After the full back pass every
pivot row carries the same pivot D, so each reduced entry is N/D.

The two callers run different passes with different pivot keys.
`kernel_basis`, which the circuit oracle runs, pivots by least
|valuation| (any pivot order gives the same kernel, and that one keeps
the oracle's small entries sparse) and runs both passes, because it
needs every N.  `rref_solve`, which `troplift.lift.decide` runs, pivots
by least valuation: full pivoting by valuation (Caruso, Roe and Vaccon,
"p-adic stability in linear algebra", ISSAC 2015), so every reduced
free-column entry has valuation >= 0, which the lifting stages rely on.
It runs the forward pass only, plus two cheap steps: a back pass over
truncated series that keeps the orders <= 0 of every reduced entry
(`_lowest_orders`), which is all the verdict reads, and, once the free
coordinates are fixed, one exact fraction-free column for the pivot
coordinates (`RrefResult.pivot_values`).  Its N and D, and the reduced
entries N/D, are built by the full back pass on first read only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


@dataclass
class Echelon:
    """A system after the forward pass, on its common grid t^(1/q).

    Nothing modifies it once built (a plain dataclass: the oracle builds
    thousands, and a frozen one costs more to construct).

    `rows[i]` holds U[i], the forward-pass row of input row order[i], as
    grid triples (None is zero); `pivots[i]` is U[i][pivot_cols[i]].
    `scales[i]` divides row i's triples back to the input's scale: the
    full back pass brings every pivot row to scale S, the product of the
    pivot rows' own scales, and a row past the rank keeps S times its own.
    """

    rows: list
    pivot_cols: list
    pivots: list
    q: int
    scales: list

    def den(self):
        """The common pivot D (1 at rank 0)."""
        if not self.pivots:
            return LaurentPolynomial.one()
        return from_grid(self.pivots[-1], self.q, self.scales[0])

    def numerators(self):
        """The full back pass, on a copy: the Laurent numerator rows N."""
        rows, q = list(self.rows), self.q
        _back(rows, self.pivot_cols, self.pivots)
        return [[from_grid(x, q, s) for x in row]
                for row, s in zip(rows, self.scales)]


@dataclass(frozen=True)
class RrefResult:
    """Outcome of fraction-free reduced row elimination on an augmented system.

    The reduced entry of pivot row i in column j is N[i][j]/D, where the
    right-hand side is column -1; pivot row i is 1 in column
    pivot_cols[i] and 0 in every other pivot column.  `head[i][j]` holds
    that entry's coefficients at grid exponents -K..0, lowest first, for
    a K of its column (so `head[i][j][-1]` is its order-0 coefficient):
    every nonzero coefficient of order <= 0 is there, and at least the
    order-0 one.  A free column's K is 0, since its entries have
    valuation >= 0; a right-hand side's reaches its lowest valuation.

    `num` (the eliminated Laurent numerator rows N, right-hand side last),
    `den` (the common pivot D), and `matrix` and `rhs` (the reduced entries
    as series scalars) are built from `echelon` through the full back pass
    on first read.  Rows past `rank` are zero but for their right-hand
    sides, which `num` keeps undivided; the solution set of (matrix, rhs)
    equals that of the input system.
    """

    pivot_cols: tuple
    free_cols: tuple
    rank: int
    consistent: bool
    head: tuple
    echelon: Echelon = field(compare=False, repr=False)

    def pivot_values(self, values):
        """Pivot coordinates B^-1 (b - A_free*y), y = {free column: rational}.

        One fraction-free column: with Y the lcm of y's denominators and
        w_i = Y*U[i][rhs] - sum_f (Y*y_f)*U[i][f], the column
        N_w = Y*(N_rhs - sum_f y_f*N_f) is back-substituted like any
        column of N, and pivot coordinate i is N_w[i] / (Y*D).  Returns
        one series scalar per pivot row.
        """
        ech = self.echelon
        ys = {f: Fraction(y) for f, y in values.items() if y}
        scale = math.lcm(*(y.denominator for y in ys.values()))
        w = []
        for row in ech.rows[:self.rank]:
            acc = _grid_scale(row[-1], scale)
            for f, y in ys.items():
                acc = grid_sub(acc, _grid_scale(row[f], int(y * scale)))
            w.append(acc)
        column = _back_column(ech.rows, ech.pivot_cols, ech.pivots, w)
        d, s = ech.den(), ech.scales[0] * scale
        return tuple(PuiseuxFraction(from_grid(x, ech.q, s), d)
                     for x in column)

    @cached_property
    def num(self):
        return tuple(map(tuple, self.echelon.numerators()))

    @cached_property
    def den(self):
        return self.echelon.den()

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


def _forward(rows, ncols, key):
    """Fraction-free forward elimination of rows of grid triples, in place.

    Each row holds `ncols` coefficients, optionally followed by its
    right-hand side, all triples on one grid (None is zero).  Step k takes
    as pivot D_k the nonzero coefficient with the smallest (key(x), column,
    row) among the rows not used yet, swaps its row into place k, and
    replaces every row below by (D_k*a - f*b) / D_(k-1), undivided at
    k = 0.  Each updated entry is a minor of the input (Sylvester's
    identity), so the division is exact.  Every candidate at step k is
    D_(k-1) times its Schur-complement entry, so a key on valuations ranks
    those entries.

    Returns the pivot columns, the pivots D_0..D_(r-1) and the row order:
    row i now holds U[i], the forward-pass row of input row order[i].
    Rows past the rank are zero but for their right-hand sides.
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
    return pivot_cols, pivots, order


def _back_column(rows, pivot_cols, pivots, w):
    """Back-substitute one column w (an entry per pivot row) fraction-free.

    With rank r and D = D_(r-1), returns N_w with N_w[r-1] = w[r-1] and
    N_w[i] = (D*w[i] - sum_(j>i) U[i][c_j]*N_w[j]) / D_i, so N_w/D solves
    the pivot block's triangular system U_piv * x = w.  For w a column of
    the forward pass, N_w[i] is the minor of the pivot rows in the pivot
    columns with c_i replaced by that column (Cramer's rule), so every
    division is exact; for an integer combination of such columns, so is
    each one.
    """
    rank = len(pivot_cols)
    out = list(w)
    for i in range(rank - 2, -1, -1):
        row = rows[i]
        acc = grid_mul(pivots[-1], w[i])
        for j in range(i + 1, rank):
            u = row[pivot_cols[j]]
            if u and out[j]:
                acc = grid_sub(acc, grid_mul(u, out[j]))
        out[i] = grid_divexact(acc, pivots[i]) if acc else acc
    return out


def _back(rows, pivot_cols, pivots):
    """The full back pass, in place on the rows `_forward` left.

    Every pivot row becomes D in its own pivot column, zero in the other
    pivot columns and N[i][f] in each other column f (`_back_column`), so
    its reduced entries are N[i][j]/D.  Rows past the rank are untouched.
    """
    rank = len(pivot_cols)
    if rank < 2:
        return
    width = len(rows[0])
    columns = {f: _back_column(rows, pivot_cols, pivots,
                               [row[f] for row in rows[:rank]])
               for f in range(width) if f not in pivot_cols}
    for i in range(rank - 1):
        new = [None] * width
        new[pivot_cols[i]] = pivots[-1]
        for f, column in columns.items():
            new[f] = column[i]
        rows[i] = new


def _grid_scale(x, k):
    """The triple x times a nonzero integer k."""
    if x is None:
        return None
    low, c, coeffs = x
    return (low, c * k, coeffs) if k > 0 else (low, -c * k,
                                               [-v for v in coeffs])


def _inverse(p, depth):
    """Coefficients 0..depth of t^low / p, for a triple p = (low, c, P)."""
    _, c, coeffs = p
    p0 = coeffs[0]
    inv = [Fraction(1, c * p0)]
    for j in range(1, depth + 1):
        acc = Fraction(0)
        for i in range(1, min(j, len(coeffs) - 1) + 1):
            acc -= coeffs[i] * inv[j - i]
        inv.append(acc / p0)
    return inv


def _orders(u, low, inv, lo, hi):
    """Coefficients at grid orders lo..hi of u/p, with inv = `_inverse`(p)."""
    out = [0] * (hi - lo + 1)
    if u is None:
        return out
    ul, c, coeffs = u
    shift = ul - low
    for e in range(max(lo, shift), hi + 1):
        k = e - shift
        out[e - lo] = c * sum(coeffs[a] * inv[k - a]
                              for a in range(min(k, len(coeffs) - 1) + 1))
    return out


def _lowest_orders(rows, pivot_cols, pivots):
    """Orders <= 0 of every reduced entry of the pivot rows: `RrefResult.head`.

    Back substitution over truncated series with rational coefficients:
    x_i = a_(i,j) - sum_(k>i) a_(i,c_k) * x_k for each non-pivot column
    j, where a_(i,j) = U[i][j] / U[i][c_i].  Each pivot has the least
    valuation among the columns still free in its row, so a_(i,c_k) has
    valuation >= 0 for every later pivot column; hence column j's
    reduced entries have valuation >= -K_j, K_j = max(0, max_i(val
    U[i][c_i] - val U[i][j])), and their orders -K_j..0 depend only on
    orders -K_j..0 of the x_k and 0..K_j of the a_(i,c_k).  Truncating
    there is exact.  A free column's K is 0 by the same pivot rule.
    """
    rank = len(pivot_cols)
    if not rank:
        return ()
    width = len(rows[0])
    others = [j for j in range(width) if j not in pivot_cols]
    depths = {j: max([0] + [p[0] - row[j][0]
                            for row, p in zip(rows, pivots) if row[j]])
              for j in others}
    top = max(depths.values(), default=0)
    one, zero = (Fraction(1),), (Fraction(0),)
    head = [None] * rank
    for i in range(rank - 1, -1, -1):
        row = rows[i]
        low = pivots[i][0]
        inv = _inverse(pivots[i], top)
        later = [(k, _orders(row[pivot_cols[k]], low, inv, 0, top))
                 for k in range(i + 1, rank) if row[pivot_cols[k]]]
        out = [zero] * width
        out[pivot_cols[i]] = one
        for j in others:
            depth = depths[j]
            acc = _orders(row[j], low, inv, -depth, 0)
            for k, a in later:
                x = head[k][j]
                for e in range(depth + 1):
                    acc[e] -= sum(a[s] * x[e - s] for s in range(e + 1)
                                  if x[e - s])
            out[j] = tuple(acc)
        head[i] = tuple(out)
    return tuple(head)


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


def _echelon(rows, ncols, key):
    """The forward pass on rows of series scalars, cleared of denominators.

    Each cleared row i is scaled by L_i, the lcm of its contents'
    denominators, and runs through `_forward` with pivot key `key` as
    integer triples on the system's common grid Q (see
    `troplift.series.to_grid`).  Scaling the input rows scales every minor
    by the scales of the rows it spans, so after the full back pass the
    pivot rows are scaled by S, the product of the pivot rows' scales, and
    a row past the rank by S times its own; `Echelon.scales` records
    those factors.
    """
    polys = [_clear_denominators(row) for row in rows]
    q = math.lcm(*(p.q for row in polys for p in row))
    scales = [math.lcm(*(p.content.denominator for p in row))
              for row in polys]
    grid = [[to_grid(p, q, s) for p in row] for row, s in zip(polys, scales)]
    pivot_cols, pivots, order = _forward(grid, ncols, key)
    rank = len(pivot_cols)
    s = math.prod(scales[k] for k in order[:rank])
    return Echelon(rows=grid, pivot_cols=pivot_cols, pivots=pivots, q=q,
                   scales=[s if i < rank else s * scales[k]
                           for i, k in enumerate(order)])


def _eliminate(rows, ncols, key):
    """Both passes: the Laurent numerator rows N, the pivot columns and D."""
    ech = _echelon(rows, ncols, key)
    polys = ech.numerators()
    d = polys[0][ech.pivot_cols[0]] if ech.pivots else LaurentPolynomial.one()
    return polys, ech.pivot_cols, d


def rref_solve(matrix, rhs):
    """Reduce the augmented system (matrix | rhs) of series scalars.

    Pivots by least valuation, so every reduced entry of a free column has
    valuation >= 0.  Runs the forward pass and the truncated back pass
    for `head`; the full back pass waits until `num` or a reduced entry
    is read.  Inconsistency is reported through the `consistent` flag,
    never raised.
    """
    rhs = list(rhs)
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if len(rhs) != m:
        raise ValueError("rhs length does not match row count")
    ech = _echelon([[*row, b] for row, b in zip(matrix, rhs)], n,
                   _least_valuation_key)
    rank = len(ech.pivot_cols)
    return RrefResult(
        pivot_cols=tuple(ech.pivot_cols),
        free_cols=tuple(c for c in range(n) if c not in ech.pivot_cols),
        rank=rank,
        consistent=not any(row[n] for row in ech.rows[rank:]),
        head=_lowest_orders(ech.rows, ech.pivot_cols, ech.pivots),
        echelon=ech,
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
