"""Exact linear algebra: one fraction-free kernel and three pivot keys.

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
entry is a content times an integer list (`troplift.series.grid_mul`,
`grid_sub`, `grid_divexact`; the last raises ArithmeticError on an
inexact division).  Laurent polynomial objects are built once, from the
eliminated lists.  After the full back pass every pivot row carries the
same pivot D, so each reduced entry is N/D.

The passes differ in their pivot keys.  `kernel_basis`, which the
circuit oracle runs, pivots by least |valuation| (any pivot order gives
the same kernel, and that one keeps the oracle's small entries sparse)
and runs both passes, because it needs N in every free column.
`rref_solve`, which `troplift.lift.decide` runs, pivots by least
valuation: full pivoting by valuation (Caruso, Roe and Vaccon, "p-adic
stability in linear algebra", ISSAC 2015), so every reduced free-column
entry has valuation >= 0, which the lifting stages rely on.
The verdict reads only the orders <= 0 of its reduced entries, which a
back pass over truncated series gives (`_lowest_orders`, on the series
expansion `troplift.series.grid_expand`).  On systems of
TRUNCATE_MIN_STEPS elimination steps or more, with TRUNCATE_MIN_FREE
columns more than rows, the forward pass beneath it is truncated too,
over the integers: each entry keeps its terms below a tracked order of
t, a few orders above its valuation, and each quotient is the low part
of the exact one, one checked integer divmod per term (the truncation
idea of Moenck and Carter, "Approximate algorithms to derive exact
solutions to systems of linear equations", EUROSAM 1979).  Where the
kept orders do not settle a pivot or a read, the pass reruns with more.
Once the free coordinates are fixed, one exact fraction-free pass over
[B | c], the pivot block and one column, gives the pivot coordinates
(`RrefResult.pivot_values`), whichever way the forward pass ran.
x = B^-1 c and its Cramer minors are the same up to sign in any pivot
order, so that pass picks its own pivots by the third key, entry size:
fewest slots, then fewest coefficient bits, so each step multiplies by
the smallest entry left.  N and D, and the reduced entries N/D, are
built by the exact passes on first read only.  Both the witness and
these start from the input rows in pivot order, the grid rows the
`RrefResult` keeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from troplift.series import (
    INF,
    LaurentPolynomial,
    PuiseuxFraction,
    from_grid,
    grid_cut,
    grid_divexact,
    grid_expand,
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


class LiftInternalError(RuntimeError):
    """An invariant the algorithm guarantees was violated; always a defect."""


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

    The reduced entry of pivot row i in column j is N[i][j]/D, where the
    right-hand side is column -1; pivot row i is 1 in column
    pivot_cols[i] and 0 in every other pivot column.  `head[i][j]` holds
    that entry's coefficients at grid exponents -K..0, lowest first, for
    a K of its column (so `head[i][j][-1]` is its order-0 coefficient):
    every nonzero coefficient of order <= 0 is there, and at least the
    order-0 one.  A free column's K is 0, since its entries have
    valuation >= 0; a right-hand side's reaches its lowest valuation.

    `head` and the pivot sequence come from one forward pass, truncated
    on systems past the crossover (see `rref_solve`).  The last three
    fields hold the system on its common grid t^(1/q): `inputs`, the
    input rows as grid triples in pivot order, and `scales`, which divide
    row i's triples back to the input's scale (after the full back pass,
    a pivot row carries S, the product of the pivot rows' own scales, and
    a row past the rank S times its own).

    `pivot_values` and the attributes below are exact whichever pass ran,
    and each starts from `inputs`.  `num` (the eliminated Laurent
    numerator rows N, right-hand side last), `den` (the common pivot D),
    and `matrix` and `rhs` (the reduced entries as series scalars) come
    from the exact forward pass on the pivot sequence and the full back
    pass, on first read.  Rows past `rank` are zero but for their
    right-hand sides, which `num` keeps undivided; the solution set of
    (matrix, rhs) equals that of the input system.
    """

    pivot_cols: tuple
    free_cols: tuple
    rank: int
    consistent: bool
    head: tuple
    q: int = field(compare=False, repr=False)
    scales: list = field(compare=False, repr=False)
    inputs: list = field(compare=False, repr=False)

    def pivot_values(self, values):
        """Pivot coordinates B^-1 (b - A_free*y), y = {free column: rational}.

        One exact fraction-free pass over [B | c], whichever way the
        forward pass ran: B holds the pivot rows' input entries in the
        pivot columns and, with Y the lcm of y's denominators, c =
        Y*b - sum_f (Y*y_f)*A_f on each pivot row.  It pivots by entry size
        (`_size_key`), since x = B^-1 c whatever the order, and one
        back-substituted column gives x: its entry for B's column k over
        Y times the pass's last pivot is pivot row k's coordinate, equal
        to (N_rhs - sum_f y_f*N_f)[k] / D in terms of `num` and `den`.  B
        is nonsingular, since the forward pass found a nonzero pivot in
        each of its rows; a pass ending below full rank raises
        LiftInternalError.  Returns one series scalar per pivot row.
        """
        ys = {f: Fraction(y) for f, y in values.items() if y}
        scale = math.lcm(*(y.denominator for y in ys.values()))

        def combined(row):
            acc = _grid_scale(row[-1], scale)
            for f, y in ys.items():
                acc = grid_sub(acc, _grid_scale(row[f], int(y * scale)))
            return acc

        rows = [[row[c] for c in self.pivot_cols] + [combined(row)]
                for row in self.inputs[:self.rank]]
        cols, pivots = _forward(rows, self.rank, _size_key)[:2]
        if len(cols) < self.rank:
            raise LiftInternalError("pivot block of rank %d has rank %d"
                                    % (self.rank, len(cols)))
        if not pivots:
            return ()
        column = _back_column(rows, cols, pivots, [row[-1] for row in rows])
        d = from_grid(pivots[-1], self.q, self.scales[0])
        s = self.scales[0] * scale
        values = [None] * self.rank
        for k, x in zip(cols, column):
            values[k] = PuiseuxFraction(from_grid(x, self.q, s), d)
        return tuple(values)

    @cached_property
    def num(self):
        rows = list(self.inputs)
        pivots = _forward(rows, plan=self.pivot_cols)[1]
        _back(rows, self.pivot_cols, pivots)
        return tuple(tuple(from_grid(x, self.q, s) for x in row)
                     for row, s in zip(rows, self.scales))

    @cached_property
    def den(self):
        # the full back pass leaves D in every pivot row's pivot column
        return (self.num[0][self.pivot_cols[0]] if self.rank
                else LaurentPolynomial.one())

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


def _forward(rows, ncols=None, key=None, prec=None, plan=None):
    """Fraction-free forward elimination of rows of grid triples, in place.

    Each row holds `ncols` coefficients, optionally followed by its
    right-hand side, all triples on one grid (None is zero).  Step k takes
    as pivot D_k the nonzero coefficient with the smallest (key(x), column,
    row) among the rows not used yet, swaps its row into place k, and
    replaces every row below by (D_k*a - f*b) / D_(k-1), undivided at
    k = 0; in column k's own pivot column, where that is D_k*f - f*D_k,
    the exact pass writes the zero without forming either product.  Each
    updated entry is a minor of the input (Sylvester's identity), so the
    division is exact.  Every candidate at step k is D_(k-1) times its
    Schur-complement entry, so a key on valuations ranks those entries.
    With `plan`, the rows are already in pivot order and step k pivots at
    row k, column plan[k].

    With `prec`, the pass is truncated: every entry is known only below
    some order of t, its precision (INF for an exact zero), which
    `_truncated_step` tracks.  An input keeps its terms below
    t^(v + prec), v its valuation, so no entry is known to more than
    `prec` orders above its valuation.  The key then ranks truncated
    lists by valuation, which is known for every entry with a nonzero
    term below its precision.  An entry with none may be zero or not;
    when one of those in the search has a precision not above the least
    valuation found, that valuation might not be the least, and the pass
    raises `_ShortPrecision`.

    Returns the pivot columns, the pivots D_0..D_(r-1), the row order
    and the entries' precisions (None when exact): row i now holds U[i],
    the forward-pass row of input row order[i].  Rows past the rank are
    zero but for their right-hand sides.
    """
    m = len(rows)
    order = list(range(m))
    pivot_cols = []
    pivots = []
    precs = None
    if prec is not None:
        precs = [[INF if x is None else x[0] + prec for x in row]
                 for row in rows]
        rows[:] = [[grid_cut(x, p) for x, p in zip(row, ps)]
                   for row, ps in zip(rows, precs)]
    steps = len(plan) if plan is not None else min(m, ncols)
    for rank in range(steps):
        if plan is not None:
            c, r = plan[rank], rank
        else:
            best = None
            floor = INF  # least precision of an entry not known nonzero
            for c in range(ncols):
                if c in pivot_cols:
                    continue
                for r in range(rank, m):
                    x = rows[r][c]
                    if x:
                        k = (key(x), c, r)
                        if best is None or k < best:
                            best = k
                    elif precs is not None and precs[r][c] < floor:
                        floor = precs[r][c]
            if floor != INF:
                low = INF if best is None else rows[best[2]][best[1]][0]
                if low >= floor:
                    raise _ShortPrecision(0 if best is None
                                          else low - floor + 1)
            if best is None:
                break
            _, c, r = best
        rows[rank], rows[r] = rows[r], rows[rank]
        order[rank], order[r] = order[r], order[rank]
        prow = rows[rank]
        piv = prow[c]
        prev = pivots[-1] if pivots else None
        if precs is not None:
            precs[rank], precs[r] = precs[r], precs[rank]
            pprecs = precs[rank]
            dprec = precs[rank - 1][pivot_cols[-1]] if prev else INF
            for i in range(rank + 1, m):
                rows[i], precs[i] = _truncated_step(
                    rows[i], precs[i], prow, pprecs, c, prev, dprec)
        else:
            for i in range(rank + 1, m):
                row = rows[i]
                f = row[c]
                new = ([None if j == c else
                        grid_sub(grid_mul(piv, a), grid_mul(f, b))
                        for j, (a, b) in enumerate(zip(row, prow))]
                       if f else [grid_mul(piv, a) for a in row])
                rows[i] = new if prev is None else [
                    grid_divexact(x, prev) if x else x for x in new]
        pivots.append(piv)
        pivot_cols.append(c)
    return pivot_cols, pivots, order, precs


class _ShortPrecision(Exception):
    """The truncated pass cannot settle a read at its precision.

    `by` is how many more orders would settle it, or 0 when unknown.
    """

    def __init__(self, by):
        super().__init__(by)
        self.by = by


def _val(x, p):
    """An entry's valuation, or its precision when no term of it is known."""
    return p if x is None else x[0]


def _truncated_step(row, precs, prow, pprecs, c, prev, dprec):
    """One forward update (D_k*a - f*b) / D_(k-1) of a truncated row.

    Each entry comes with its precision p: known below t^p, or exactly
    zero when p is INF.  With v(x) from `_val`, x*y is known below
    min(px + v(y), py + v(x)), x - y below min(px, py), and the exact
    quotient x/d below min(px - v(d), pd - 2*v(d) + v(x)): its low terms
    come term by term from those of x and d.  So products and quotients
    of entries known to k orders above their valuations are known to k
    orders above theirs, and a difference loses the orders that cancel,
    as in floating point.  Returns the new row and its precisions.
    """
    piv, f, pp, pf = prow[c], row[c], pprecs[c], precs[c]
    vp, vf = piv[0], _val(f, pf)
    vd = prev[0] if prev else 0
    out, outp = [], []
    for a, pa, b, pb in zip(row, precs, prow, pprecs):
        p = min(pp + _val(a, pa), pa + vp, pf + _val(b, pb), pb + vf)
        x = None  # both products exactly zero when p is INF
        if p != INF:
            x = grid_sub(grid_mul(piv, a, p), grid_mul(f, b, p), p)
        if prev is not None:
            if x is None:
                p -= vd
            else:
                p = min(p - vd, dprec - 2 * vd + x[0])
                x = grid_divexact(x, prev, p)
        out.append(x)
        outp.append(p)
    return out, outp


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


def _lowest_orders(rows, pivot_cols, pivots, precs=None):
    """Orders <= 0 of every reduced entry of the pivot rows: `RrefResult.head`.

    Back substitution over truncated series with rational coefficients:
    x_i = a_(i,j) - sum_(k>i) a_(i,c_k) * x_k for each non-pivot column
    j, where a_(i,j) = U[i][j] / U[i][c_i].  Each pivot has the least
    valuation among the columns still free in its row, so a_(i,c_k) has
    valuation >= 0 for every later pivot column; hence column j's
    reduced entries have valuation >= -K_j, K_j = max(0, max_i(val
    U[i][c_i] - val U[i][j])), and their orders -K_j..0 depend only on
    orders -K_j..0 of the x_k and 0..K_j of the a_(i,c_k).  Truncating
    there is exact.  A free column's K is 0 by the same pivot rule.  One
    `grid_expand` call per row expands the a_(i,c_k) at orders 0..max K
    and the a_(i,j) at orders -K_j..0 on one inverse of its pivot.

    With the entries' precisions `precs` (a truncated forward pass), every
    order read must lie below its entry's precision, or it raises
    `_ShortPrecision`: orders up to val D_i + max_j K_j of D_i and of row
    i's later pivot columns, and up to val D_i of its other columns.
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
    if precs is not None:
        short = max(max(p[0] + top + 1 - min(ps[c] for c in pivot_cols[i:]),
                        p[0] + 1 - min(ps[j] for j in others))
                    for i, (ps, p) in enumerate(zip(precs, pivots)))
        if short > 0:
            raise _ShortPrecision(short)
    one, zero = (Fraction(1),), (Fraction(0),)
    head = [None] * rank
    for i in range(rank - 1, -1, -1):
        row = rows[i]
        cols = [k for k in range(i + 1, rank) if row[pivot_cols[k]]]
        got = grid_expand(pivots[i],
                          [(row[pivot_cols[k]], 0, top) for k in cols]
                          + [(row[j], -depths[j], 0) for j in others])
        later = list(zip(cols, got))
        out = [zero] * width
        out[pivot_cols[i]] = one
        for j, acc in zip(others, got[len(cols):]):
            depth = depths[j]
            for k, a in later:
                x = head[k][j]
                for e in range(depth + 1):
                    acc[e] -= sum(a[s] * x[e - s] for s in range(e + 1)
                                  if x[e - s])
            out[j] = tuple(acc)
        head[i] = tuple(out)
    return tuple(head)


# Pivot keys on a triple (low, content, coefficients); on one grid, low
# orders valuations.  The valuation keys break ties by the sparsest entry,
# to limit fill-in.  The size key, for the [B | c] pass, where any pivot
# order gives the same x, ranks slots, then coefficient bits.

def _least_valuation_key(x):
    low, _, coeffs = x
    return low, len(coeffs) - coeffs.count(0)


def _near_zero_key(x):
    low, _, coeffs = x
    return abs(low), len(coeffs) - coeffs.count(0)


def _size_key(x):
    _, c, coeffs = x
    return len(coeffs), c.bit_length() + max(max(coeffs),
                                             -min(coeffs)).bit_length()


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


def _on_grid(rows):
    """Rows of series scalars as integer triples on their common grid.

    Each row is cleared of denominators and scaled by L_i, the lcm of its
    contents' denominators, then put on the system's common grid Q (see
    `troplift.series.to_grid`).  Returns (triple rows, Q, [L_i]).
    """
    polys = [_clear_denominators(row) for row in rows]
    q = math.lcm(*(p.q for row in polys for p in row))
    scales = [math.lcm(*(p.content.denominator for p in row))
              for row in polys]
    grid = [[to_grid(p, q, s) for p in row] for row, s in zip(polys, scales)]
    return grid, q, scales


# `rref_solve` runs its forward pass truncated on systems with at least
# TRUNCATE_MIN_STEPS elimination steps, min(rows, columns), and at least
# TRUNCATE_MIN_FREE more columns than rows.  The crossover trades only the
# verdict's forward pass: on either side the witness takes the exact pass
# over [B | c] (`RrefResult.pivot_values`).  A truncated pass pays off
# where it skips enough columns of entries long enough, and costs
# bookkeeping and reruns elsewhere.  Truncating every system cost the
# perfbench `mixed-small` workload 11% of its cases per second (median of
# 5 alternating 12-s pairs, 990 -> 884 and slower in each pair; 2-core
# x86-64 VM, CPython 3.11).  On seeded dense planted systems (3-term
# entries; same VM), measured while an exact solve still took its witness
# from its own forward rows, `decide` under the truncated route took, as a
# share of the exact route's time: at m = 4, 0.99-1.03 for n = 6..7 and
# 0.86-0.91 for n = 8..10; at m = 5, 0.89-0.93 for n >= 7; at m = 6..8 and
# n = 2m, 0.83-0.92.  Square systems took 1.25-1.29 at m = 6 and 8, one
# column more 1.01-1.05, two 0.90-1.04.  The criterion-1 systems (m <= 4,
# n <= 7) stay below the crossover.
TRUNCATE_MIN_STEPS = 5
TRUNCATE_MIN_FREE = 2

# The truncated pass first keeps TRUNCATE_FIRST_ORDERS orders of t above
# each entry's valuation, and raises that by at least as many again,
# then by twice the last raise, until it settles every read.  The
# perfbench planted systems settle at 2-3 orders and the criterion-7
# instances (n = 12..40) at 2-8; a rerun costs one more truncated pass.
TRUNCATE_FIRST_ORDERS = 4


def _consistent(tail, precs):
    """Whether the right-hand sides `tail` of the rows past the rank vanish.

    With precisions `precs`, raises `_ShortPrecision` when none is known
    nonzero and one is not known exactly.
    """
    if any(tail):
        return False
    if precs and any(p != INF for p in precs):
        raise _ShortPrecision(0)
    return True


def rref_solve(matrix, rhs):
    """Reduce the augmented system (matrix | rhs) of series scalars.

    Pivots by least valuation, so every reduced entry of a free column has
    valuation >= 0.  On systems of TRUNCATE_MIN_STEPS elimination steps or
    more, with TRUNCATE_MIN_FREE columns more than rows, the forward pass
    keeps TRUNCATE_FIRST_ORDERS orders of t above each entry's valuation
    (see `_forward`), raised until it settles the pivots, the consistency
    and every order `head` reads; once that would keep more orders than
    any minor spans, the exact pass runs instead, so the loop ends.  A
    truncated quotient is the low part of the
    exact one, so `head` is the exact pass's on the same pivot sequence.
    Below the crossover the pass is exact.  Either way the result keeps
    the input rows in pivot order, and the exact passes the witness and
    the reduced entries need run from them once `pivot_values`, `num` or
    a reduced entry is read.  Inconsistency is reported through the
    `consistent` flag, never raised.
    """
    rhs = list(rhs)
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if len(rhs) != m:
        raise ValueError("rhs length does not match row count")
    grid, q, scales = _on_grid([[*row, b] for row, b in zip(matrix, rhs)])
    prec = step = TRUNCATE_FIRST_ORDERS
    # no minor, nor a product of two, spans this many orders: a truncated
    # pass keeping them would do the exact pass's work
    ends = [[e for x in row if x for e in (x[0], x[0] + len(x[2]) - 1)]
            for row in grid]
    span = 2 * sum(max([0, *e]) - min([0, *e]) for e in ends)
    if (min(m, n) < TRUNCATE_MIN_STEPS or n - m < TRUNCATE_MIN_FREE
            or prec > span):
        prec = None
    while True:
        rows = list(grid)
        try:
            pivot_cols, pivots, order, precs = _forward(
                rows, n, _least_valuation_key, prec)
            rank = len(pivot_cols)
            consistent = _consistent([row[n] for row in rows[rank:]],
                                     precs and [p[n] for p in precs[rank:]])
            head = _lowest_orders(rows, pivot_cols, pivots, precs)
            break
        except _ShortPrecision as short:
            prec += max(short.by, step)
            step *= 2
            if prec > span:
                prec = None
    s = math.prod(scales[k] for k in order[:rank])
    return RrefResult(
        pivot_cols=tuple(pivot_cols),
        free_cols=tuple(c for c in range(n) if c not in pivot_cols),
        rank=rank,
        consistent=consistent,
        head=head,
        q=q,
        scales=[s if i < rank else s * scales[k]
                for i, k in enumerate(order)],
        inputs=[grid[k] for k in order],
    )


def kernel_basis(matrix, ncols=None):
    """Basis of the right kernel of a matrix of series scalars.

    One vector per free column f: the reduced-form basis vector scaled by
    the common pivot D, so D at f, -N[i][f] at the pivot column of pivot
    row i and zero elsewhere; every entry has denominator 1.  Both passes
    run exactly, pivoting by least |valuation|, and only the pivot rows'
    free-column entries are built as Laurent polynomials.  An empty
    matrix needs ``ncols`` and gives the unit vectors.
    """
    if not matrix and ncols is None:
        raise ValueError("empty matrix needs an explicit column count")
    n = len(matrix[0]) if matrix else ncols
    rows, q, scales = _on_grid(matrix)
    pivot_cols, pivots, order, _ = _forward(rows, n, _near_zero_key)
    _back(rows, pivot_cols, pivots)
    # every pivot row now carries scale S, the product of their own scales
    s = math.prod(scales[k] for k in order[:len(pivot_cols)])
    d = PuiseuxFraction(from_grid(pivots[-1], q, s) if pivots
                        else LaurentPolynomial.one())
    zero = PuiseuxFraction.zero()
    basis = []
    for f in range(n):
        if f in pivot_cols:
            continue
        vec = [zero] * n
        vec[f] = d
        for row, c in zip(rows, pivot_cols):
            vec[c] = PuiseuxFraction(-from_grid(row[f], q, s))
        basis.append(tuple(vec))
    return basis
