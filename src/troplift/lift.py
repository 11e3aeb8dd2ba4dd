"""Deciding membership of a point in the valuation image of a linear system.

Given A*x = b over the series field and a target vector v of rational
valuations (INF allowed), `decide` answers whether some exact solution x
has coordinatewise valuation v, and produces such an x when the answer is
yes.  The pipeline:

1. delete columns with v_j = INF, pinning those coordinates to 0;
2. count exponents in steps of the instance's grid t^(1/Q); a solution
   coordinate is a sum of series supported on single residues mod 1 of
   those step counts, and a matrix on t^(1/Q) maps each residue slice
   independently, so the system splits into one independent subsystem
   per residue of Q*v (the integer residue keeps the right-hand side,
   the others must cancel to zero); every subsystem keeps all columns,
   requiring valuation exactly 0 on its own congruence class after
   column scaling and a strict valuation lower bound on the rest;
3. per subsystem, run the forward pass of a fraction-free elimination,
   pivoting by least valuation, so every reduced free-column entry has
   valuation >= 0, and then a back pass over truncated series that keeps
   only the orders <= 0 of each reduced entry, which is exact because
   each pivot has the least valuation in its row; past the crossover
   of `troplift.linalg.rref_solve` (5 elimination steps and two columns
   more than rows) the forward pass itself keeps only a few low orders
   of each entry, with more where a pivot or a read needs them, and it
   is exact on smaller systems; each local coordinate must have
   valuation >= 0 too, so only
   the constant term of a free coordinate reaches the orders <= 0 the
   verdict reads, and a free column gets one constant unknown when some
   reduced entry of it has valuation 0, and none otherwise;
4. the strictly negative orders of a pivot coordinate are then those of
   its reduced right-hand side, so the slice is infeasible exactly when
   one of those has valuation < 0; otherwise "every order-zero residual
   and every unknown that must be exact is nonzero" is a finite family
   of affine-linear forms in the unknowns, each read off order-0
   coefficients, and a geometric-progression sweep finds values avoiding
   all their zero sets unless one of them is the zero form;
5. with the free coordinates y fixed, solve B x = b - A_free*y exactly
   for the pivot coordinates, B the pivot block: one exact fraction-free
   pass over [B | b - A_free*y], built from the input rows whichever way
   the forward pass ran and pivoting by entry size, and one
   back-substituted column; then undo the scalings, sum the slices, and
   re-verify the witness before returning it.

Failures are certified with the stage that rejected the point.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import itemgetter

from troplift.linalg import LiftInternalError, LinearForm, Matrix, rref_solve
from troplift.series import INF, LaurentPolynomial, PuiseuxFraction, regrid

__all__ = [
    "Instance",
    "Member",
    "NotMember",
    "decide",
    "verify_witness",
    "regrid_instance",
    "permute_columns",
    "regrid_point",
    "matvec",
    "STAGE_INFEASIBLE",
    "STAGE_EMPTY_CLASS",
    "STAGE_SYSTEM3",
    "STAGE_FAMILY_L",
]

STAGE_INFEASIBLE = "InfeasibleOverK"
STAGE_EMPTY_CLASS = "EmptyClassWithRhs"
STAGE_SYSTEM3 = "System3Infeasible"
STAGE_FAMILY_L = "FamilyLVanishes"

# Largest exponent, in absolute value and in steps of the common grid
# t^(1/Q) of the entries and the point's finite coordinates, that the
# numerator or denominator of an entry, or a finite coordinate of the
# target point, may reach.  Dense coefficient lists are sized by exponent
# spans, which this keeps within a small multiple of the limit, the
# point's column scaling included.  It also caps how far a column shift
# spreads an entry: shifted by t^(r/Q), an entry on grid q is put on
# t^(1/Q), and a nonconstant one has a nonzero exponent, at least Q/q
# steps from 0, so its list stays within 2*MAX_GRID_SPAN + 1 slots.
MAX_GRID_SPAN = 10_000


class OversizedEntry(ValueError):
    """An entry or a point coordinate reaches past MAX_GRID_SPAN grid steps."""

    def __init__(self, location, steps, q):
        self.location = location  # "A[i][j]", "b[i]" or "v[j]"
        self.reason = ("puts an exponent %s steps of the common grid t^(1/%d) "
                       "from 0; the limit is %d" % (steps, q, MAX_GRID_SPAN))
        super().__init__("%s %s" % (location, self.reason))


def _grid_reach(x, q):
    """Largest |exponent| of x's numerator or denominator, in steps of t^(1/q)."""
    return max(x.num.reach(q), x.den.reach(q))


def _enforce_budget(reaches, q):
    """Raise OversizedEntry at the farthest of (steps, format, args) triples.

    Ties go to the first, so the location is the earliest of the worst.
    """
    steps, fmt, args = max(reaches, key=itemgetter(0), default=(0, "", ()))
    if steps > MAX_GRID_SPAN:
        raise OversizedEntry(fmt % args, steps, q)


def _charge_coordinates(inst, coords, location):
    """Charge (j, g, far) triples, coordinate j on t^(1/g) within far of 0.

    Coordinate j is charged the reach of the instance and of coordinates
    0..j on the grid their g refine; past MAX_GRID_SPAN steps it raises
    OversizedEntry at `location % j`.
    """
    q, reach = inst.grid_den, inst.grid_reach
    grid, far, steps = q, 0, []
    for j, g, r in coords:
        grid, far = math.lcm(grid, g), max(far, r)
        steps.append((max(reach * (grid // q), far * grid), location, (j,)))
    _enforce_budget(steps, grid)


def _as_scalar(x):
    if isinstance(x, PuiseuxFraction):
        return x
    return PuiseuxFraction(x)


def as_point(coords):
    """Coerce a sequence of rationals / INF into a point tuple."""
    out = []
    for c in coords:
        if c == INF:
            out.append(INF)
        else:
            out.append(Fraction(c))
    return tuple(out)


@dataclass(frozen=True)
class Instance:
    """The pair (A, b): an m x n matrix and length-m vector of exact scalars."""

    matrix: tuple
    rhs: tuple

    @classmethod
    def from_rows(cls, rows, rhs):
        rows = tuple(tuple(_as_scalar(x) for x in r) for r in rows)
        rhs = tuple(_as_scalar(x) for x in rhs)
        if not rows:
            raise ValueError("instance needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged matrix")
        if len(rhs) != len(rows):
            raise ValueError("rhs length does not match row count")
        inst = cls(rows, rhs)
        if inst.grid_reach > MAX_GRID_SPAN:
            q = inst.grid_den
            _enforce_budget(chain(
                ((_grid_reach(x, q), "A[%d][%d]", (i, j))
                 for i, row in enumerate(rows) for j, x in enumerate(row)),
                ((_grid_reach(x, q), "b[%d]", (i,))
                 for i, x in enumerate(rhs))),
                q)
        return inst

    @property
    def m(self):
        return len(self.matrix)

    @property
    def n(self):
        return len(self.matrix[0]) if self.matrix else 0

    @cached_property
    def grid_den(self):
        """The common grid Q: the lcm of every entry's num and den grids."""
        return math.lcm(*(p.q for row in (*self.matrix, self.rhs)
                          for x in row for p in (x.num, x.den)))

    @cached_property
    def grid_reach(self):
        """Largest |exponent| of any entry, in steps of t^(1/grid_den)."""
        q = self.grid_den
        return max((_grid_reach(x, q) for row in (*self.matrix, self.rhs)
                    for x in row), default=0)


def matvec(inst, x):
    """Exact A*x for a vector of scalars."""
    out = []
    for row in inst.matrix:
        acc = PuiseuxFraction.zero()
        for a, xi in zip(row, x):
            if a and xi:
                acc = acc + a * xi
        out.append(acc)
    return tuple(out)


def regrid_instance(inst, n):
    """Substitute t -> t**n, n a positive integer, in every entry."""
    return Instance(
        tuple(tuple(regrid(x, n) for x in row) for row in inst.matrix),
        tuple(regrid(x, n) for x in inst.rhs),
    )


def regrid_point(v, n):
    return tuple(INF if c == INF else Fraction(c) * n for c in v)


def permute_columns(inst, perm):
    """Reorder columns so new column j is old column perm[j]."""
    return Instance(
        tuple(tuple(row[p] for p in perm) for row in inst.matrix),
        inst.rhs,
    )


# -- results ------------------------------------------------------------------

@dataclass(frozen=True)
class SweepStats:
    """Bookkeeping from one nonzero-avoidance sweep."""

    chosen_p: int
    bound: int
    family_size: int
    dim: int


@dataclass(frozen=True)
class Member:
    """Positive certificate: an exact solution with the requested valuations."""

    witness: tuple
    sweeps: tuple = field(default=(), compare=False)

    @property
    def is_member(self):
        return True


@dataclass(frozen=True)
class NotMember:
    """Negative certificate, tagged with the stage that rejected the point."""

    stage: str
    detail: str = field(default="", compare=False)

    @property
    def is_member(self):
        return False


# -- stage 1: infinite coordinates -------------------------------------------

@dataclass(frozen=True)
class StripResult:
    instance: Instance
    point: tuple
    kept: tuple
    fixed: dict  # deleted column -> pinned zero coordinate


def strip_infinite(inst, v):
    """Delete columns whose target valuation is INF, pinning them to x_j = 0.

    Finite coordinates are charged, on the grids their denominators give,
    by `_charge_coordinates`, which raises OversizedEntry past the budget.
    """
    v = as_point(v)
    if len(v) != inst.n:
        raise ValueError("point length %d does not match %d columns"
                         % (len(v), inst.n))
    _charge_coordinates(inst, ((j, c.denominator, abs(c))
                               for j, c in enumerate(v) if c != INF), "v[%d]")
    kept = tuple(j for j, c in enumerate(v) if c != INF)
    if len(kept) == inst.n:
        return StripResult(inst, v, kept, {})
    fixed = {j: PuiseuxFraction.zero() for j, c in enumerate(v) if c == INF}
    matrix = tuple(tuple(row[j] for j in kept) for row in inst.matrix)
    point = tuple(v[j] for j in kept)
    return StripResult(Instance(matrix, inst.rhs), point, kept, fixed)


# -- stage 2: congruence classes on the instance grid ------------------------

@dataclass(frozen=True)
class Subsystem:
    """The residue-`residue` slice of the system, on its grid t^(1/Q).

    Residues are taken in grid steps: a solution coordinate is a sum of
    series supported on single residues of Q*exponent mod 1, and a
    matrix with exponents on t^(1/Q) maps each residue slice
    independently, so the system splits into one subsystem per residue
    (the integer residue keeps the right-hand side, all others must
    cancel to zero).  Every subsystem sees every column: the columns of
    its own congruence class (`exact[j]` true, pairwise disjoint across
    subsystems) carry the class's exact target valuation, normalized to
    0 here, while foreign columns may contribute anything of valuation
    strictly above their own target, normalized to a valuation >= 0
    requirement.

    `shifts[j]` is the total exponent shift: the witness coordinate j
    gains t**shifts[j] times this subsystem's local coordinate j.
    """

    residue: Fraction
    matrix: Matrix
    rhs: tuple
    shifts: tuple
    exact: tuple

    @property
    def columns(self):
        return tuple(j for j, flag in enumerate(self.exact) if flag)


@dataclass(frozen=True)
class Partition:
    subsystems: tuple
    rhs_class_missing: bool


def normalize_and_partition(inst, v):
    """Slice the system by valuation residue on its grid t^(1/Q).

    Returns one subsystem per residue of the point in steps of t^(1/Q)
    (plus the integer residue whenever the right-hand side is nonzero,
    since that is the only slice that can absorb it).  Column j is
    shifted by t^(r_j/Q), r_j the whole steps between its target and
    the slice's residue.  The degenerate no-columns case cannot absorb a
    nonzero right-hand side at all, which the flag reports.
    """
    v = as_point(v)
    if any(c == INF for c in v):
        raise ValueError("partition requires a finite point")
    q = inst.grid_den
    vs = [c * q for c in v]

    residues = {c - math.floor(c) for c in vs}
    rhs_nonzero = any(x for x in inst.rhs)
    if rhs_nonzero:
        residues.add(Fraction(0))
    rhs_class_missing = rhs_nonzero and not vs

    zero = PuiseuxFraction.zero()
    subsystems = []
    for residue in sorted(residues):
        deltas = [c - residue for c in vs]
        steps = [math.ceil(d) for d in deltas]
        shifts = [Fraction(r, q) for r in steps]
        matrix = Matrix.from_rows(
            [[x.shift(s) for x, s in zip(row, shifts)] for row in inst.matrix])
        rhs = inst.rhs if residue == 0 else tuple([zero] * inst.m)
        subsystems.append(Subsystem(
            residue=residue, matrix=matrix, rhs=rhs,
            shifts=tuple((r + residue) / q for r in steps),
            exact=tuple(d.denominator == 1 for d in deltas)))
    return Partition(subsystems=tuple(subsystems),
                     rhs_class_missing=rhs_class_missing)


# -- stage 3: ansatz unknowns -------------------------------------------------

@dataclass(frozen=True)
class FreeColumn:
    """A non-pivot column and its ansatz.

    `unknown` is the index, among the layout's variables, of the
    coordinate's constant term when some reduced entry of the column has
    valuation 0; only exact columns must keep it nonzero.  It is None when
    every reduced entry has valuation > 0: the coordinate is then
    invisible to all orders <= 0 and is pinned to the constant 1 when its
    valuation must be exactly 0, or dropped to 0 when any valuation >= 0
    would do.
    """

    column: int
    unknown: int | None
    exact: bool


@dataclass(frozen=True)
class UnknownLayout:
    free: tuple              # FreeColumn per non-pivot column, in column order
    variables: tuple         # the columns that carry an unknown, in order


def _head_valuation(orders):
    """Valuation of a reduced entry read off its orders -K..0; INF when > 0."""
    for k, c in enumerate(orders):
        if c:
            return k - len(orders) + 1
    return INF


def attach_unknowns(sub, red):
    """Give each free column whose entries reach order 0 one constant unknown.

    `rref_solve` pivots by least valuation, so no reduced free-column
    entry has valuation < 0; every stage after this one relies on that.
    """
    free = []
    variables = []
    for f in red.free_cols:
        low = min((_head_valuation(red.head[i][f]) for i in range(red.rank)),
                  default=INF)
        if low < 0:
            raise LiftInternalError("reduced entry of column %d has valuation "
                                    "%d < 0" % (f, low))
        unknown = None
        if low == 0:
            unknown = len(variables)
            variables.append(f)
        free.append(FreeColumn(column=f, unknown=unknown, exact=sub.exact[f]))
    return UnknownLayout(free=tuple(free), variables=tuple(variables))


# -- stage 4: coefficient forms -----------------------------------------------

def build_forms(sub, red, layout):
    """Lowest-order conditions on each pivot coordinate and each unknown.

    Pivot coordinate i is (N_rhs - sum_f N_if * x_f) / D.  Every free
    entry N_if/D and every x_f has valuation >= 0, so the orders < 0 of
    the coordinate are those of N_rhs/D, which must then be >= 0; all of
    it is read off `red.head`, the orders <= 0 of the reduced entries.  Its
    order-0 coefficient must additionally be nonzero when the pivot
    column's valuation has to be exactly 0, and so must the unknown of
    every exact free column.  Returns (negative_rows, must_not): the pivot
    rows whose right-hand side has valuation < 0, and, when there are
    none, each form that must not vanish paired with a printable label.
    """
    negative_rows = [i for i in range(red.rank)
                     if _head_valuation(red.head[i][-1]) < 0]
    if negative_rows:
        return negative_rows, []
    must_not = []
    for i in range(red.rank):
        if sub.exact[red.pivot_cols[i]]:
            # the residual -x_i; a column without an unknown has order-0
            # entries 0, whatever its pinned value
            head = red.head[i]
            coeffs = {fc.unknown: head[fc.column][-1]
                      for fc in layout.free if fc.unknown is not None}
            must_not.append(("L[%d,0]" % i,
                             LinearForm.make(-head[-1][-1], coeffs)))
    for fc in layout.free:
        if fc.unknown is not None and fc.exact:
            must_not.append(("y[%d,0]" % fc.column,
                             LinearForm.make(0, {fc.unknown: Fraction(1)})))
    return negative_rows, must_not


# -- stage 5: sweep ----------------------------------------------------------

@dataclass(frozen=True)
class SweepOutcome:
    values: tuple
    stats: SweepStats


def solve_and_sweep(negative_rows, must_not, layout):
    """Pick values of the unknowns that avoid every form's zero set.

    Returns a SweepOutcome, or a NotMember when some pivot row's
    right-hand side has valuation < 0 or some required-nonzero form is
    the zero form.  The unknowns are unconstrained, so every other form is
    zero on at most `dim` of the geometric candidates (p, p^2, ..., p^dim),
    and scanning len(must_not)*dim + 1 of them is guaranteed to succeed.
    """
    if negative_rows:
        return NotMember(STAGE_SYSTEM3,
                         "pivot row %d has a right-hand side of valuation < 0"
                         % negative_rows[0])
    for label, form in must_not:
        if not form.constant and not form.coeffs:
            return NotMember(STAGE_FAMILY_L, "%s vanishes identically" % label)
    dim = len(layout.variables)
    bound = len(must_not) * dim + 1
    for p in range(1, bound + 1):
        candidate = tuple(Fraction(p) ** l for l in range(1, dim + 1))
        if all(form.evaluate(candidate) for _, form in must_not):
            stats = SweepStats(chosen_p=p, bound=bound,
                               family_size=len(must_not), dim=dim)
            return SweepOutcome(values=candidate, stats=stats)
    raise LiftInternalError("sweep exhausted %d candidates" % bound)


# -- stage 6: witness assembly --------------------------------------------------

def reconstruct_witness(sub, red, layout, values):
    """Assemble the subsystem's coordinate contributions from swept values.

    Free coordinates are the swept constants (1 or 0 where a column has
    no unknown); the pivot coordinates are B^-1 (b - A_free*y), one exact
    column (`RrefResult.pivot_values`).  Returns {column: contribution}
    with the shifts undone; the full witness coordinate of a kept column
    is the sum of contributions over all subsystems.
    """
    locals_ = {}
    for fc in layout.free:
        if fc.unknown is not None:
            locals_[fc.column] = values[fc.unknown]
        else:
            locals_[fc.column] = Fraction(1 if fc.exact else 0)
    coords = {col: PuiseuxFraction(x) for col, x in locals_.items()}
    coords.update(zip(red.pivot_cols, red.pivot_values(locals_)))
    return {col: coords[col].shift(sub.shifts[col])
            for col in range(len(sub.shifts))}


# -- the decision procedure ------------------------------------------------------

def decide(inst, v):
    """Decide membership of v and lift it to an exact witness when possible."""
    stripped = strip_infinite(inst, v)
    part = normalize_and_partition(stripped.instance, stripped.point)
    if part.rhs_class_missing:
        return NotMember(STAGE_EMPTY_CLASS,
                         "nonzero right-hand side but every unknown is "
                         "pinned to zero")
    witness = [PuiseuxFraction.zero()] * stripped.instance.n
    sweeps = []
    for sub in part.subsystems:
        red = rref_solve(sub.matrix, sub.rhs)
        if not red.consistent:
            return NotMember(
                STAGE_INFEASIBLE,
                "slice with residue %s has no solution at all" % sub.residue)
        layout = attach_unknowns(sub, red)
        negative_rows, must_not = build_forms(sub, red, layout)
        outcome = solve_and_sweep(negative_rows, must_not, layout)
        if isinstance(outcome, NotMember):
            return NotMember(outcome.stage,
                             "slice with residue %s: %s"
                             % (sub.residue, outcome.detail))
        sweeps.append(outcome.stats)
        contributions = reconstruct_witness(sub, red, layout, outcome.values)
        for col, value in contributions.items():
            if value:
                witness[col] = witness[col] + value

    for j in sorted(stripped.fixed):
        witness.insert(j, stripped.fixed[j])
    witness = tuple(witness)
    if not _witness_holds(inst, as_point(v), witness):
        raise LiftInternalError("constructed witness failed verification")
    return Member(witness=witness, sweeps=tuple(sweeps))


def verify_witness(inst, v, x):
    """Exact check: A*x = b and every coordinate has the requested valuation.

    The check puts x on the instance's grid, so x is first charged as
    `strip_infinite` charges the point, raising OversizedEntry at
    "witness.x[j]" before any product is built.
    """
    v = as_point(v)
    if len(v) != inst.n or len(x) != inst.n:
        return False
    x = tuple(_as_scalar(c) for c in x)
    grids = [math.lcm(c.num.q, c.den.q) for c in x]
    _charge_coordinates(inst, [(j, g, Fraction(_grid_reach(c, g), g))
                               for j, (c, g) in enumerate(zip(x, grids))],
                        "witness.x[%d]")
    return _witness_holds(inst, v, x)


def _witness_holds(inst, v, x):
    """`verify_witness` uncharged, for the witness `decide` builds.

    Each row is tested as one polynomial identity over a common
    denominator C of its terms a_ij*x_j and -b_i: the product of every
    distinct denominator factor, each to the largest power it has in one
    term.  Terms with the same factors are summed first, and each group's
    sum is brought to C with one product per factor it lacks, so the row
    sum is zero exactly when the sum of those is: no gcd and no division
    is needed.
    """
    for row, b in zip(inst.matrix, inst.rhs):
        terms = [(a.num * xi.num, (a.den, xi.den))
                 for a, xi in zip(row, x) if a and xi]
        terms.append((-b.num, (b.den,)))
        groups = {}  # factors as a frozenset of items -> [Counter, sum]
        for num, dens in terms:
            factors = Counter(d for d in dens if not d.is_one)
            group = groups.setdefault(frozenset(factors.items()),
                                      [factors, LaurentPolynomial.zero()])
            group[1] = group[1] + num
        common = Counter()
        for factors, _ in groups.values():
            common |= factors
        acc = LaurentPolynomial.zero()
        for factors, num in groups.values():
            for f in (common - factors).elements():
                num = num * f
            acc = acc + num
        if not acc.is_zero:
            return False
    for xi, vi in zip(x, v):
        if xi.valuation() != vi:
            return False
    return True
