"""Tests for exact elimination over both scalar fields."""

import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from troplift import linalg
from troplift.gen import GenConfig, gen_member
from troplift.lift import (
    STAGE_INFEASIBLE,
    STAGE_SYSTEM3,
    Instance,
    NotMember,
    decide,
    normalize_and_partition,
    strip_infinite,
)
from troplift.linalg import (
    TRUNCATE_MIN_FREE,
    TRUNCATE_MIN_STEPS,
    LiftInternalError,
    _clear_denominators,
    _forward,
    _least_valuation_key,
    _lowest_orders,
    _near_zero_key,
    _on_grid,
    _size_key,
    _truncated_step,
    kernel_basis,
    rref_solve,
)
from troplift.series import (
    INF,
    LaurentPolynomial,
    PuiseuxFraction,
    grid_cut,
    grid_divexact,
    grid_mul,
    grid_sub,
    laurent_divexact,
)


def px(terms):
    return PuiseuxFraction.from_terms(terms)


ONE = PuiseuxFraction.one()
ZERO = PuiseuxFraction.zero()
T = PuiseuxFraction.t_power(1)


def random_scalar(rng, zero=True):
    """Zero, a Laurent monomial or binomial, or a ratio over a binomial."""
    kind = rng.randint(0 if zero else 1, 3)
    if kind == 0:
        return ZERO
    num = LaurentPolynomial.from_terms(
        {rng.randint(-2, 2): rng.choice([-3, -1, 1, 2]) for _ in range(kind)})
    if kind < 3:
        return PuiseuxFraction(num)
    den = LaurentPolynomial.from_terms(
        {0: 1, rng.randint(1, 2): F(rng.choice([-2, 1, 3]), 2)})
    return PuiseuxFraction(num, den)


def check_solution_preserved(rows, rhs, red, samples=20, seed=0):
    """Any solution of the reduced system solves the original, exactly."""
    rng = random.Random(seed)
    n = len(rows[0])
    for _ in range(samples):
        x = [None] * n
        for f in red.free_cols:
            x[f] = F(rng.randint(-5, 5), rng.randint(1, 3))
        for i, c in enumerate(red.pivot_cols):
            acc = red.rhs[i]
            for f in red.free_cols:
                acc = acc - red.matrix[i][f] * x[f]
            x[c] = acc
        for row, b in zip(rows, rhs):
            acc = None
            for a, xi in zip(row, x):
                term = a * xi
                acc = term if acc is None else acc + term
            assert acc == b


class TestRrefSeriesField:
    def test_row_of_equal_monomials(self):
        red = rref_solve([[T, T]], [ONE])
        assert red.pivot_cols == (0,)
        assert red.free_cols == (1,)
        assert red.rank == 1
        assert red.consistent
        assert red.matrix[0][0] == ONE
        assert red.matrix[0][1] == ONE
        assert red.rhs[0] == px({-1: 1})

    def test_identity(self):
        red = rref_solve([[ONE, ZERO], [ZERO, ONE]], [ONE, px({0: 2})])
        assert red.rank == 2
        assert red.consistent
        assert red.free_cols == ()
        assert red.rhs == (ONE, px({0: 2}))

    def test_contradictory_rows(self):
        red = rref_solve([[ONE, ONE], [ONE, ONE]], [ONE, px({0: 2})])
        assert red.rank == 1
        assert not red.consistent

    def test_pivot_prefers_valuation_near_zero(self):
        # rref_solve pivots by least valuation.  [t^3, 1]: the unit entry
        # is the pivot even though it sits right
        red = rref_solve([[px({3: 1}), ONE]], [ONE])
        assert red.pivot_cols == (1,)
        # [1, t^-1 + 1]: valuation -1 beats valuation 0
        red = rref_solve([[ONE, px({-1: 1, 0: 1})]], [ONE])
        assert red.pivot_cols == (1,)
        # kernel_basis keeps the valuation nearest zero: pivot column 0,
        # so the kernel vector carries D = 1 at free column 1
        assert kernel_basis([[ONE, px({-1: 1, 0: 1})]]) == [
            (px({-1: -1, 0: -1}), ONE)]

    def test_ratio_entries(self):
        a = PuiseuxFraction(LaurentPolynomial.one(),
                            LaurentPolynomial.from_terms({0: 1, 1: -1}))
        red = rref_solve([[a, ONE]], [T])
        assert red.consistent and red.rank == 1
        rows = [[a, ONE]]
        check_solution_preserved(rows, [T], red)

    def test_pivot_block_identity_and_zero_rows(self):
        rows = [[ONE, T, px({0: 2})],
                [ONE, T, px({0: 2})],
                [ZERO, ONE, ONE]]
        rhs = [ONE, ONE, T]
        red = rref_solve(rows, rhs)
        assert red.rank == 2
        assert red.consistent
        for i, c in enumerate(red.pivot_cols):
            for k in range(red.rank):
                assert red.matrix[k][c] == (ONE if k == i else ZERO)
        for j in range(3):
            assert red.matrix[2][j] == ZERO
        check_solution_preserved(rows, rhs, red)

    def test_rank_invariant_under_row_ops(self):
        rng = random.Random(13)
        for _ in range(40):
            m, n = rng.randint(1, 3), rng.randint(1, 4)
            rows = [[random_scalar(rng) for _ in range(n)] for _ in range(m)]
            rhs = [px({0: rng.randint(-2, 2)}) for _ in range(m)]
            base = rref_solve(rows, rhs).rank
            perm = list(range(m))
            rng.shuffle(perm)
            # scale each row by its own nonzero factor, ratios included
            factors = [random_scalar(rng, zero=False) for _ in range(m)]
            scaled = [[x * factors[i] for x in rows[i]] for i in perm]
            rhs2 = [rhs[i] * factors[i] for i in perm]
            assert rref_solve(scaled, rhs2).rank == base

    def test_bareiss_divisions_exact(self):
        # Block-diagonal systems: while one block supplies the pivot, every
        # row of the other block is zero in the pivot column, so its update
        # is the bare multiply by the pivot and exact divide by the previous
        # one.  laurent_divexact raises ArithmeticError on an inexact step.
        rng = random.Random(29)
        for _ in range(30):
            sizes = [(rng.randint(1, 2), rng.randint(1, 3)) for _ in range(2)]
            n = sum(w for _, w in sizes)
            rows = []
            start = 0
            for h, w in sizes:
                for _ in range(h):
                    row = [ZERO] * n
                    for j in range(start, start + w):
                        row[j] = random_scalar(rng)
                    rows.append(row)
                start += w
            rng.shuffle(rows)
            x0 = [random_scalar(rng) for _ in range(n)]
            rhs = []
            for row in rows:
                acc = ZERO
                for a, x in zip(row, x0):
                    acc = acc + a * x
                rhs.append(acc)
            red = rref_solve(rows, rhs)
            assert red.consistent
            for i, c in enumerate(red.pivot_cols):
                for k in range(red.rank):
                    assert red.matrix[k][c] == (ONE if k == i else ZERO)
            for row in red.matrix.rows[red.rank:]:
                assert not any(row)
            check_solution_preserved(rows, rhs, red, samples=5)


    def test_numerators_over_shared_pivot(self):
        # red.num and red.den, read directly, against a plain Gauss-Jordan
        # pass over the field that takes the same pivot columns in order
        rng = random.Random(59)
        seen = {"deficient": 0, "inconsistent": 0, "ratio_den": 0}
        for _ in range(60):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            rows = [[random_scalar(rng) for _ in range(n)] for _ in range(m)]
            rhs = [random_scalar(rng) for _ in range(m)]
            if m > 1 and rng.random() < 0.5:
                lam = random_scalar(rng, zero=False)
                k = rng.randrange(1, m)
                rows[k] = [a + lam * b for a, b in zip(rows[0], rows[k - 1])]
                rhs[k] = rhs[0] + lam * rhs[k - 1]
                if rng.random() < 0.5:
                    rhs[k] = rhs[k] + ONE
            red = rref_solve(rows, rhs)
            want = field_rref(rows, rhs, red.pivot_cols)
            assert len(red.num) == m
            assert all(len(row) == n + 1 for row in red.num)
            for i in range(red.rank):
                for j in range(n + 1):
                    got = (red.matrix[i][j] if j < n else red.rhs[i])
                    assert PuiseuxFraction(red.num[i][j], red.den) == got
                    # with an inconsistent system the pivot rows'
                    # right-hand sides depend on which rows were used
                    if j < n or red.consistent:
                        assert got == want[i][j]
            for i in range(red.rank, m):
                assert not any(red.num[i][:n])
                assert not any(red.matrix[i])
            assert red.consistent == all(not want[i][n]
                                         for i in range(red.rank, m))
            seen["deficient"] += red.rank < min(m, n)
            seen["inconsistent"] += not red.consistent
            seen["ratio_den"] += not red.den.is_monomial
        assert all(seen.values()), seen

    def test_free_entries_never_negative_so_system3_is_a_valuation_read(self):
        # With an integer point there is at most one residue slice, so
        # decide rejects at System3Infeasible exactly when that slice is
        # consistent and a pivot row's reduced right-hand side has
        # valuation < 0.
        rng = random.Random(67)
        seen = Counter()

        def reduce_checked(matrix, rhs):
            red = rref_solve(matrix, rhs)
            d = red.den.valuation()
            for i in range(red.rank):
                for f in red.free_cols:
                    x = red.num[i][f]
                    assert not x or x.valuation() >= d
                    seen["free_val0"] += bool(x) and x.valuation() == d
                    seen["free_val>0"] += bool(x) and x.valuation() > d
            return red

        for trial in range(200):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            if trial % 2:
                rows = [[random_scalar(rng) for _ in range(n)]
                        for _ in range(m)]
                rhs = [random_scalar(rng) for _ in range(m)]
            else:
                dens = [rng.choice([1, 2, 3]) for _ in range(m)]
                rows = [[grid_scalar(rng, d) for _ in range(n)] for d in dens]
                rhs = [grid_scalar(rng, d) for d in dens]
            v = tuple(rng.choice([-2, -1, 0, 0, 1, 2, INF]) for _ in range(n))
            inst = Instance.from_rows(rows, rhs)
            reduce_checked(rows, rhs)
            stripped = strip_infinite(inst, v)
            slices = normalize_and_partition(stripped.instance,
                                             stripped.point).subsystems
            assert len(slices) <= 1
            negative = False
            for sub in slices:
                red = reduce_checked(sub.matrix, sub.rhs)
                d = red.den.valuation()
                negative = red.consistent and any(
                    row[-1] and row[-1].valuation() < d
                    for row in red.num[:red.rank])
            result = decide(inst, v)
            assert (result == NotMember(STAGE_SYSTEM3)) == negative
            seen["system3"] += negative
            seen["member"] += result.is_member
            seen["other_rejection"] += (not result.is_member
                                        and not negative
                                        and result.stage != STAGE_INFEASIBLE)
        assert all(seen.values()), seen

    def test_order0_table_and_witness_column_match_full_back_pass(self):
        # `head` against the expansions through order 0 of the full back
        # pass's N/D, entry by entry, and `pivot_values` against
        # (N_rhs - sum_f N_f*y_f)/D, on systems over grids 1..3 with ratio
        # entries, right-hand sides of negative valuation, rank 0, rank 1,
        # rank-deficient and inconsistent systems
        rng = random.Random(71)
        seen = Counter()
        for trial in range(200):
            m, n = rng.randint(1, 4), rng.randint(1, 5)
            dens = [rng.choice([1, 2, 3]) for _ in range(m)]
            rows = [[grid_scalar(rng, d) for _ in range(n)] for d in dens]
            rhs = [grid_scalar(rng, d) for d in dens]
            shape = trial % 4
            if shape == 0:
                # push the right-hand sides below the pivots' valuations
                rhs = [x * px({-rng.randint(1, 4): 1}) for x in rhs]
            elif shape == 1 and m > 1:
                lam = random_scalar(rng, zero=False)
                k = rng.randrange(1, m)
                rows[k] = [a + lam * b for a, b in zip(rows[0], rows[k - 1])]
                rhs[k] = rhs[0] + lam * rhs[k - 1]
                if rng.random() < 0.5:
                    rhs[k] = rhs[k] + ONE
            elif shape == 2:
                base = rows[0] if rng.random() < 0.7 else [ZERO] * n
                rows = [[random_scalar(rng, zero=False) * x for x in base]
                        for _ in range(m)]
            red = rref_solve(rows, rhs)
            q = red.q
            # every column, pivot columns and the right-hand side included
            entries = [(i, j) for i in range(red.rank) for j in range(n + 1)]
            for i, j in entries:
                want = (red.matrix[i][j] if j < n
                        else red.rhs[i]).series_coefficients(0)
                head = red.head[i][j]
                got = {F(k - len(head) + 1, q): c
                       for k, c in enumerate(head) if c}
                assert got == want
                seen["negative_rhs"] += j == n and min(want, default=0) < 0
                seen["depth>=2"] += len(head) > 2
            for den in (1, rng.randint(2, 6)):
                ys = {f: F(rng.randint(-5, 5), den) for f in red.free_cols}
                check_pivot_values(red, n, ys)
                seen["rational_y"] += any(y.denominator > 1
                                          for y in ys.values())
            seen["grid>1"] += q > 1
            seen["ratio"] += any(not x.den.is_one for row in rows for x in row)
            seen["rank0"] += red.rank == 0
            seen["rank1"] += red.rank == 1
            seen["deficient"] += 0 < red.rank < min(m, n)
            seen["inconsistent"] += not red.consistent
        assert all(seen.values()), seen


def field_rref(rows, rhs, pivot_cols):
    """Gauss-Jordan over the series field with the given pivot columns."""
    a = [list(row) + [b] for row, b in zip(rows, rhs)]
    for k, c in enumerate(pivot_cols):
        r = next(r for r in range(k, len(a)) if a[r][c])
        pivot = a[r]
        a[r] = a[k]
        a[k] = [x / pivot[c] for x in pivot]
        for i in range(len(a)):
            f = a[i][c]
            if i != k and f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return a


def gauss_jordan_bareiss(rows, ncols, key, divexact):
    """One-pass fraction-free Gauss-Jordan: the reference for both passes.

    Same pivot rule and row swaps, but each step also updates the rows
    that already hold a pivot, so it ends with the reduced numerators
    directly.  It runs on LaurentPolynomial objects, through their
    operators.
    """
    m = len(rows)
    pivot_cols = []
    prev = None
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
        prow = rows[rank]
        piv = prow[c]
        for i, row in enumerate(rows):
            if i == rank:
                continue
            f = row[c]
            new = ([piv * a - f * b for a, b in zip(row, prow)] if f
                   else [piv * a for a in row])
            rows[i] = new if prev is None else [divexact(x, prev) if x else x
                                                for x in new]
        prev = piv
        pivot_cols.append(c)
    return pivot_cols


def poly_key(p):
    """`rref_solve`'s pivot key on Laurent polynomial objects."""
    return p.valuation(), p.term_count


def near_zero_key(p):
    """`kernel_basis`'s pivot key on Laurent polynomial objects."""
    return abs(p.valuation()), p.term_count


def eliminate_matches_gauss_jordan(rows, ncols):
    """`rref_solve`'s exact passes against the reference on the cleared rows.

    Each row holds `ncols` coefficients and then its right-hand side.
    Equal pivots, equal rows N entrywise (so equal rows past the rank,
    hence equal rank and consistency) and equal D.  The systems sit below
    the truncation crossover, so the pivots are the exact pass's.
    Returns (N, pivots).
    """
    want = [_clear_denominators(row) for row in rows]
    want_cols = gauss_jordan_bareiss(want, ncols, poly_key, laurent_divexact)
    assert not truncates(len(rows), ncols)
    red = rref_solve([row[:ncols] for row in rows],
                     [row[ncols] for row in rows])
    assert list(red.pivot_cols) == want_cols
    assert red.rank == len(want_cols)
    assert red.consistent == (not any(row[ncols]
                                      for row in want[red.rank:]))
    assert [list(row) for row in red.num] == want
    assert red.den == (want[0][want_cols[0]] if want_cols
                       else LaurentPolynomial.one())
    return red.num, want_cols


def kernel_matches_gauss_jordan(rows):
    """`kernel_basis` against the reference run on the cleared rows.

    The reference pivots by the same least-|valuation| key; the vector of
    free column f must be D*e_f - sum_i N[i][f]*e_(c_i).  Returns the
    pivot columns.
    """
    n = len(rows[0])
    want = [_clear_denominators(row) for row in rows]
    cols = gauss_jordan_bareiss(want, n, near_zero_key, laurent_divexact)
    d = PuiseuxFraction(want[0][cols[0]] if cols
                        else LaurentPolynomial.one())
    basis = []
    for f in range(n):
        if f not in cols:
            vec = [ZERO] * n
            vec[f] = d
            for row, c in zip(want, cols):
                vec[c] = PuiseuxFraction(-row[f])
            basis.append(tuple(vec))
    assert kernel_basis(rows) == basis
    return cols


def tally_shapes(seen, rows, ncols, reduced, rank):
    m = len(rows)
    seen["rank>=3"] += rank >= 3
    seen["deficient"] += rank < min(m, ncols)
    seen["inconsistent"] += any(row[ncols] for row in reduced[rank:])
    seen["tall"] += m > ncols
    seen["wide"] += m < ncols
    seen["one_row"] += m == 1
    seen["zero_column"] += any(not any(row[c] for row in rows)
                               for c in range(ncols))


def grid_scalar(rng, den):
    """Zero, or up to 3 terms on a grid q = 1..3 with coefficients over den.

    Either sign; 30% of the 3-term ones are ratios over a binomial.
    """
    kind = rng.randint(0, 3)
    if kind == 0:
        return ZERO
    q = rng.randint(1, 3)
    num = LaurentPolynomial.from_terms(
        {F(rng.randint(-3, 3), q): F(rng.choice([-5, -3, -1, 1, 2, 4]), den)
         for _ in range(kind)})
    if kind < 3 or rng.random() < 0.7:
        return PuiseuxFraction(num)
    den = LaurentPolynomial.from_terms(
        {0: 1, F(rng.randint(1, 2), q): F(rng.choice([-3, 1, 2]),
                                          rng.choice([1, 2, 5]))})
    return PuiseuxFraction(num, den)


class TestBareissKernel:
    """Forward elimination plus back substitution against Gauss-Jordan."""

    def test_laurent_rows_match_gauss_jordan(self):
        rng = random.Random(83)
        seen = dict.fromkeys(["rank>=3", "deficient", "inconsistent", "tall",
                              "wide", "one_row", "zero_column", "ratio",
                              "no_columns", "kernel_pivots_differ"], 0)
        for _ in range(200):
            m, n = rng.randint(1, 5), rng.randint(0, 5)
            rows = [[random_scalar(rng) for _ in range(n)] + [random_scalar(rng)]
                    for _ in range(m)]
            if m > 1 and rng.random() < 0.4:
                lam = random_scalar(rng, zero=False)
                k = rng.randrange(1, m)
                rows[k] = [a + lam * b for a, b in zip(rows[0], rows[k - 1])]
                if rng.random() < 0.5:
                    rows[k][n] = rows[k][n] + ONE
            if n and rng.random() < 0.2:
                c = rng.randrange(n)
                for row in rows:
                    row[c] = ZERO
            seen["ratio"] += any(not x.den.is_one for row in rows for x in row)
            seen["no_columns"] += n == 0
            got, cols = eliminate_matches_gauss_jordan(rows, n)
            tally_shapes(seen, rows, n, got, len(cols))
            kernel_cols = kernel_matches_gauss_jordan(
                [row[:n] for row in rows])
            seen["kernel_pivots_differ"] += kernel_cols != cols
        assert all(seen.values()), seen

    def test_row_scales_and_grids(self):
        # Rows on mixed grids with their own content denominators, so each
        # row runs scaled by its own L; rank 0 and rank 1 systems; and
        # inconsistent rows past the rank, whose undivided right-hand
        # sides carry the product of the pivot rows' L times their own.
        rng = random.Random(97)
        seen = dict.fromkeys(["mixed_grids", "row_scales_differ", "negative",
                              "ratio", "rank0", "rank1", "rank>=2",
                              "scaled_rhs_past_rank",
                              "kernel_pivots_differ"], 0)
        for _ in range(150):
            m, n = rng.randint(1, 5), rng.randint(1, 4)
            dens = [rng.choice([1, 2, 3, 4, 6, 7]) for _ in range(m)]
            rows = [[grid_scalar(rng, d) for _ in range(n + 1)] for d in dens]
            shape = rng.random()
            if shape < 0.15:
                for row in rows:
                    row[:n] = [ZERO] * n
            elif shape < 0.45 and m > 1:
                # multiples of one row, each with its own right-hand side
                base = rows[0]
                for i in range(1, m):
                    lam = PuiseuxFraction.constant(
                        F(rng.choice([-3, -1, 2, 5]), dens[i]))
                    rows[i] = [lam * x for x in base[:n]] + [rows[i][n]]
            for row in rows:
                if rng.random() < 0.3:
                    row[:] = [-x for x in row]
            got, cols = eliminate_matches_gauss_jordan(rows, n)
            kernel_cols = kernel_matches_gauss_jordan(
                [row[:n] for row in rows])
            seen["kernel_pivots_differ"] += kernel_cols != cols
            rank = len(cols)
            cleared = [_clear_denominators(row) for row in rows]
            scales = [math.lcm(*(p.content.denominator for p in row))
                      for row in cleared]
            grids = {x.num.q for row in rows for x in row if x}
            seen["mixed_grids"] += len(grids) > 1
            seen["row_scales_differ"] += len(set(scales)) > 1
            seen["negative"] += any(x and x.num.lowest_coefficient() < 0
                                    for row in rows for x in row)
            seen["ratio"] += any(not x.den.is_one for row in rows for x in row)
            seen[("rank0", "rank1", "rank>=2")[min(rank, 2)]] += 1
            for row in got[rank:]:
                assert not any(row[:n])
            if rank == 0:
                assert [list(row) for row in got] == cleared
            seen["scaled_rhs_past_rank"] += any(
                row[n] and row[n].content.denominator > 1 for row in got[rank:])
        assert all(seen.values()), seen


class TestKernelBasis:
    def test_kernel_over_series_field(self):
        rows = [[ONE, T, -ONE]]
        basis = kernel_basis(rows)
        assert len(basis) == 2
        for vec in basis:
            acc = ZERO
            for a, x in zip(rows[0], vec):
                acc = acc + a * x
            assert acc == ZERO

    def test_ratio_rows_give_polynomial_vectors(self):
        rng = random.Random(41)
        for _ in range(40):
            m = rng.randint(1, 4)
            n = rng.randint(2, 5)
            rows = [[random_scalar(rng) for _ in range(n)] for _ in range(m)]
            for row in rows:
                x = ZERO
                while x.den.is_one:
                    x = random_scalar(rng, zero=False)
                row[rng.randrange(n)] = x
            if m > 1 and rng.random() < 0.5:
                # a dependent row, so the rank drops below min(m, n)
                lam = random_scalar(rng, zero=False)
                rows.append([a + lam * b for a, b in zip(rows[0], rows[1])])
            rank = rref_solve(rows, [ZERO] * len(rows)).rank
            basis = kernel_basis(rows)
            assert len(basis) == n - rank
            for vec in basis:
                assert all(x.den.is_one for x in vec)
                assert any(vec)
                for row in rows:
                    acc = ZERO
                    for a, x in zip(row, vec):
                        acc = acc + a * x
                    assert acc == ZERO

    def test_empty_matrix(self):
        basis = kernel_basis([], ncols=2)
        assert basis == [(1, 0), (0, 1)]


def grid_terms(x, prec=INF):
    """{exponent: coefficient} of a grid triple's value below t^prec."""
    if x is None:
        return {}
    low, c, coeffs = x
    return {low + i: c * v for i, v in enumerate(coeffs)
            if v and low + i < prec}


def check_pivot_values(red, n, ys):
    """`pivot_values` at y against (N_rhs - sum_f N_f*y_f)/D from `num`."""
    got = red.pivot_values(ys)
    assert len(got) == red.rank
    for x, row in zip(got, red.num):
        acc = row[n]
        for f, y in ys.items():
            acc = acc - row[f].scale(y)
        # x = acc / D, checked without a gcd
        assert x.num * red.den == acc * x.den


def exact_route(red, n):
    """The exact forward pass on red's pivot sequence, checked against red.

    The truncated route must give what the exact one gives on the same
    pivots: the rank (every pivot nonzero, rows past it zero in every
    column), consistency and `head`.  Each pivot must also have the least
    valuation in its own row, which `head` relies on.
    """
    rows = list(red.inputs)
    pivots = _forward(rows, plan=red.pivot_cols)[1]
    assert all(pivots) and len(pivots) == red.rank
    for row in rows[red.rank:]:
        assert not any(row[:n])
    assert red.consistent == (not any(row[n] for row in rows[red.rank:]))
    for i, (row, p) in enumerate(zip(rows, pivots)):
        assert all(row[j][0] >= p[0] for j in range(n)
                   if row[j] and j not in red.pivot_cols[:i])
    assert red.head == _lowest_orders(rows, list(red.pivot_cols), pivots)


def check_against_exact_route(red, n, rng):
    """`exact_route`, and `check_pivot_values` at integer and rational y."""
    exact_route(red, n)
    for den in (1, rng.randint(2, 6)):
        check_pivot_values(
            red, n, {f: F(rng.randint(-5, 5), den) for f in red.free_cols})


def truncates(m, n):
    """Whether `rref_solve` runs its forward pass truncated on m x n."""
    return min(m, n) >= TRUNCATE_MIN_STEPS and n - m >= TRUNCATE_MIN_FREE


def dependent_system(rng, consistent):
    """7 x 9: six generic rows, then row 0 + t*row 1, so the rank is 6.

    Its right-hand side is b_0 + t*b_1, plus 1 when inconsistent.
    """
    rows = [[px({e: rng.randint(-9, 9) or 1 for e in rng.sample(range(-4, 5),
                                                               3)})
             for _ in range(9)] for _ in range(6)]
    rhs = [px({rng.randint(-3, 3): rng.randint(1, 9)}) for _ in range(6)]
    rows.append([a + T * b for a, b in zip(rows[0], rows[1])])
    rhs.append(rhs[0] + T * rhs[1] + (ZERO if consistent else ONE))
    return rows, rhs


class TestTruncatedPass:
    """Past the crossover, `rref_solve` picks its pivots and builds
    `head` on truncated entries; everything it reports must equal the
    exact pass's on the same pivot sequence."""

    @pytest.fixture
    def attempts(self, monkeypatch):
        """The precision of each `_forward` call `rref_solve` makes."""
        seen = []

        def spy(rows, ncols=None, key=None, prec=None, plan=None):
            seen.append(prec)
            return _forward(rows, ncols, key, prec, plan)

        monkeypatch.setattr(linalg, "_forward", spy)
        return seen

    def test_planted_systems_match_the_exact_route(self, attempts):
        rng = random.Random(131)
        seen = Counter()
        for n in range(12, 21):
            for grid in (1, 2, 3):
                cfg = GenConfig(seed=1300 + 10 * n + grid, m=n // 2, n=n,
                                terms_per_entry=3, exp_lo=-5, exp_hi=5,
                                grid_den=grid, coeff_bound=9)
                inst, point, _ = gen_member(cfg)
                stripped = strip_infinite(inst, point)
                part = normalize_and_partition(stripped.instance,
                                               stripped.point)
                # the instance on its own grid, and decide's slices of it
                for sub in (inst, *part.subsystems):
                    attempts.clear()
                    red = rref_solve(sub.matrix, sub.rhs)
                    # the route of the forward pass that settled
                    truncated = attempts[-1] is not None
                    m, width = len(sub.matrix), len(sub.matrix[0])
                    check_against_exact_route(red, width, rng)
                    assert truncated == truncates(m, width)
                    seen["truncated"] += truncated
                    seen["exact"] += not truncated
                    seen["grid>1"] += red.q > 1
        # square slices, left once their infinite columns are gone, and
        # slices with one free column take the exact route; the slices of
        # a grid-2 or grid-3 instance stay on its grid
        assert seen["truncated"] == 51 and seen["exact"] == 3, seen
        assert seen["grid>1"] == 36, seen

    def test_low_right_hand_sides_raise_the_precision(self, attempts):
        # right-hand sides 20 orders below the entries: `head` reads their
        # orders -20..0, past what the first truncated pass keeps
        rng = random.Random(137)
        rows = [[px({0: rng.randint(1, 9), 1: rng.randint(-9, 9),
                     2: rng.randint(-9, 9)}) for _ in range(8)]
                for _ in range(6)]
        rhs = [px({-20: rng.randint(1, 9), -3: 1}) for _ in range(6)]
        assert truncates(6, 8)
        red = rref_solve(rows, rhs)
        assert attempts == [4, 8, 16, 32]
        assert min(len(h[-1]) for h in red.head) == 21
        check_against_exact_route(red, 8, rng)

    def test_pivot_search_waits_for_a_hidden_valuation(self, attempts):
        # the last row is row 0 plus t^12 times a generic row: once row 0
        # has eliminated it, its entries have valuation about 12 more than
        # the others, past what the first pass keeps, so they are "zero so
        # far" and the rank is settled only with more orders
        rng = random.Random(151)
        rows, rhs = dependent_system(rng, consistent=True)
        t12 = px({12: 1})
        rows[-1] = [a + t12 * px({rng.randint(-4, 4): rng.randint(1, 9)})
                    for a in rows[0]]
        red = rref_solve(rows, rhs)
        assert attempts == [4, 8, 16, 32]
        assert red.rank == 7
        check_against_exact_route(red, 9, rng)

    def test_singular_schur_complement_ends_exact(self, attempts):
        # the dependent row's Schur complement is exactly zero, which no
        # truncated entry can show, so the precision rises until the
        # pass is exact
        rng = random.Random(139)
        rows, rhs = dependent_system(rng, consistent=True)
        assert truncates(len(rows), len(rows[0]))
        red = rref_solve(rows, rhs)
        assert attempts == [4, 8, 16, 32, 64, None]
        assert red.rank == 6 < min(len(rows), len(rows[0]))
        assert red.consistent
        check_against_exact_route(red, 9, rng)

    def test_rows_past_the_rank_with_a_right_hand_side(self, attempts):
        rng = random.Random(139)
        rows, rhs = dependent_system(rng, consistent=False)
        red = rref_solve(rows, rhs)
        assert attempts[0] is not None
        assert red.rank == 6 and not red.consistent
        check_against_exact_route(red, 9, rng)
        inst = Instance.from_rows(rows, rhs)
        assert decide(inst, (0,) * 9) == NotMember(STAGE_INFEASIBLE)

    def test_step_keeps_only_terms_it_knows(self):
        # One truncated step on random operands cut at random orders, some
        # to nothing: every term an output claims to know, below its
        # precision, is the exact result's.  The pivot and f are multiples
        # of the previous pivot, so (D*a - f*b) / prev is exact.
        rng = random.Random(149)

        def triple():
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
            coeffs[0] = coeffs[0] or 1
            coeffs[-1] = coeffs[-1] or -1
            g = math.gcd(*coeffs)  # exact triples hold primitive lists
            return (rng.randint(-5, 5), rng.choice((1, 1, 2, 3)),
                    [v // g for v in coeffs])

        def cut(x, known=False):
            """x and its precision, cut at a random order (kept nonzero)."""
            if x is None:
                return None, INF
            p = x[0] + rng.randint(1 if known else -2, 9)
            return grid_cut(x, p), p

        seen = Counter()
        for _ in range(300):
            prev = triple()
            piv = grid_mul(prev, triple())
            f = grid_mul(prev, triple()) if rng.random() < 0.8 else None
            a = [f] + [triple() if rng.random() < 0.8 else None
                       for _ in range(4)]
            b = [piv] + [triple() if rng.random() < 0.8 else None
                         for _ in range(4)]
            want = [grid_sub(grid_mul(piv, x), grid_mul(f, y))
                    for x, y in zip(a, b)]
            want = [grid_divexact(x, prev) if x else None for x in want]
            row, precs = map(list, zip(*map(cut, a)))
            prow, pprecs = map(list, zip(*map(cut, b)))
            prow[0], pprecs[0] = cut(piv, known=True)
            dprev, dprec = cut(prev, known=True)
            out, outp = _truncated_step(row, precs, prow, pprecs, 0, dprev,
                                        dprec)
            for x, p, w in zip(out, outp, want):
                assert grid_terms(x) == grid_terms(w, p)
                seen["known"] += x is not None
                seen["unknown_zero"] += x is None and p != INF
                seen["exact_zero"] += p == INF
        assert all(seen.values()), seen

    def test_inexact_truncated_quotient_raises(self):
        # (1*2 - 1*1) / (3 + t): a truncated step divides term by term,
        # and 1/3 is no integer
        one = (0, 1, [1])
        with pytest.raises(ArithmeticError):
            _truncated_step([one, (0, 2, [1])], [5, 5], [one, one], [5, 5],
                            0, (0, 1, [3, 1]), 5)


def planted_system(seed, n, grid):
    """A planted m = n/2 instance with 3-term entries on grid t^(1/grid)."""
    cfg = GenConfig(seed=seed, m=n // 2, n=n, terms_per_entry=3, exp_lo=-5,
                    exp_hi=5, grid_den=grid, coeff_bound=9)
    return gen_member(cfg)[0]


class TestWitnessSolve:
    """Whichever way the forward pass ran, `pivot_values` eliminates
    [B | c] exactly with its own pivots, by entry size; x = B^-1 c
    whatever their order."""

    def test_size_ordered_solve_matches_both_routes(self, monkeypatch):
        # after truncated solves: `head` and the rank against the exact
        # forward pass's, and pivot values at integer and rational y
        # against (N_rhs - sum_f N_f*y_f)/D from the full back pass
        orders = []

        def spy(rows, ncols=None, key=None, prec=None, plan=None):
            out = _forward(rows, ncols, key, prec, plan)
            if key is _size_key:
                orders.append(out[0])
            return out

        monkeypatch.setattr(linalg, "_forward", spy)
        rng = random.Random(157)
        seen = Counter()
        for n in range(12, 21):
            for grid in (1, 2, 3):
                inst = planted_system(1700 + 10 * n + grid, n, grid)
                assert truncates(n // 2, n)
                red = rref_solve(inst.matrix, inst.rhs)
                assert red.rank == n // 2
                check_against_exact_route(red, n, rng)
                assert all(sorted(cols) == list(range(red.rank))
                           for cols in orders)
                seen["reordered"] += any(cols != list(range(red.rank))
                                         for cols in orders)
                seen["grid>1"] += red.q > 1
                orders.clear()
        # the size key must choose another order than the plan somewhere,
        # or the test shows nothing
        assert seen["reordered"] and seen["grid>1"], seen

    def test_singular_pivot_block_is_an_internal_error(self):
        # [B | c] from inputs whose pivot block is singular: the second
        # pivot row repeats the first, so the pass ends below full rank
        inst = planted_system(1777, 12, 1)
        assert truncates(6, 12)
        red = rref_solve(inst.matrix, inst.rhs)
        ys = dict.fromkeys(red.free_cols, F(1))
        assert len(red.pivot_values(ys)) == red.rank
        broken = dataclasses.replace(
            red, inputs=[red.inputs[0], *red.inputs[:1], *red.inputs[2:]])
        with pytest.raises(LiftInternalError):
            broken.pivot_values(ys)

    def test_exact_solve_takes_the_same_witness_route(self, monkeypatch):
        # below the crossover the forward pass is exact, and the witness
        # still comes from one size-ordered pass over [B | c]
        calls = []

        def spy(rows, ncols=None, key=None, prec=None, plan=None):
            calls.append((key, prec, plan))
            return _forward(rows, ncols, key, prec, plan)

        monkeypatch.setattr(linalg, "_forward", spy)
        rng = random.Random(173)
        inst = planted_system(1790, 8, 2)
        assert not truncates(4, 8)
        red = rref_solve(inst.matrix, inst.rhs)
        assert calls == [(_least_valuation_key, None, None)]
        assert red.rank == 4
        calls.clear()
        ys = {f: F(rng.randint(-5, 5), 3) for f in red.free_cols}
        check_pivot_values(red, 8, ys)
        assert calls[0] == (_size_key, None, None)
        # then `num` reruns the exact pass on the pivot sequence
        assert calls[1:] == [(None, None, red.pivot_cols)]

    def test_exact_step_skips_the_eliminated_column(self, monkeypatch):
        # piv*f - f*piv in the pivot column is zero by construction: no
        # product may take both factors from one column of the rows
        rng = random.Random(167)
        rows = [[px({e: rng.randint(1, 9) for e in rng.sample(range(-3, 4),
                                                              3)})
                 for _ in range(7)] for _ in range(5)]
        grid = _on_grid(rows)[0]
        formed = Counter()

        def spy(x, y, prec=None):
            if x is not None and y is not None:
                cols = [{j for row in grid for j, e in enumerate(row)
                         if e is z} for z in (x, y)]
                formed["same_column" if cols[0] & cols[1] else "other"] += 1
            return grid_mul(x, y, prec)

        monkeypatch.setattr(linalg, "grid_mul", spy)
        pivot_cols = _forward(grid, 7, _near_zero_key)[0]
        assert len(pivot_cols) == 5 and formed["other"] > 0
        assert formed["same_column"] == 0, formed
        for k, c in enumerate(pivot_cols):
            assert all(row[c] is None for row in grid[k + 1:])
