"""End-to-end and per-stage tests of the lifting pipeline on worked instances.

The four small systems exercised throughout:

    W1: [1, t]            * x = 1
    W2: [1, 1, 1]         * x = 0
    W3: [1, t^-1 + 1]     * x = 1
    W4: [1, t^-1+1, t^-1] * x = 1
"""

import random
import time
import tracemalloc
from fractions import Fraction as F

import pytest

from troplift.lift import (
    Instance,
    LiftInternalError,
    Member,
    NotMember,
    OversizedEntry,
    STAGE_EMPTY_CLASS,
    STAGE_FAMILY_L,
    STAGE_INFEASIBLE,
    STAGE_SYSTEM3,
    attach_unknowns,
    build_forms,
    decide,
    matvec,
    normalize_and_partition,
    permute_columns,
    regrid_instance,
    regrid_point,
    reconstruct_witness,
    solve_and_sweep,
    strip_infinite,
    verify_witness,
    _witness_holds,
)
from troplift.linalg import RrefResult, rref_solve
from troplift.oracle import member_oracle
from troplift.series import INF, LaurentPolynomial, PuiseuxFraction


def px(terms):
    return PuiseuxFraction.from_terms(terms)


ONE = PuiseuxFraction.one()
ZERO = PuiseuxFraction.zero()
T = PuiseuxFraction.t_power(1)
TM1 = px({-1: 1})
TM1P1 = px({-1: 1, 0: 1})

W1 = Instance.from_rows([[ONE, T]], [ONE])
W2 = Instance.from_rows([[ONE, ONE, ONE]], [ZERO])
W3 = Instance.from_rows([[ONE, TM1P1]], [ONE])
W4 = Instance.from_rows([[ONE, TM1P1, TM1]], [ONE])


def forms_as_dicts(forms, layout):
    """Translate linear forms into {column: coeff} plus constant."""
    out = []
    for form in forms:
        named = {layout.variables[i]: c for i, c in form.coeffs}
        out.append((form.constant, named))
    return out


def run_stage_pipeline(inst, v):
    stripped = strip_infinite(inst, v)
    part = normalize_and_partition(stripped.instance, stripped.point)
    assert len(part.subsystems) == 1
    sub = part.subsystems[0]
    red = rref_solve(sub.matrix, sub.rhs)
    layout = attach_unknowns(sub, red)
    negative_rows, must_not = build_forms(sub, red, layout)
    return sub, red, layout, negative_rows, must_not


class TestStripInfinite:
    def test_deletes_column_and_pins_zero(self):
        inst = Instance.from_rows([[ONE, ONE]], [ONE])
        res = strip_infinite(inst, (0, INF))
        assert res.instance.n == 1
        assert res.point == (0,)
        assert res.kept == (0,)
        assert res.fixed == {1: ZERO}

    def test_identity_on_finite_points(self):
        res = strip_infinite(W1, (0, 0))
        assert res.instance is W1
        assert res.fixed == {}

    def test_all_infinite(self):
        inst = Instance.from_rows([[ONE, ONE]], [ONE])
        assert decide(inst, (INF, INF)) == NotMember(STAGE_EMPTY_CLASS)
        zero_rhs = Instance.from_rows([[ONE, ONE]], [ZERO])
        result = decide(zero_rhs, (INF, INF))
        assert result.is_member
        assert result.witness == (ZERO, ZERO)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            strip_infinite(W1, (0, 0, 0))


class TestNormalizeAndPartition:
    def test_residue_classes(self):
        inst = Instance.from_rows([[ONE, ONE, ONE, ONE]], [ONE])
        part = normalize_and_partition(inst, (F(1, 2), F(3, 2), 0, 2))
        assert [(s.residue, s.columns) for s in part.subsystems] == [
            (F(0), (2, 3)), (F(1, 2), (0, 1))]
        rhs_class = part.subsystems[0]
        assert rhs_class.rhs == inst.rhs
        assert part.subsystems[1].rhs == (ZERO,)
        # the integer slice sees the half-integer columns with a strict
        # valuation bound: their scaled shift exceeds the target
        assert rhs_class.exact == (False, False, True, True)
        assert rhs_class.shifts == (F(1), F(2), F(0), F(2))
        half = part.subsystems[1]
        assert half.exact == (True, True, False, False)
        assert half.shifts == (F(1, 2), F(3, 2), F(1, 2), F(5, 2))

    def test_column_scaling(self):
        part = normalize_and_partition(W1, (3, -1))
        sub = part.subsystems[0]
        assert sub.matrix.rows == ((px({3: 1}), ONE),)
        assert sub.rhs == (ONE,)
        assert sub.shifts == (F(3), F(-1))
        assert sub.exact == (True, True)

    def test_no_integer_class_still_gets_rhs_slice(self):
        # a nonzero right-hand side lives in the integer slice even when
        # no column's target valuation is an integer; here that slice is
        # unsatisfiable, which the verdict must report
        inst = Instance.from_rows([[ONE, ONE]], [ONE])
        part = normalize_and_partition(inst, (F(1, 2), F(1, 2)))
        assert not part.rhs_class_missing
        assert [s.residue for s in part.subsystems] == [F(0), F(1, 2)]
        assert part.subsystems[0].exact == (False, False)
        assert decide(inst, (F(1, 2), F(1, 2))) == NotMember(STAGE_SYSTEM3)

    def test_residue_mixing_inside_one_coordinate(self):
        # membership can require a coordinate whose series mixes exponent
        # residues; the integer slice borrows the half-integer column
        inst = Instance.from_rows([[ONE, ONE]], [ONE])
        v = (F(0), F(1, 2))
        result = decide(inst, v)
        assert result.is_member
        assert result.witness == (px({0: 1, F(1, 2): -1}),
                                  px({F(1, 2): 1}))
        assert member_oracle(inst, v)

    def test_slices_stay_on_the_instance_grid(self):
        # residues are counted in steps of t^(1/2); the slices keep the
        # entry t^(1/2), and column shifts are on that grid too
        inst = Instance.from_rows([[px({F(1, 2): 1}), ONE]], [ONE])
        part = normalize_and_partition(inst, (F(-1, 2), F(1, 4)))
        assert [s.residue for s in part.subsystems] == [F(0), F(1, 2)]
        whole, half = part.subsystems
        assert whole.matrix.rows == ((ONE, px({F(1, 2): 1})),)
        assert whole.shifts == (F(-1, 2), F(1, 2))
        assert whole.exact == (True, False)
        assert half.matrix.rows == ((ONE, ONE),)
        assert half.shifts == (F(-1, 4), F(1, 4))
        assert half.exact == (False, True)


class TestAttachUnknowns:
    def test_small_positive_valuation_pins_to_one(self):
        _, _, layout, _, _ = run_stage_pipeline(W1, (0, 0))
        assert [fc.unknown for fc in layout.free] == [None]
        assert layout.variables == ()

    def test_negative_valuation_makes_polynomial(self):
        # the column of valuation -1 is the pivot, not an ansatz of degree
        # 1: the free column's entry t/(1 + t) has valuation 1, so it is
        # pinned
        _, red, layout, _, _ = run_stage_pipeline(W3, (0, 0))
        assert red.pivot_cols == (1,)
        assert [(fc.column, fc.unknown) for fc in layout.free] == [(0, None)]
        assert layout.variables == ()

    def test_valuation_zero_single_coefficient(self):
        _, _, layout, _, _ = run_stage_pipeline(W2, (0, 0, 0))
        assert [(fc.column, fc.unknown) for fc in layout.free] == [(1, 0), (2, 1)]
        assert layout.variables == (1, 2)

    def test_negative_free_entry_is_an_internal_error(self):
        # W3 reduced on column 0, as a least-|valuation| pivot rule would:
        # its free entry t^-1 + 1 has valuation -1, which no later stage
        # handles; its orders -1..0 are (1, 1)
        sub = normalize_and_partition(W3, (0, 0)).subsystems[0]
        red = RrefResult(pivot_cols=(0,), free_cols=(1,), rank=1,
                         consistent=True,
                         head=(((F(1),), (F(1), F(1)), (F(1),)),),
                         q=1, scales=[1], inputs=None)
        with pytest.raises(LiftInternalError):
            attach_unknowns(sub, red)


class TestBuildForms:
    def test_row_with_unit_rhs_only(self):
        # residual t*1 - 1 has order-zero coefficient -1 and no unknowns
        _, _, layout, vanish, keep = run_stage_pipeline(W1, (0, 0))
        assert vanish == []
        assert forms_as_dicts([f for _, f in keep], layout) == [(F(-1), {})]

    def test_negative_order_constraint(self):
        # orders < 0 can come only from a reduced right-hand side: at
        # (1, 0), W1 reduces to x_0 + x_1 = t^-1
        _, red, _, negative, keep = run_stage_pipeline(W1, (1, 0))
        assert red.pivot_cols == (0,)
        assert negative == [0]
        assert keep == []
        # W3's right-hand side t/(1 + t) has valuation 1: no negative
        # order, and an order-zero residual that is the zero form
        _, _, layout, negative, keep = run_stage_pipeline(W3, (0, 0))
        assert negative == []
        assert [label for label, _ in keep] == ["L[0,0]"]
        assert forms_as_dicts([f for _, f in keep], layout) == [(F(0), {})]

    def test_three_column_forms(self):
        # pivot t^-1 (valuation -1, one term); x_2 + t*x_0 + (1 + t)*x_1 = t
        _, red, layout, vanish, keep = run_stage_pipeline(W4, (0, 0, 0))
        assert red.pivot_cols == (2,)
        assert vanish == []
        assert [label for label, _ in keep] == ["L[0,0]", "y[1,0]"]
        named = forms_as_dicts([f for _, f in keep], layout)
        assert named == [
            (F(0), {1: F(1)}),  # order-zero residual
            (F(0), {1: F(1)}),  # the unknown of exact column 1
        ]


class TestSolveAndSweep:
    def test_whole_plane_first_candidate(self):
        _, _, layout, vanish, keep = run_stage_pipeline(W2, (0, 0, 0))
        outcome = solve_and_sweep(vanish, keep, layout)
        assert outcome.values == (1, 1)
        assert outcome.stats.chosen_p == 1
        assert outcome.stats.dim == 2
        assert outcome.stats.bound == 7

    def test_identically_vanishing_leading_coefficient(self):
        # W3's pivot coordinate x_1 = t/(1 + t) - t/(1 + t) * x_0 has order
        # 0 coefficient 0 whatever x_0 is
        _, _, layout, vanish, keep = run_stage_pipeline(W3, (0, 0))
        outcome = solve_and_sweep(vanish, keep, layout)
        assert outcome == NotMember(STAGE_FAMILY_L)
        assert "L[0,0]" in outcome.detail

    def test_constant_contradiction(self):
        _, _, layout, vanish, keep = run_stage_pipeline(W1, (1, 0))
        outcome = solve_and_sweep(vanish, keep, layout)
        assert outcome == NotMember(STAGE_SYSTEM3)

    def test_sweep_skips_killed_candidates(self):
        inst = Instance.from_rows([[ONE, ONE, ONE]], [px({0: 2})])
        _, _, layout, vanish, keep = run_stage_pipeline(inst, (0, 0, 0))
        outcome = solve_and_sweep(vanish, keep, layout)
        # p=1 zeroes the order-0 residual y_1 + y_2 - 2
        assert outcome.stats.chosen_p == 2
        assert outcome.values == (2, 4)
        assert outcome.stats.chosen_p <= outcome.stats.bound


class TestReconstructWitness:
    def test_unit_free_coordinate(self):
        sub, red, layout, vanish, keep = run_stage_pipeline(W1, (0, 0))
        outcome = solve_and_sweep(vanish, keep, layout)
        coords = reconstruct_witness(sub, red, layout, outcome.values)
        assert coords == {0: px({0: 1, 1: -1}), 1: ONE}

    def test_shifted_coordinates(self):
        sub, red, layout, vanish, keep = run_stage_pipeline(W1, (3, -1))
        outcome = solve_and_sweep(vanish, keep, layout)
        coords = reconstruct_witness(sub, red, layout, outcome.values)
        assert coords == {0: px({3: 1}), 1: px({-1: 1, 2: -1})}

    def test_stages_never_build_reduced_entries(self):
        # N, D and the reduced entries N/D take the full back pass; the
        # stages read the order-<=0 table and back-substitute one column
        lazy = ("num", "den", "matrix", "rhs")
        sub, red, layout, vanish, keep = run_stage_pipeline(W4, (0, 0, 0))
        outcome = solve_and_sweep(vanish, keep, layout)
        reconstruct_witness(sub, red, layout, outcome.values)
        assert not any(name in vars(red) for name in lazy)
        assert red.matrix[0][red.pivot_cols[0]] == ONE
        assert red.rhs == (T,)
        assert all(name in vars(red) for name in lazy)


class TestDecideFixtures:
    def test_w1_membership_table(self):
        assert decide(W1, (0, 0)) == Member((px({0: 1, 1: -1}), ONE))
        assert decide(W1, (1, 0)) == NotMember(STAGE_SYSTEM3)
        assert decide(W1, (3, -1)) == Member((px({3: 1}), px({-1: 1, 2: -1})))

    def test_w2_w3_w4(self):
        assert decide(W2, (0, 0, 0)) == Member((px({0: -2}), ONE, ONE))
        assert decide(W3, (0, 0)) == NotMember(STAGE_FAMILY_L)
        result = decide(W4, (0, 0, 0))
        assert result.is_member
        assert verify_witness(W4, (0, 0, 0), result.witness)

    def test_determinism(self):
        first = decide(W4, (0, 0, 0))
        for _ in range(3):
            assert decide(W4, (0, 0, 0)) == first

    def test_infeasible_over_the_field(self):
        inst = Instance.from_rows([[ONE, ONE], [ONE, ONE]], [ONE, px({0: 2})])
        assert decide(inst, (0, 0)) == NotMember(STAGE_INFEASIBLE)

    def test_zero_row_with_unmatchable_valuation(self):
        # x_0 = 0 is forced, so no coordinate can have valuation 0
        inst = Instance.from_rows([[ONE, ZERO]], [ZERO])
        assert decide(inst, (0, 0)) == NotMember(STAGE_FAMILY_L)

    def test_fully_zero_system(self):
        inst = Instance.from_rows([[ZERO, ZERO]], [ZERO])
        assert decide(inst, (0, 0)) == Member((ONE, ONE))

    def test_fractional_member(self):
        inst = Instance.from_rows([[px({F(1, 2): 1}), ONE]], [ONE])
        result = decide(inst, (F(-1, 2), 0))
        assert result.is_member
        assert verify_witness(inst, (F(-1, 2), 0), result.witness)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            decide(W1, (0,))


class TestVerifyWitness:
    def test_accepts_exact_witness(self):
        assert verify_witness(W1, (0, 0), (px({0: 1, 1: -1}), ONE))

    def test_rejects_wrong_product(self):
        assert not verify_witness(W1, (0, 0), (ONE, ONE))

    def test_rejects_valuation_mismatch(self):
        assert not verify_witness(W1, (1, 0), (px({0: 1, 1: -1}), ONE))

    def test_infinite_coordinates_must_be_zero(self):
        inst = Instance.from_rows([[ONE, ONE]], [ONE])
        assert verify_witness(inst, (0, INF), (ONE, ZERO))
        assert not verify_witness(inst, (0, INF), (ONE, px({5: 1})))

    def test_common_denominator_check_matches_matvec(self):
        # entries and coordinates over distinct binomial denominators,
        # with some shared between A and x so a term's denominator can
        # repeat a factor; the high-order bump keeps every valuation
        rng = random.Random(83)
        dens = [LaurentPolynomial.from_terms({0: 1, k: F(c, 2)})
                for k in (1, 2, 3) for c in (-3, 1, 5)]
        bump = px({40: 1})

        def scalar(zero):
            if zero and rng.random() < 0.2:
                return ZERO
            num = LaurentPolynomial.from_terms(
                {rng.randint(-3, 3): F(rng.randint(-5, 5) or 1,
                                       rng.randint(1, 4))
                 for _ in range(rng.randint(1, 3))})
            if rng.random() < 0.25:
                return PuiseuxFraction(num)
            return PuiseuxFraction(num, rng.choice(dens))

        checked = 0
        for _ in range(40):
            m, n = rng.randint(1, 3), rng.randint(1, 4)
            rows = [[scalar(True) for _ in range(n)] for _ in range(m)]
            x = [scalar(True) for _ in range(n)]
            rhs = [ZERO] * m
            inst = Instance.from_rows(rows, rhs)
            inst = Instance.from_rows(rows, matvec(inst, x))
            v = tuple(c.valuation() for c in x)
            assert verify_witness(inst, v, x)
            assert matvec(inst, x) == inst.rhs
            for j in range(n):
                if not any(row[j] for row in rows) or x[j].valuation() >= 40:
                    continue
                bumped = list(x)
                bumped[j] = x[j] + bump
                assert bumped[j].valuation() == v[j]
                assert matvec(inst, bumped) != inst.rhs
                assert not verify_witness(inst, v, bumped)
                checked += 1
        assert checked > 40

    def test_grouped_sums_match_series_arithmetic(self):
        # verify_witness against sum_j a_ij*x_j - b_i in series arithmetic,
        # on decide's witnesses for seeded planted members (every pivot
        # coordinate over one D) and on systems whose rows carry 0, 1 or 2
        # distinct denominators, with the same D in A and x (a term over
        # D^2) and right-hand sides A*x over non-unit denominators; grids
        # 1..3; each witness also with every coordinate bumped by c*t^k
        from troplift.gen import GenConfig, gen_member

        def reference(inst, v, x):
            return (all(sum((a * xi for a, xi in zip(row, x)), ZERO) == b
                        for row, b in zip(inst.matrix, inst.rhs))
                    and tuple(xi.valuation() for xi in x) == v)

        rng = random.Random(89)
        seen = {key: 0 for key in ("dens0", "dens1", "dens2", "square",
                                   "shared", "b_den", "bumped_true",
                                   "bumped_false", "grid1", "grid2",
                                   "grid3")}

        def check(inst, v, x, grid):
            assert reference(inst, v, x) and verify_witness(inst, v, x)
            seen["grid%d" % grid] += 1
            for row, b in zip(inst.matrix, inst.rhs):
                pairs = [(a.den, xi.den) for a, xi in zip(row, x)
                         if a and xi]
                dens = {d for p in pairs for d in p if not d.is_one}
                if not b.den.is_one:
                    dens.add(b.den)
                seen["dens%d" % min(len(dens), 2)] += 1
                seen["square"] += any(d == e and not d.is_one
                                      for d, e in pairs)
                xdens = [e for _, e in pairs if not e.is_one]
                seen["shared"] += len(set(xdens)) < len(xdens)
                seen["b_den"] += not b.den.is_one
            for j in range(len(x)):
                if v[j] == INF:
                    continue
                k = v[j] + F(rng.randint(-1, 4), grid)
                bumped = list(x)
                bumped[j] = x[j] + px({k: rng.choice([-2, 1, 3])})
                want = reference(inst, v, bumped)
                assert verify_witness(inst, v, bumped) == want
                seen["bumped_true" if want else "bumped_false"] += 1

        for i in range(12):
            grid = 1 + i % 3
            cfg = GenConfig(seed=8900 + i, m=2 + i % 3, n=5 + i % 2,
                            terms_per_entry=2, exp_lo=-2, exp_hi=2,
                            grid_den=grid)
            inst, v, _ = gen_member(cfg)
            check(inst, v, decide(inst, v).witness, grid)

        def poly(grid):
            return LaurentPolynomial.from_terms(
                {F(rng.randint(-2 * grid, 2 * grid), grid):
                 F(rng.randint(-5, 5) or 1, rng.randint(1, 3))
                 for _ in range(rng.randint(1, 3))})

        for i in range(30):
            grid = 1 + i % 3
            one = LaurentPolynomial.one()
            d1 = LaurentPolynomial.from_terms({0: 1, F(1, grid): 2})
            d2 = LaurentPolynomial.from_terms({0: 3, F(2, grid): -1})
            n = rng.randint(2, 4)
            xdens = [rng.choice((one, d1, d1, d2)) for _ in range(n)]
            x = [PuiseuxFraction(poly(grid), d) for d in xdens]
            rows = []
            for kind in (0, 1, 2):  # distinct denominators allowed
                allowed = (one, d1, d2)[:kind + 1]
                rows.append([PuiseuxFraction(poly(grid), rng.choice(allowed))
                             if e in allowed and rng.random() < 0.8 else ZERO
                             for e in xdens])
            inst = Instance.from_rows(rows, [ZERO] * 3)
            inst = Instance.from_rows(rows, matvec(inst, x))
            check(inst, tuple(xi.valuation() for xi in x), x, grid)
        assert all(seen.values()), seen

    def test_hostile_fine_grid_witness_answers_fast(self):
        # coordinates on t^(1/9973) against entries spanning t^-5..t^5 of
        # grid 1: every product is a dense list of about 10^5 slots.  That
        # is past MAX_GRID_SPAN, so the public check refuses the witness;
        # the uncharged body `decide` uses still answers within 1 s.
        rows = [[px({-5: 2, 0: 1, 5: -3}), px({-4: 1, 3: 2}),
                 px({5: 7, -5: 1})],
                [px({-5: 1, 5: 1}), px({0: 3}), px({-2: 1, 4: -1})]]
        inst = Instance.from_rows(rows, [ONE, px({1: 2})])
        e = F(1, 9973)
        den = LaurentPolynomial.from_terms({0: 1, e: 1})
        x = (PuiseuxFraction(LaurentPolynomial.from_terms({0: 1, e: -2}),
                             den),
             px({0: 1, e: 1}), px({0: 2, 3 * e: 1, 4: 1}))
        start = time.perf_counter()
        assert not _witness_holds(inst, (0, 0, 0), x)
        assert time.perf_counter() - start < 1.0
        with pytest.raises(OversizedEntry, match=r"^witness\.x\[0\] "):
            verify_witness(inst, (0, 0, 0), x)

    def test_coarse_witness_on_fine_grid_raises_fast(self):
        # x_0 = 1 + t lies 10^20 steps of the instance's grid t^(1/10^20)
        # from 0: the charge refuses it before any product spreads it there
        e = F(1, 10 ** 20)
        inst = Instance.from_rows([[px({0: 1, e: 1}), ONE]], [ONE])
        x = (px({0: 1, 1: 1}), ONE)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            with pytest.raises(OversizedEntry, match=r"^witness\.x\[0\] "):
                verify_witness(inst, (0, 0), x)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 10 ** 6, peak


class TestMetamorphicProperties:
    def sample_cases(self, count, seed):
        from troplift.gen import GenConfig, gen_member, gen_point, gen_random

        rng = random.Random(seed)
        cases = []
        for i in range(count):
            n = rng.randint(2, 6)
            m = rng.randint(1, min(3, n))
            cfg = GenConfig(seed=seed * 1000 + i, m=m, n=n, terms_per_entry=2,
                            exp_lo=-2, exp_hi=2, grid_den=rng.choice((1, 2)),
                            coeff_bound=5)
            if i % 2:
                inst, v, _ = gen_member(cfg)
            else:
                inst = gen_random(cfg)
                v = gen_point(cfg)
            cases.append((inst, v))
        return cases

    def test_grid_equivariance(self):
        for inst, v in self.sample_cases(20, seed=101):
            base = decide(inst, v)
            for factor in (2, 3):
                scaled = decide(regrid_instance(inst, factor),
                                regrid_point(v, factor))
                assert scaled.is_member == base.is_member
                if base.is_member:
                    regridded = tuple(x.substitute_power(factor)
                                      for x in base.witness)
                    assert verify_witness(regrid_instance(inst, factor),
                                          regrid_point(v, factor), regridded)

    def test_permutation_equivariance(self):
        rng = random.Random(55)
        for inst, v in self.sample_cases(20, seed=202):
            base = decide(inst, v)
            perm = list(range(inst.n))
            rng.shuffle(perm)
            pinst = permute_columns(inst, perm)
            pv = tuple(v[p] for p in perm)
            permuted = decide(pinst, pv)
            assert permuted.is_member == base.is_member
            if base.is_member:
                # the permuted original witness solves the permuted problem
                pwitness = tuple(base.witness[p] for p in perm)
                assert verify_witness(pinst, pv, pwitness)

    def test_soundness_and_oracle_agreement(self):
        for inst, v in self.sample_cases(30, seed=303):
            result = decide(inst, v)
            if result.is_member:
                assert verify_witness(inst, v, result.witness)
            assert result.is_member == member_oracle(inst, v)

    def test_planted_completeness(self):
        from troplift.gen import GenConfig, gen_member

        rng = random.Random(77)
        for i in range(40):
            n = rng.randint(2, 10)
            m = rng.randint(1, min(5, n))
            cfg = GenConfig(seed=7000 + i, m=m, n=n, terms_per_entry=2,
                            exp_lo=-2, exp_hi=2, grid_den=rng.choice((1, 2)))
            inst, v, planted = gen_member(cfg)
            assert verify_witness(inst, v, planted)
            result = decide(inst, v)
            assert result.is_member

    def test_sweep_bound_holds(self):
        for inst, v in self.sample_cases(30, seed=404):
            result = decide(inst, v)
            if result.is_member:
                for stats in result.sweeps:
                    assert stats.chosen_p <= stats.bound
                    assert stats.bound == stats.family_size * stats.dim + 1
