"""Tests for the seeded instance generators."""

from fractions import Fraction as F

import pytest

from troplift.gen import GenConfig, gen_member, gen_point, gen_random, perturb_point
from troplift.lift import MAX_GRID_SPAN, decide, verify_witness
from troplift.linalg import rref_solve
from troplift.oracle import member_oracle
from troplift.series import INF, PuiseuxFraction


class TestGenRandom:
    def test_bit_identical_per_seed(self):
        cfg = GenConfig(seed=99, m=3, n=5, grid_den=2)
        assert gen_random(cfg) == gen_random(cfg)
        assert gen_random(cfg) != gen_random(GenConfig(seed=100, m=3, n=5,
                                                       grid_den=2))

    def test_zero_entries_occur(self):
        cfg = GenConfig(seed=1, m=4, n=8, terms_per_entry=1)
        inst = gen_random(cfg)
        assert any(x.is_zero for row in inst.matrix for x in row)

    def test_exponents_respect_grid(self):
        cfg = GenConfig(seed=5, m=2, n=4, grid_den=2)
        inst = gen_random(cfg)
        for row in inst.matrix:
            for x in row:
                assert x.num.q in (1, 2)
                for e, _ in x.num.terms():
                    assert (2 * e).denominator == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenConfig(seed=0, m=3, n=2)
        with pytest.raises(ValueError):
            GenConfig(seed=0, m=1, n=2, exp_lo=2, exp_hi=-2)
        # b = A*x reaches twice as far as the exponents
        limit = MAX_GRID_SPAN // 2
        GenConfig(seed=0, m=1, n=2, exp_lo=-limit, exp_hi=limit)
        for lo, hi in ((-limit - 1, 0), (0, limit + 1), (-3, 10 ** 9)):
            with pytest.raises(ValueError):
                GenConfig(seed=0, m=1, n=2, exp_lo=lo, exp_hi=hi)


class TestGenMember:
    def test_planted_witness_verifies(self):
        for seed in range(15):
            cfg = GenConfig(seed=seed, m=2, n=4, grid_den=2, exp_lo=-2,
                            exp_hi=2)
            inst, v, planted = gen_member(cfg)
            assert verify_witness(inst, v, planted)
            assert decide(inst, v).is_member

    def test_zero_coordinates_give_infinite_targets(self):
        seen_inf = False
        for seed in range(40):
            cfg = GenConfig(seed=seed, m=1, n=3)
            _, v, planted = gen_member(cfg)
            for vi, xi in zip(v, planted):
                if xi.is_zero:
                    assert vi == INF
                    seen_inf = True
        assert seen_inf

    def test_square_system_matches_unique_solution(self):
        for seed in (3, 7, 21, 40):
            cfg = GenConfig(seed=seed, m=3, n=3, terms_per_entry=2,
                            exp_lo=-1, exp_hi=1)
            inst, v, _ = gen_member(cfg)
            red = rref_solve([list(r) for r in inst.matrix], list(inst.rhs))
            if red.rank < 3:
                continue
            solution = [None] * 3
            for i, col in enumerate(red.pivot_cols):
                solution[col] = red.rhs[i]
            assert tuple(x.valuation() for x in solution) == v


class TestGenPoint:
    def test_deterministic_and_matching_length(self):
        cfg = GenConfig(seed=8, m=2, n=6, grid_den=3)
        assert gen_point(cfg) == gen_point(cfg)
        assert len(gen_point(cfg)) == 6

    def test_infinite_coordinates_show_up(self):
        hits = 0
        for seed in range(40):
            cfg = GenConfig(seed=seed, m=1, n=6)
            hits += sum(1 for c in gen_point(cfg) if c == INF)
        assert hits > 0


class TestPerturbPoint:
    def test_zero_delta_is_identity(self):
        v = (F(1, 2), F(0))
        assert perturb_point(v, 0, 0) == v

    def test_perturbation_flips_membership(self):
        one = PuiseuxFraction.one()
        t = PuiseuxFraction.t_power(1)
        from troplift.lift import Instance

        inst = Instance.from_rows([[one, t]], [one])
        v = (F(0), F(0))
        assert member_oracle(inst, v)
        assert not member_oracle(inst, perturb_point(v, 0, 1))
        moved = perturb_point(perturb_point(v, 0, 3), 1, -1)
        assert moved == (F(3), F(-1))
        assert member_oracle(inst, moved)

    def test_cannot_perturb_infinity(self):
        with pytest.raises(ValueError):
            perturb_point((INF, F(0)), 0, 1)
