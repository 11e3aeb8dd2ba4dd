"""Tests for the brute-force circuit oracle."""

import random
from fractions import Fraction as F
from itertools import chain, combinations

import pytest

from troplift.lift import Instance, decide, verify_witness
from troplift.linalg import Matrix, rref_solve
from troplift.oracle import (
    TooLargeError,
    homogenize,
    member_oracle,
    minimal_support_vectors,
)
from troplift.series import INF, PuiseuxFraction


def px(terms):
    return PuiseuxFraction.from_terms(terms)


ONE = PuiseuxFraction.one()
ZERO = PuiseuxFraction.zero()
T = PuiseuxFraction.t_power(1)

W1 = Instance.from_rows([[ONE, T]], [ONE])


class TestHomogenize:
    def test_negates_rhs(self):
        assert homogenize(W1).rows == ((ONE, T, -ONE),)

    def test_zero_rhs(self):
        inst = Instance.from_rows([[ONE, T]], [ZERO])
        assert homogenize(inst).rows == ((ONE, T, ZERO),)


class TestMinimalSupports:
    def test_single_row(self):
        circuits = minimal_support_vectors(homogenize(W1))
        assert len(circuits) == 1
        circ = circuits[0]
        assert circ.support == frozenset({0, 1, 2})
        assert circ.vector == (ONE, T, -ONE)

    def test_two_rows_all_pairs(self):
        m = Matrix.from_rows([[ONE, ZERO, ONE], [ZERO, ONE, ONE]])
        circuits = minimal_support_vectors(m)
        assert sorted(tuple(sorted(c.support)) for c in circuits) == [
            (0, 1), (0, 2), (1, 2)]
        for circ in circuits:
            # each vector really lies in the row space with that support
            coeffs = (circ.vector[0], circ.vector[1])
            spanned = tuple(coeffs[0] * a + coeffs[1] * b
                            for a, b in zip(m[0], m[1]))
            assert spanned == circ.vector
            assert {j for j, x in enumerate(circ.vector) if x} == circ.support

    def test_zero_column_only_on_other_side(self):
        m = Matrix.from_rows([[ONE, ZERO]])
        circuits = minimal_support_vectors(m)
        assert [sorted(c.support) for c in circuits] == [[0]]

    def test_column_guard(self):
        wide = Matrix.from_rows([[ONE] * 14])
        with pytest.raises(TooLargeError):
            minimal_support_vectors(wide)
        minimal_support_vectors(wide, max_cols=14)

    def test_supports_are_the_minimal_rank_drops(self):
        # A nonzero row-space vector vanishes off S exactly when deleting
        # S's columns lowers the rank, so the circuits are the minimal such
        # S.  Repeated, scaled and rank-1 rows give a support several
        # independent combinations of rows; zero columns lie in none.
        rng = random.Random(61)

        def scalar(q):
            return px({F(rng.randint(-2, 2), q): rng.randint(-3, 3)
                       for _ in range(rng.randint(0, 2))})

        def rank(rows, cols):
            return rref_solve([[row[j] for j in cols] for row in rows],
                              [ZERO] * len(rows)).rank

        seen = dict.fromkeys(["dependent_rows", "rank1", "zero_column",
                              "grid2"], 0)
        for _ in range(60):
            m, n, q = rng.randint(1, 4), rng.randint(2, 7), rng.randint(1, 2)
            rows = [[scalar(q) for _ in range(n)] for _ in range(m)]
            shape = rng.choice(("plain", "repeat", "rank1"))
            if m > 1 and shape == "repeat":
                factor = rng.choice((ONE, px({F(1, q): 2})))
                rows[rng.randrange(1, m)] = [factor * x for x in rows[0]]
            elif shape == "rank1":
                rows = [[f * x for x in rows[0]]
                        for f in [scalar(q) for _ in range(m)]]
            if rng.random() < 0.3:
                c = rng.randrange(n)
                for row in rows:
                    row[c] = ZERO
            full = rank(rows, range(n))
            drops = [S for S in map(frozenset, chain.from_iterable(
                         combinations(range(n), k) for k in range(1, n + 1)))
                     if rank(rows, [j for j in range(n) if j not in S]) < full]
            minimal = {S for S in drops if not any(T < S for T in drops)}
            circuits = minimal_support_vectors(Matrix.from_rows(rows))
            assert len(circuits) == len(minimal)
            assert {c.support for c in circuits} == minimal
            for circ in circuits:
                support = {j for j, x in enumerate(circ.vector) if x}
                assert support == circ.support
                assert rank([*rows, circ.vector], range(n)) == full
            seen["dependent_rows"] += full < m
            seen["rank1"] += full == 1 < m
            seen["zero_column"] += any(not any(row[j] for row in rows)
                                       for j in range(n))
            seen["grid2"] += q == 2
        assert all(seen.values()), seen


class TestMemberOracle:
    def test_w1_table(self):
        assert member_oracle(W1, (0, 0))
        assert not member_oracle(W1, (1, 0))
        assert member_oracle(W1, (3, -1))

    def test_infinite_coordinate(self):
        inst = Instance.from_rows([[ONE, ONE]], [ONE])
        assert member_oracle(inst, (0, INF))
        assert not member_oracle(inst, (INF, INF))

    def test_unsatisfiable_system_rejects_everything(self):
        inst = Instance.from_rows([[ONE, ONE], [ONE, ONE]], [ONE, px({0: 2})])
        assert not member_oracle(inst, (0, 0))

    def test_guard_propagates(self):
        inst = Instance.from_rows([[ONE] * 13], [ONE])
        with pytest.raises(TooLargeError):
            member_oracle(inst, tuple([0] * 13))


class TestOracleProperties:
    def random_instance(self, rng):
        def scalar():
            terms = {rng.randint(-2, 2): rng.randint(-3, 3)
                     for _ in range(rng.randint(0, 2))}
            return px(terms)

        m = rng.randint(1, 3)
        n = rng.randint(2, 5)
        rows = [[scalar() for _ in range(n)] for _ in range(m)]
        rhs = [scalar() for _ in range(m)]
        return Instance.from_rows(rows, rhs)

    def test_invariant_under_row_operations(self):
        rng = random.Random(17)
        for _ in range(20):
            inst = self.random_instance(rng)
            if inst.m < 2:
                continue
            v = tuple(F(rng.randint(-2, 2)) for _ in range(inst.n))
            base = member_oracle(inst, v)
            # add a multiple of row 0 to row 1: row space unchanged
            factor = px({rng.randint(0, 1): rng.randint(1, 3)})
            rows = [list(r) for r in inst.matrix]
            rhs = list(inst.rhs)
            rows[1] = [a + factor * b for a, b in zip(rows[1], rows[0])]
            rhs[1] = rhs[1] + factor * rhs[0]
            assert member_oracle(Instance.from_rows(rows, rhs), v) == base

    def test_scaling_circuit_vectors_is_irrelevant(self):
        # scaling one row scales circuit vectors; verdicts must not move
        rng = random.Random(19)
        for _ in range(20):
            inst = self.random_instance(rng)
            v = tuple(F(rng.randint(-2, 2)) for _ in range(inst.n))
            base = member_oracle(inst, v)
            rows = [list(r) for r in inst.matrix]
            rhs = list(inst.rhs)
            scale = px({rng.randint(-1, 1): rng.choice((2, 3, 5))})
            rows[0] = [scale * a for a in rows[0]]
            rhs[0] = scale * rhs[0]
            assert member_oracle(Instance.from_rows(rows, rhs), v) == base

    def test_agrees_with_verified_members(self):
        rng = random.Random(23)
        for _ in range(25):
            inst = self.random_instance(rng)
            v = tuple(F(rng.randint(-2, 2)) for _ in range(inst.n))
            result = decide(inst, v)
            if result.is_member:
                assert verify_witness(inst, v, result.witness)
                assert member_oracle(inst, v)
