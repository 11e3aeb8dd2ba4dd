"""Metamorphic properties of `decide`, drawn with hypothesis.

Each property maps an instance and point to another with the same answer:

- scaling one row of (A, b) by a nonzero scalar;
- adding a multiple of one row of (A, b) to another;
- scaling column j of A by t^s, which maps v_j to v_j - s.

The verdict must not change, and a member's witness, mapped across (the
same vector for the row operations, x_j * t^(-s) for the column scaling),
must pass `verify_witness` on the new instance.  Examples are few, small
and derandomized, so the suite time stays flat and every run is the same.
"""

from fractions import Fraction as F

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from troplift.gen import GenConfig, gen_member, gen_point, gen_random
from troplift.lift import Instance, decide, verify_witness
from troplift.series import INF, PuiseuxFraction

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def cases(draw, min_rows=1):
    """(instance, point): planted, or random with a random point."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(min_rows, min(3, n)))
    cfg = GenConfig(seed=draw(st.integers(0, 2**32)), m=m, n=n,
                    terms_per_entry=2, exp_lo=-2, exp_hi=2,
                    grid_den=draw(st.sampled_from((1, 2))), coeff_bound=5)
    if draw(st.booleans()):
        inst, point, _ = gen_member(cfg)
    else:
        inst, point = gen_random(cfg), gen_point(cfg)
    return inst, point


exponents = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 2)))
nonzero_ints = st.integers(-5, 5).filter(bool)


@st.composite
def scalars(draw):
    """A nonzero scalar: one or two terms over a monomial."""
    num = PuiseuxFraction.from_terms(draw(st.dictionaries(
        exponents, nonzero_ints, min_size=1, max_size=2)))
    den = PuiseuxFraction.t_power(draw(exponents)) * draw(nonzero_ints)
    return num / den


def rows_of(inst):
    return [list(row) for row in inst.matrix], list(inst.rhs)


def check_same_answer(inst, point, new_inst, new_point, mapped):
    base = decide(inst, point)
    other = decide(new_inst, new_point)
    assert other.is_member == base.is_member
    if base.is_member:
        assert verify_witness(new_inst, new_point, mapped(base.witness))


@SETTINGS
@given(cases(), st.data())
def test_scaling_a_row(case, data):
    inst, point = case
    i = data.draw(st.integers(0, inst.m - 1))
    c = data.draw(scalars())
    rows, rhs = rows_of(inst)
    rows[i] = [c * a for a in rows[i]]
    rhs[i] = c * rhs[i]
    check_same_answer(inst, point, Instance.from_rows(rows, rhs), point,
                      lambda x: x)


@SETTINGS
@given(cases(min_rows=2), st.data())
def test_adding_a_multiple_of_a_row(case, data):
    inst, point = case
    i, k = data.draw(st.lists(st.integers(0, inst.m - 1), min_size=2,
                              max_size=2, unique=True))
    c = data.draw(scalars())
    rows, rhs = rows_of(inst)
    rows[i] = [a + c * b for a, b in zip(rows[i], rows[k])]
    rhs[i] = rhs[i] + c * rhs[k]
    check_same_answer(inst, point, Instance.from_rows(rows, rhs), point,
                      lambda x: x)


@SETTINGS
@given(cases(), st.data())
def test_scaling_a_column_by_a_power_of_t(case, data):
    inst, point = case
    j = data.draw(st.integers(0, inst.n - 1))
    s = data.draw(exponents)
    rows, rhs = rows_of(inst)
    for row in rows:
        row[j] = row[j].shift(s)
    new_point = list(point)
    if point[j] != INF:
        new_point[j] = point[j] - s

    def mapped(x):
        return tuple(xj.shift(-s) if col == j else xj
                     for col, xj in enumerate(x))

    check_same_answer(inst, point, Instance.from_rows(rows, rhs),
                      tuple(new_point), mapped)
