"""Tests for competition schedules, products, and tail tables.

Frozen constants below were produced by independent scalar-loop oracles
(plain Python products and sums, no package code).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fjfade import (
    DEFAULT_TRUNCATION,
    CompetitionSchedule,
    InvalidParameter,
    NonUniformSchedule,
    ScheduleKind,
    constant,
    custom,
    exponential,
    hyperbolic,
    infinite_products,
    lambda_product,
    make_adversarial_nonuniform,
    make_schedule,
    partition_of_unity,
    zero_consensus,
)
from fjfade.schedules import schedule_values, suffix_products

# scalar-loop oracle values, frozen
LAMBDA_2_7_EXP_HALF = 0.35917216287486375
LAMBDA_1_INF_EXP_HALF = 0.13485937948322177
TAIL_SUM_3_EXP_HALF = 0.45778647736696965

ALL_KINDS = [
    constant(0.3),
    exponential(0.5),
    hyperbolic(),
    zero_consensus(),
    custom([0.9, 0.5, 0.25, 0.1, 0.05]),
]


def brute_product(sched, s, t):
    p = 1.0
    for k in range(s, t + 1):
        p *= 1.0 - sched.value(k)
    return p


class TestScheduleValues:
    def test_constant(self):
        s = constant(0.3)
        assert s.value(0) == 0.3
        assert s.value(10_000) == 0.3
        assert not s.vanishing
        assert not s.summable

    def test_exponential(self):
        s = exponential(0.5)
        assert s.value(0) == 1.0
        assert s.value(2) == pytest.approx(math.exp(-1.0), abs=0)
        assert s.vanishing
        assert s.summable

    def test_hyperbolic(self):
        s = hyperbolic()
        assert s.value(0) == 1.0
        assert s.value(9) == pytest.approx(0.1, abs=1e-16)
        assert s.vanishing
        assert not s.summable

    def test_zero(self):
        s = zero_consensus()
        assert s.value(0) == 0.0
        assert s.vanishing
        assert s.summable

    def test_custom(self):
        s = custom([0.5, 0.25])
        assert s.value(0) == 0.5
        assert s.value(1) == 0.25
        assert s.value(2) == 0.0
        assert s.vanishing

    def test_values_vectorized_matches_scalar(self):
        ts = np.arange(0, 40)
        for s in ALL_KINDS:
            np.testing.assert_array_equal(s.values(ts), [s.value(int(t)) for t in ts])

    def test_labels(self):
        assert constant(0.3).label == "constant_0.3"
        assert exponential(0.5).label == "exponential_0.5"
        assert hyperbolic().label == "hyperbolic"

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            constant(1.5)
        with pytest.raises(InvalidParameter):
            constant(-0.1)
        with pytest.raises(InvalidParameter):
            exponential(0.0)
        with pytest.raises(InvalidParameter):
            custom([0.5, 1.3])
        with pytest.raises(InvalidParameter):
            make_schedule("no_such_kind")

    def test_custom_non_monotone_warns(self):
        with pytest.warns(UserWarning):
            custom([0.1, 0.5])


class TestLambdaProduct:
    def test_empty_range_is_one(self):
        for s in ALL_KINDS:
            assert lambda_product(s, 5, 4) == 1.0
            assert lambda_product(s, 7, 2) == 1.0

    def test_frozen_exponential(self):
        got = lambda_product(exponential(0.5), 2, 7)
        assert got == pytest.approx(LAMBDA_2_7_EXP_HALF, abs=1e-15)

    def test_matches_brute_force(self):
        for s in ALL_KINDS:
            for (lo, hi) in [(0, 0), (0, 5), (2, 9), (1, 30)]:
                assert lambda_product(s, lo, hi) == pytest.approx(
                    brute_product(s, lo, hi), abs=1e-14
                )

    @given(s=st.integers(0, 200), t=st.integers(0, 200))
    @settings(max_examples=60, deadline=None)
    def test_hyperbolic_closed_form(self, s, t):
        got = lambda_product(hyperbolic(), s, t)
        expect = 1.0 if s > t else s / (t + 1.0)
        assert got == pytest.approx(expect, abs=1e-13)

    def test_infinite_limits(self):
        assert lambda_product(exponential(0.5), 1, math.inf) == pytest.approx(
            LAMBDA_1_INF_EXP_HALF, abs=1e-13
        )
        assert lambda_product(hyperbolic(), 3, math.inf) == 0.0
        assert lambda_product(constant(0.3), 0, math.inf) == 0.0
        assert lambda_product(zero_consensus(), 0, math.inf) == 1.0

    def test_exponential_head_factor_zero(self):
        # lambda_0 = 1 kills every product that starts at 0
        assert lambda_product(exponential(0.5), 0, 5) == 0.0
        assert lambda_product(exponential(0.5), 0, math.inf) == 0.0


class TestSuffixProducts:
    def test_definition(self):
        for s in ALL_KINDS:
            t = 12
            r = suffix_products(s, t)
            assert len(r) == t + 2
            assert r[t + 1] == 1.0
            for j in range(t + 2):
                assert r[j] == pytest.approx(brute_product(s, j, t), abs=1e-14)

    def test_degenerate(self):
        r = suffix_products(hyperbolic(), -1)
        np.testing.assert_array_equal(r, [1.0])

    def test_schedule_values_window(self):
        s = exponential(0.5)
        np.testing.assert_allclose(
            schedule_values(s, 2, 6), [s.value(k) for k in range(2, 6)], atol=0
        )


class TestPartitionOfUnity:
    @pytest.mark.parametrize("sched", ALL_KINDS, ids=lambda s: s.label)
    @pytest.mark.parametrize("t", [0, 1, 5, 50, 500])
    def test_partition_is_one(self, sched, t):
        assert partition_of_unity(sched, t) == pytest.approx(1.0, abs=1e-12)

    @given(t=st.integers(0, 120), s=st.integers(0, 120))
    @settings(max_examples=60, deadline=None)
    def test_partition_from_any_start(self, t, s):
        # Lambda_s^t + sum_{k=s}^t Lambda_{k+1}^t lambda_k = 1 for s <= t
        if s > t:
            return
        sched = hyperbolic()
        total = lambda_product(sched, s, t) + sum(
            lambda_product(sched, k + 1, t) * sched.value(k) for k in range(s, t + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class TestInfiniteProducts:
    def test_exponential_table(self):
        table = infinite_products(exponential(0.5), DEFAULT_TRUNCATION)
        assert table.lam_to_inf(1) == pytest.approx(LAMBDA_1_INF_EXP_HALF, abs=1e-13)
        assert table.lam_to_inf(0) == 0.0
        assert table.tail_sum(3) == pytest.approx(TAIL_SUM_3_EXP_HALF, abs=1e-12)
        # far beyond the cutoff the product has converged to 1
        assert table.lam_to_inf(10_000) == pytest.approx(1.0, abs=1e-12)

    def test_lam_to_inf_array_matches_scalar(self):
        table = infinite_products(exponential(0.5), DEFAULT_TRUNCATION)
        ss = np.array([0, 1, 2, 5, 50, 500])
        np.testing.assert_allclose(
            table.lam_to_inf_array(ss), [table.lam_to_inf(int(s)) for s in ss], atol=0
        )

    def test_hyperbolic_limits_are_zero(self):
        table = infinite_products(hyperbolic(), DEFAULT_TRUNCATION)
        assert table.lam_to_inf(7) == 0.0
        # every per-term limit vanishes, so the tail series of limits is zero
        assert table.tail_sum(5) == 0.0

    def test_constant_limits(self):
        table = infinite_products(constant(0.3), DEFAULT_TRUNCATION)
        assert table.lam_to_inf(0) == 0.0
        assert table.tail_sum(2) == 0.0
        zero_table = infinite_products(zero_consensus(), DEFAULT_TRUNCATION)
        assert zero_table.lam_to_inf(0) == 1.0
        assert zero_table.tail_sum(0) == 0.0

    def test_custom_exact(self):
        sched = custom([0.5, 0.25, 0.1])
        table = infinite_products(sched, DEFAULT_TRUNCATION)
        assert table.exact
        assert table.lam_to_inf(0) == pytest.approx(0.5 * 0.75 * 0.9, abs=1e-15)
        assert table.lam_to_inf(2) == pytest.approx(0.9, abs=1e-15)
        assert table.lam_to_inf(3) == 1.0
        # tail at t=1: Lambda_2^inf lam_1 + Lambda_3^inf lam_2
        assert table.tail_sum(1) == pytest.approx(0.9 * 0.25 + 1.0 * 0.1, abs=1e-15)

    def test_tail_sum_brute_force(self):
        sched = exponential(0.3)
        table = infinite_products(sched, DEFAULT_TRUNCATION)
        for t in (0, 1, 4, 10):
            brute = sum(
                brute_product(sched, k + 1, 600) * sched.value(k) for k in range(t, 600)
            )
            assert table.tail_sum(t) == pytest.approx(brute, abs=1e-11)

    def test_describe_keys(self):
        rep = infinite_products(exponential(0.5), DEFAULT_TRUNCATION).describe()
        assert set(rep) == {"kind", "exact", "cutoff", "tail_remainder"}


class TestNonUniformSchedule:
    def test_vector_switches_off_after_tstar(self):
        sched = make_adversarial_nonuniform(tstar=2, target=1)
        n = 4
        table = sched.values(np.arange(6), n)
        assert table.shape == (6, n)
        for v in table[:3]:
            assert v[1] == 1.0 and v.sum() == 1.0
        np.testing.assert_array_equal(table[3:], np.zeros((3, n)))
        # a chunk that starts past tstar is all zeros
        np.testing.assert_array_equal(sched.values(np.arange(3, 9), n), np.zeros((6, n)))

    def test_values_validation(self):
        sched = make_adversarial_nonuniform(tstar=2, target=4)
        with pytest.raises(InvalidParameter, match="out of range"):
            sched.values(np.arange(3), 4)
        with pytest.raises(InvalidParameter, match=">= 0"):
            sched.values(np.array([-1, 0]), 5)

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            make_adversarial_nonuniform(tstar=-1, target=0)
        with pytest.raises(InvalidParameter):
            make_adversarial_nonuniform(tstar=0, target=-2)

    def test_describe(self):
        assert make_adversarial_nonuniform(3, 1).describe() == {
            "kind": "adversarial", "tstar": 3, "target": 1,
        }


def test_schedule_kind_enum_roundtrip():
    for kind in ScheduleKind:
        assert ScheduleKind(kind.value) is kind


def test_make_schedule_dispatch():
    assert make_schedule("constant", lam=0.2).value(5) == 0.2
    assert isinstance(make_schedule(ScheduleKind.HYPERBOLIC), CompetitionSchedule)


def test_nonuniform_describe_roundtrip():
    sched = NonUniformSchedule(tstar=4, target=2)
    assert sched.values(np.array([4]), 5)[0, 2] == 1.0
    assert sched.values(np.array([5]), 5).sum() == 0.0
