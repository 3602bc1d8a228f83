"""Tests for competition schedules, products, and tail tables.

Frozen constants below were produced by independent scalar-loop oracles
(plain Python products and sums, no package code).
"""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fjfade import (
    CompetitionSchedule,
    InvalidParameter,
    NonUniformSchedule,
    ScheduleKind,
    constant,
    custom,
    exponential,
    gap,
    hyperbolic,
    infinite_products,
    lambda_product,
    make_adversarial_nonuniform,
    make_schedule,
    partition_of_unity,
    zero_consensus,
)
from fjfade import schedules
from fjfade.schedules import PIECE, SCHEDULE_PARAMS, suffix_products

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


@functools.cache
def lam(sched, k):
    """sched.value(k), drawn once: the tail sums below read each value many times."""
    return sched.value(k)


def brute_product(sched, s, t):
    p = 1.0
    for k in range(s, t + 1):
        p *= 1.0 - lam(sched, k)
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
        # the same rules hold for every way a schedule is built
        for build in (lambda: exponential(math.inf), lambda: exponential(math.nan),
                      lambda: CompetitionSchedule(ScheduleKind.CONSTANT, lam=1.5),
                      lambda: dataclasses.replace(constant(0.3), lam=2.0),
                      lambda: CompetitionSchedule("no_such")):
            with pytest.raises(InvalidParameter):
                build()
        assert CompetitionSchedule("exponential", rate=0.5) == exponential(0.5)
        assert CompetitionSchedule("custom", seq=(0.5,)).kind is ScheduleKind.CUSTOM

    @pytest.mark.parametrize("kind, params", [
        ("constant", {"lam": "0.3"}), ("constant", {"lam": None}), ("exponential", {"rate": "0.5"}),
        ("custom", {"seq": (0.5, "x")}), ("custom", {"seq": "0.5"}), ("custom", {"seq": 0.5}),
        ("constant", {"lam": 0.3, "rate": "x"}),
    ])
    def test_direct_construction_needs_numbers(self, kind, params):
        # make_schedule converts a config's numeric text; direct construction takes numbers only
        with pytest.raises(InvalidParameter, match="schedule parameters must be numbers, got CompetitionSchedule"):
            CompetitionSchedule(kind, **params)

    @pytest.mark.parametrize("seq, expected", [
        ([0.5, 0.2], (0.5, 0.2)), (np.array([0.5, 0.2]), (0.5, 0.2)), (iter([0.5, 0.2]), (0.5, 0.2)),
        ((1, 0), (1.0, 0.0)), ([], ()),
    ], ids=["list", "array", "iterator", "ints", "empty"])
    def test_custom_seq_is_stored_as_a_tuple_of_floats(self, seq, expected):
        sched = CompetitionSchedule("custom", seq=seq)
        assert type(sched.seq) is tuple and [type(v) for v in sched.seq] == [float] * len(expected)
        assert sched.seq == expected and sched == custom(expected) and hash(sched) == hash(custom(expected))

    @pytest.mark.filterwarnings("ignore:custom schedule is not non-increasing")
    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(list(ScheduleKind)),
        value=st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([-1.0, 0.0, 1.0, 1.5, math.inf]),
        seq=st.lists(st.floats(allow_nan=True, allow_infinity=True) | st.floats(0.0, 1.0), max_size=8),
        ts=st.lists(st.integers(0, 10**7), min_size=1, max_size=20),
    )
    @example(kind=ScheduleKind.EXPONENTIAL, value=1.622320309414598e304, seq=[], ts=[0, 11081])  # rate * t overflows
    def test_every_built_schedule_stays_in_unit_interval(self, kind, value, seq, ts):
        # built by make_schedule or directly, from its kind's name or enum, a
        # schedule either refuses its parameters or keeps every lambda_t in [0, 1]
        params = {name: {"lam": value, "rate": value, "seq": tuple(seq)}[name] for name in SCHEDULE_PARAMS[kind]}
        built = []
        for build in (make_schedule, CompetitionSchedule):
            for name in (kind, kind.value):
                try:
                    built.append(build(name, **params))
                except InvalidParameter:
                    built.append(None)
        assert built.count(None) in (0, len(built)), built
        for sched in filter(None, built):
            assert sched == built[0]
            lams = sched.values(np.array(ts))
            assert ((lams >= 0.0) & (lams <= 1.0)).all(), (sched, lams)

    def test_custom_chunk_reads_one_array(self):
        # every consumer reads lambda_t in 1,024-step chunks: after the first, a chunk
        # allocates O(chunk), not a fresh 8 MB array of the whole seq
        sched = custom(np.linspace(1.0, 0.0, 10**6))
        ts = np.arange(500_000, 501_024)
        sched.values(ts)
        tracemalloc.start()
        try:
            lams = sched.values(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lams.tolist() == list(sched.seq[500_000:501_024])
        assert peak < 64 * 1024

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
            s.values(np.arange(2, 6)), [s.value(k) for k in range(2, 6)], atol=0
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
        table = infinite_products(exponential(0.5))
        assert table.cutoff == 65
        assert table.lam_to_inf(1) == pytest.approx(LAMBDA_1_INF_EXP_HALF, abs=1e-13)
        assert table.lam_to_inf(0) == 0.0
        # far beyond the cutoff the product has converged to 1
        assert table.lam_to_inf(10_000) == pytest.approx(1.0, abs=1e-12)

    def test_lam_to_inf_array_matches_scalar(self):
        table = infinite_products(exponential(0.5))
        ss = np.array([0, 1, 2, 5, 50, 500])
        np.testing.assert_allclose(
            table.lam_to_inf(ss), [table.lam_to_inf(int(s)) for s in ss], atol=0
        )
        assert isinstance(table.lam_to_inf(3), float)
        with pytest.raises(InvalidParameter, match="product starts must be >= 0"):
            table.lam_to_inf(np.array([2, -1]))

    def test_hyperbolic_limits_are_zero(self):
        table = infinite_products(hyperbolic())
        assert table.lam_to_inf(7) == 0.0

    def test_constant_limits(self):
        table = infinite_products(constant(0.3))
        assert table.lam_to_inf(0) == 0.0
        zero_table = infinite_products(zero_consensus())
        assert zero_table.lam_to_inf(0) == 1.0

    def test_custom_exact(self):
        sched = custom([0.5, 0.25, 0.1])
        table = infinite_products(sched)
        assert table.exact
        assert table.lam_to_inf(0) == pytest.approx(0.5 * 0.75 * 0.9, abs=1e-15)
        assert table.lam_to_inf(2) == pytest.approx(0.9, abs=1e-15)
        assert table.lam_to_inf(3) == 1.0
        # gap is twice the tail series at t=1: Lambda_2^inf lam_1 + Lambda_3^inf lam_2
        assert gap(sched, 1) == pytest.approx(2 * (0.9 * 0.25 + 1.0 * 0.1), abs=1e-15)

    def test_gap_brute_force(self):
        # gap(t) = 2 (sum_{k>=t} Lambda_{k+1}^inf lambda_k + remainder): the series
        # telescopes to 1 - Lambda_t^inf, the closed form gap rests on
        sched = exponential(0.3)
        table = infinite_products(sched)
        for t in (1, 4, 10):
            brute = sum(
                brute_product(sched, k + 1, 600) * lam(sched, k) for k in range(t, 600)
            )
            assert gap(sched, t) == pytest.approx(2 * (brute + table.remainder), abs=2e-11)
        half = exponential(0.5)
        remainder = infinite_products(half).remainder
        assert gap(half, 3) == pytest.approx(2 * (TAIL_SUM_3_EXP_HALF + remainder), abs=2e-12)

    def test_term_cap(self):
        with pytest.raises(InvalidParameter, match="cap MAX_TERMS = 50000000"):
            infinite_products(exponential(1e-9))
        # -log(tail_eps) / rate overflows to inf here
        with pytest.raises(InvalidParameter, match="cap MAX_TERMS"):
            gap(exponential(1e-320), 1)

    def test_slow_rate_memory_does_not_grow_with_cutoff(self):
        # the backward product streams PIECE factors at a time; a stored table for this 4.6M-term
        # cutoff held 37 MB, and about 110 MB while it was built, to read 1,000 steps
        tracemalloc.start()
        try:
            gaps = gap(exponential(7e-6), np.arange(1, 1001))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gaps.shape == (1000,) and peak < 8 * 2**20

    @pytest.mark.parametrize("tail_eps", [0.0, -1.0, 1.0])
    def test_tail_eps_range(self, tail_eps):
        with pytest.raises(InvalidParameter, match=r"tail_eps must lie in \(0, 1\)"):
            infinite_products(exponential(0.5), tail_eps)

    def test_subnormal_tail_eps(self):
        # 1 / 1e-320 overflows; the cutoff is ceil(-log(tail_eps) / rate)
        table = infinite_products(exponential(0.5), 1e-320)
        assert table.cutoff == math.ceil(-math.log(1e-320) / 0.5)
        assert 0.0 < table.remainder < 1e-319
        assert table.lam_to_inf(1) == pytest.approx(LAMBDA_1_INF_EXP_HALF, abs=1e-13)

    @pytest.mark.parametrize("read", ["back", "lam_to_inf"])
    @pytest.mark.parametrize("tail_eps", [1e-14, 1.5e-12])
    @pytest.mark.parametrize("sched", [constant(0.0), constant(0.3), exponential(0.5), exponential(0.05),
                                       hyperbolic(), zero_consensus(), custom([0.5, 0.25, 0.1]),
                                       exponential(1e-4)],
                             ids=lambda s: s.label)
    def test_table_is_built_on_first_read(self, monkeypatch, sched, tail_eps, read):
        """The facts multiply no products. Each read runs one backward product ("back" reads
        `suffix_products` itself), whose kept entries have the bits of one whole-table cumprod,
        across the PIECE boundaries of exponential(1e-4), whose cutoffs 272,253 and 322,362 span
        five pieces."""
        calls = []
        monkeypatch.setattr(schedules, "suffix_products",
                            lambda *args: calls.append(args) or suffix_products(*args))
        table = infinite_products(sched, tail_eps)
        if sched.kind.value == "exponential":
            cutoff = max(1, math.ceil(-math.log(tail_eps) / sched.rate))
            facts = (False, cutoff, math.exp(-sched.rate * cutoff) / (1.0 - math.exp(-sched.rate)))
        else:
            facts = (True, len(sched.seq), 0.0)
        assert (table.exact, table.cutoff, table.remainder) == facts
        assert calls == []
        whole = np.ones(table.cutoff + 1)  # Lambda_j^{cutoff-1} for j = 0..cutoff, in one cumprod
        whole[:-1] = np.cumprod(1.0 - sched.values(np.arange(table.cutoff))[::-1])[::-1]
        limits = whole if sched.summable else np.zeros(1)
        ks = (1, 3, PIECE - 1, PIECE, PIECE + 1, table.cutoff + 5)
        for k in ks:
            if read == "back":
                first = min(k, table.cutoff)
                got, expected = suffix_products(sched, table.cutoff - 1, first), whole[:first + 1]
            else:
                got, expected = table.lam_to_inf(np.arange(k)), np.take(limits, np.arange(k), mode="clip")
            assert got.tobytes() == expected.tobytes()
        assert len(calls) == (len(ks) if read == "lam_to_inf" and sched.summable else 0)

    def test_product_stops_at_the_smallest_start(self, monkeypatch):
        # lam_to_inf multiplies the factors from the cutoff down to min(s) only, with the bits of
        # one whole cumprod; starts at or past the cutoff multiply none (the 40M-step read of
        # exponential(1e-6) multiplied all 32M factors below its cutoff and took about 1 s)
        sched = exponential(1e-4)
        table = infinite_products(sched)
        whole = np.ones(table.cutoff + 1)
        whole[:-1] = np.cumprod(1.0 - sched.values(np.arange(table.cutoff))[::-1])[::-1]
        drawn, values = [], CompetitionSchedule.values
        monkeypatch.setattr(CompetitionSchedule, "values",
                            lambda self, ts: drawn.append(np.size(ts)) or values(self, ts))
        for lo, hi in ((1, 5), (PIECE + 3, 2 * PIECE + 10), (table.cutoff - 2, table.cutoff + 5)):
            drawn.clear()
            got = table.lam_to_inf(np.arange(lo, hi)[::-1])
            assert got.tobytes() == np.take(whole, np.arange(lo, hi)[::-1], mode="clip").tobytes()
            assert sum(drawn) == table.cutoff - lo
        drawn.clear()
        assert table.lam_to_inf(table.cutoff + 7) == 1.0
        assert lambda_product(exponential(1e-6), 40_000_000, math.inf) == 1.0
        assert drawn == []

    def test_cutoff_is_unchanged(self):
        # the -log form gives the log(1 / tail_eps) cutoff wherever that is finite
        for eps in (1e-16, 1e-14, 1e-10, 1e-6, 0.5):
            for rate in (0.05, 0.3, 0.5, 1.0, 3.0):
                expected = max(1, math.ceil(math.log(1.0 / eps) / rate))
                assert infinite_products(exponential(rate), eps).cutoff == expected


class TestNonUniformSchedule:
    def test_validation(self):
        with pytest.raises(InvalidParameter):
            make_adversarial_nonuniform(tstar=-1, target=0)
        with pytest.raises(InvalidParameter):
            make_adversarial_nonuniform(tstar=0, target=-2)
        with pytest.raises(InvalidParameter, match="tstar must be >= 0, got -1"):
            NonUniformSchedule(tstar=-1, target=0)
        with pytest.raises(InvalidParameter, match="target must be >= 0, got -3"):
            NonUniformSchedule(tstar=0, target=-3)


def test_schedule_kind_enum_roundtrip():
    for kind in ScheduleKind:
        assert ScheduleKind(kind.value) is kind


def test_make_schedule_dispatch():
    assert make_schedule("constant", lam=0.2).value(5) == 0.2
    assert isinstance(make_schedule(ScheduleKind.HYPERBOLIC), CompetitionSchedule)


@pytest.mark.parametrize("kind, params", [
    ("constant", {}),
    ("exponential", {"lam": 0.5}),
    ("exponential", {"rate": 0.5, "lam": 0.5}),
    ("hyperbolic", {"rate": 0.5}),
    ("custom", {}),
])
def test_make_schedule_parameters_are_typed_errors(kind, params):
    with pytest.raises(InvalidParameter, match=f"{kind!r} takes parameters"):
        make_schedule(kind, **params)


@pytest.mark.parametrize("kind, params", [
    ("constant", {"lam": "x"}),
    ("custom", {"seq": 5}),
    ("exponential", {"rate": None}),
    ("custom", {"seq": ["a"]}),
], ids=["lam-str", "seq-int", "rate-none", "seq-str"])
def test_make_schedule_values_that_are_not_numbers_are_typed_errors(kind, params):
    with pytest.raises(InvalidParameter, match=f"{kind!r} needs numbers"):
        make_schedule(kind, **params)


@pytest.mark.parametrize("sched", ALL_KINDS, ids=lambda s: s.kind.value)
def test_describe_lists_the_parameters(sched):
    d = sched.describe()
    assert list(d) == ["kind", *SCHEDULE_PARAMS[sched.kind]]
    assert make_schedule(**d) == sched
