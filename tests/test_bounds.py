"""Tests for the convergence-rate envelope.

Brute-force oracles evaluate the bound series directly from their defining
sums, with infinite tails replaced by long finite sums (600 terms is far past
double-precision convergence for every schedule used here).
"""

import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fjfade import (
    AsymmetricWeights,
    ConsensusInitialCondition,
    InvalidParameter,
    Network,
    NonVanishingSchedule,
    WeightedNetwork,
    constant,
    custom,
    empirical_ratio,
    exponential,
    gap,
    hyperbolic,
    infinite_products,
    lower_bound,
    lower_bound_series,
    simulate,
    upper_bound,
    worst_case_initial_condition,
    zero_consensus,
)
from fjfade.bounds import envelope, envelope_error
from fjfade.dynamics import CHUNK, gains

FAR = 600  # finite stand-in for the infinite tail


@functools.cache
def lam(sched, k):
    """sched.value(k), drawn once: the tail sums below read each value many times."""
    return sched.value(k)


def brute_lambda(sched, s, t):
    p = 1.0
    for k in range(s, t + 1):
        p *= 1.0 - lam(sched, k)
    return p


def brute_lower(sigma, sched, t):
    total = brute_lambda(sched, 0, t - 1) * sigma ** t
    for k in range(t):
        total += brute_lambda(sched, k + 1, t - 1) * lam(sched, k) * sigma ** (t - 1 - k)
    return total


def brute_upper(sigma, sched, t):
    linf_t = brute_lambda(sched, t, FAR)
    total = brute_lambda(sched, 0, t - 1) * (sigma ** t + 1.0 - linf_t)
    for k in range(t):
        total += (
            brute_lambda(sched, k + 1, t - 1)
            * lam(sched, k)
            * (sigma ** (t - 1 - k) + 1.0 - linf_t)
        )
    for k in range(t, FAR):
        total += brute_lambda(sched, k + 1, FAR) * lam(sched, k)
    return total


def exact_upper(sigma, sched, horizon):
    """lower(t) + 2 (1 - Lambda_t^inf) for t = 1..horizon, the closed form of
    upper(t) with every limit summed in log space far past any truncation
    cutoff, so no table and no remainder is involved."""
    logs = np.log1p(-sched.values(np.arange(1, horizon + 20_000)))
    log_lam_inf = np.cumsum(logs[::-1])[::-1][:horizon]
    return lower_bound_series(sigma, sched, horizon)[1:] - 2.0 * np.expm1(log_lam_inf)


def lower_bound_series_loop(sigma, sched, horizon):
    """The recurrence over numpy scalars that lower_bound_series replaced,
    kept as its oracle."""
    lam = sched.values(np.arange(max(horizon, 1)))
    out = np.empty(horizon + 1)
    out[0] = 1.0
    m = 1.0
    for t in range(horizon):
        m = sigma * (1.0 - lam[t]) * m + lam[t]
        out[t + 1] = m
    return out


def modal_gains_loop(mu, sched, horizon):
    """The per-step numpy loop of every mode's gain that modal_distances ran
    before `gains`, kept as its oracle: numpy-scalar lambdas, ones to start."""
    lam = sched.values(np.arange(horizon))
    out = np.empty((horizon + 1, mu.size))
    out[0] = g = np.ones(mu.size)
    for t in range(horizon):
        g = mu * (1.0 - lam[t]) * g + lam[t]
        out[t + 1] = g
    return out


def assert_array_form(f, horizon=50):
    """f over an array of steps equals f step by step, bit for bit, and an
    array with a step 0, or no step at all, is rejected."""
    ts = np.arange(1, horizon + 1)
    np.testing.assert_array_equal(f(ts), [f(int(t)) for t in ts])
    for bad in (np.array([0, 1, 2]), np.array([], dtype=int)):
        with pytest.raises(InvalidParameter):
            f(bad)


class TestLowerBound:
    def test_matches_brute_force(self):
        for sched in (exponential(0.5), hyperbolic(), custom([0.8, 0.3, 0.1])):
            for sigma in (0.2, 0.66, 0.95):
                for t in (1, 2, 5, 20):
                    assert lower_bound(sigma, sched, t) == pytest.approx(
                        brute_lower(sigma, sched, t), abs=1e-13
                    )

    @given(sigma=st.floats(0.05, 0.95), horizon=st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_series_matches_pointwise(self, sigma, horizon):
        sched = hyperbolic()
        series = lower_bound_series(sigma, sched, horizon)
        assert series[0] == 1.0
        for t in (1, horizon // 2, horizon):
            if t >= 1:
                assert series[t] == pytest.approx(lower_bound(sigma, sched, t), abs=1e-12)

    @pytest.mark.parametrize("sigma", [0.3, 0.9, 0.99999])
    @pytest.mark.parametrize("sched", [exponential(0.5), exponential(0.05), hyperbolic(),
                                       custom([0.8, 0.3, 0.1]), zero_consensus()],
                             ids=["exp0.5", "exp0.05", "hyperbolic", "custom", "zero"])
    def test_series_matches_scalar_loop(self, sigma, sched):
        # the loop over Python floats does the numpy-scalar loop's IEEE
        # operations in the same order, so the series agree bit for bit,
        # also where lambda is drawn in a new CHUNK of steps
        for horizon in (0, 1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK, 10_000):
            np.testing.assert_array_equal(
                lower_bound_series(sigma, sched, horizon), lower_bound_series_loop(sigma, sched, horizon)
            )

    def test_hyperbolic_closed_form(self):
        # with Lambda_{k+1}^{t-1} = (k+1)/t the sum telescopes to a
        # geometric series: t * lower(t) = (1 - sigma^t) / (1 - sigma)
        sigma = 0.7
        for t in (1, 3, 10, 200):
            expect = (1.0 - sigma ** t) / (1.0 - sigma) / t
            assert lower_bound(sigma, hyperbolic(), t) == pytest.approx(expect, abs=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            lower_bound(0.0, hyperbolic(), 3)
        with pytest.raises(InvalidParameter):
            lower_bound(1.0, hyperbolic(), 3)
        with pytest.raises(InvalidParameter):
            lower_bound(0.5, hyperbolic(), 0)
        with pytest.raises(NonVanishingSchedule):
            lower_bound(0.5, constant(0.3), 3)

    def test_zero_schedule_is_pure_power(self):
        assert lower_bound(0.6, zero_consensus(), 7) == pytest.approx(0.6 ** 7, abs=1e-15)

    def test_array_steps(self):
        for sched in (exponential(0.5), hyperbolic(), custom([0.8, 0.3, 0.1])):
            assert_array_form(lambda t: lower_bound(0.7, sched, t))


UNIFORM_KINDS = [constant(0.3), exponential(0.05), hyperbolic(), zero_consensus(), custom([0.8, 0.3, 0.1])]
GAIN_HORIZONS = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK]


class TestGains:
    # the one recursion both the lower edge and the modal distances read: any
    # other operation order, say mu * ((1 - lam) g) + lam, breaks bit equality
    @pytest.mark.parametrize("sched", UNIFORM_KINDS, ids=[s.kind.value for s in UNIFORM_KINDS])
    @pytest.mark.parametrize("horizon", GAIN_HORIZONS)
    def test_float_mu_matches_scalar_loop(self, sched, horizon):
        for mu in (0.9, 0.5, 0.0, -0.9):
            series = np.fromiter(gains(mu, sched, horizon), float, horizon + 1)
            np.testing.assert_array_equal(series, lower_bound_series_loop(mu, sched, horizon))

    @pytest.mark.parametrize("sched", UNIFORM_KINDS, ids=[s.kind.value for s in UNIFORM_KINDS])
    @pytest.mark.parametrize("horizon", GAIN_HORIZONS)
    def test_array_mu_matches_modal_loop(self, sched, horizon):
        mu = np.array([0.999, 0.9, 0.5, 0.0, -0.3, -0.9, -0.999])
        rows = np.empty((horizon + 1, mu.size))
        for t, g in enumerate(gains(mu, sched, horizon)):  # g_0 is the float 1.0, broadcast
            rows[t] = g
        assert t == horizon
        np.testing.assert_array_equal(rows, modal_gains_loop(mu, sched, horizon))


class TestUpperBound:
    def test_matches_brute_force(self):
        for sched in (exponential(0.5), exponential(1.5), custom([0.8, 0.3, 0.1])):
            for sigma in (0.2, 0.95):
                for t in (1, 2, 5, 20):
                    assert upper_bound(sigma, sched, t) == pytest.approx(
                        brute_upper(sigma, sched, t), abs=1e-10
                    )

    def test_dominates_lower(self):
        for sched in (exponential(0.7), hyperbolic()):
            for t in (1, 4, 30, 200):
                assert upper_bound(0.8, sched, t) >= lower_bound(0.8, sched, t) - 1e-12

    def test_summable_schedule_vanishes(self):
        sched = exponential(0.5)
        assert upper_bound(0.8, sched, 400) < 1e-4
        assert upper_bound(0.8, sched, 400) < upper_bound(0.8, sched, 10)

    def test_hyperbolic_upper_tends_to_one(self):
        # the per-term limits all vanish, so the upper bound converges to 1
        # instead of 0: only the decaying lower envelope is informative here
        sched = hyperbolic()
        vals = [upper_bound(0.8, sched, t) for t in (10, 100, 1000)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] == pytest.approx(1.0 + lower_bound(0.8, sched, 1000), abs=1e-12)

    def test_certified_near_cutoff(self):
        # the truncated table overestimates Lambda_t^inf and 1 - Lambda_t^inf
        # enters the bound twice, so the upper bound needs the remainder twice
        for rate in (0.05, 0.5, 1.5):
            sched = exponential(rate)
            cutoff = infinite_products(sched).cutoff
            for sigma in (0.5, 0.9):
                exact = exact_upper(sigma, sched, cutoff + 10)
                for t in range(max(1, cutoff - 10), cutoff + 11):
                    assert upper_bound(sigma, sched, t) >= exact[t - 1] - 1e-15, (rate, sigma, t)

    def test_array_steps(self):
        for sched in (exponential(0.5), hyperbolic(), custom([0.8, 0.3, 0.1])):
            assert_array_form(lambda t: upper_bound(0.7, sched, t))


class TestGap:
    def test_equals_difference(self):
        for sched in (exponential(0.5), hyperbolic(), custom([0.8, 0.3, 0.1])):
            for t in (1, 3, 17, 120):
                g = gap(sched, t)
                for sigma in (0.3, 0.9):
                    diff = upper_bound(sigma, sched, t) - lower_bound(sigma, sched, t)
                    assert g == pytest.approx(diff, abs=1e-10)

    def test_hyperbolic_gap_is_one(self):
        for t in (1, 10, 500, 5000):
            assert gap(hyperbolic(), t) == pytest.approx(1.0, abs=1e-12)

    def test_summable_gap_vanishes(self):
        assert gap(exponential(0.5), 200) < 1e-12

    def test_array_steps(self):
        for sched in (exponential(0.5), hyperbolic(), custom([0.8, 0.3, 0.1])):
            assert_array_form(lambda t: gap(sched, t))


class TestEnvelope:
    @pytest.mark.parametrize("horizon", [1, CHUNK, 3 * CHUNK + 1])
    def test_is_both_bounds_bit_for_bit(self, horizon):
        steps = np.arange(1, horizon + 1)
        for sched in (exponential(0.5), hyperbolic(), zero_consensus(), custom([0.8, 0.3, 0.1])):
            lower, upper = envelope(0.9, sched, horizon)
            np.testing.assert_array_equal(lower, lower_bound(0.9, sched, steps))
            np.testing.assert_array_equal(upper, upper_bound(0.9, sched, steps))

    @pytest.mark.parametrize("sched", [exponential(0.5), hyperbolic()], ids=["exponential", "hyperbolic"])
    def test_peak_memory_stays_near_its_output(self, sched):
        # the two returned edges hold 16 bytes a step; no copy of either is made
        horizon = 100_000
        envelope(0.9, sched, 10)
        tracemalloc.start()
        try:
            envelope(0.9, sched, horizon)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24 * horizon


class TestEmpiricalRatio:
    def test_starts_at_one(self, study_weights, study_x0):
        traj = simulate(study_weights, study_x0, hyperbolic(), horizon=30)
        r = empirical_ratio(traj)
        assert r[0] == 1.0
        assert (r[1:] <= 1.0 + 1e-12).all()
        block = simulate(study_weights, study_x0, [hyperbolic(), exponential(0.5)], 30)
        r_exp = empirical_ratio(simulate(study_weights, study_x0, exponential(0.5), 30))
        np.testing.assert_allclose(empirical_ratio(block), np.column_stack([r, r_exp]), rtol=0, atol=1e-13)

    def test_consensus_start_rejected(self, star3):
        traj = simulate(star3, np.ones(3), hyperbolic(), horizon=5)
        with pytest.raises(ConsensusInitialCondition):
            empirical_ratio(traj)
        block = simulate(star3, np.ones(3), [hyperbolic(), constant(0.3)], 5)
        with pytest.raises(ConsensusInitialCondition):
            empirical_ratio(block)


class TestWorstCaseWitness:
    def test_requires_symmetry(self, row_stochastic_fixture):
        with pytest.raises(AsymmetricWeights):
            worst_case_initial_condition(row_stochastic_fixture, 1.0)

    def test_witness_attains_lower_bound(self, star3_lazy):
        # lazy weights have a nonnegative spectrum, so the second eigenvector
        # decays exactly at the lower-bound recurrence rate
        x0 = worst_case_initial_condition(star3_lazy, x_ss_target=2.0)
        assert star3_lazy.consensus_value(x0) == pytest.approx(2.0, abs=1e-9)
        for sched in (exponential(0.5), hyperbolic()):
            traj = simulate(star3_lazy, x0, sched, horizon=100)
            ratio = empirical_ratio(traj)
            series = lower_bound_series(star3_lazy.sigma_max, sched, 100)
            np.testing.assert_allclose(ratio, series, atol=1e-9)

    def test_witness_attains_lower_bound_on_study_graph(self, study_weights_lazy):
        x0 = worst_case_initial_condition(study_weights_lazy, x_ss_target=0.0)
        traj = simulate(study_weights_lazy, x0, hyperbolic(), horizon=200)
        ratio = empirical_ratio(traj)
        series = lower_bound_series(study_weights_lazy.sigma_max, hyperbolic(), 200)
        np.testing.assert_allclose(ratio, series, atol=1e-8)

    def test_random_starts_stay_below_lower_bound(self, study_weights_lazy):
        # for any start the ratio sits underneath the worst-case envelope
        rng = np.random.default_rng(17)
        series = lower_bound_series(study_weights_lazy.sigma_max, hyperbolic(), 80)
        for _ in range(5):
            traj = simulate(study_weights_lazy, rng.standard_normal(20), hyperbolic(), 80)
            ratio = empirical_ratio(traj)
            assert (ratio <= series + 1e-10).all()



class TestEnvelopeRule:
    """`envelope_error` reads double stochasticity from W's column sums, not from how W was built."""

    def test_lazy_directed_cycle_keeps_the_envelope(self):
        # W = (I + P) / 2 for the cyclic shift P: doubly stochastic, not symmetric,
        # with singular values |cos(pi k / n)|, so sigma_max = cos(pi / n)
        n = 6
        W = (np.eye(n) + np.roll(np.eye(n), 1, axis=1)) / 2.0
        w = WeightedNetwork(Network(n=n, edges=[(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]), W)
        assert w.doubly_stochastic and not w.symmetric
        assert w.sigma_max == pytest.approx(np.cos(np.pi / n), abs=1e-12)
        rng = np.random.default_rng(4)
        for sched in (exponential(0.5), hyperbolic()):
            assert envelope_error(w, sched, "s") is None
            _, upper = envelope(w.sigma_max, sched, 200)
            for _ in range(5):
                ratio = empirical_ratio(simulate(w, rng.standard_normal(n), sched, 200))[1:]
                assert (ratio <= upper + 1e-12).all()

    def test_rows_without_columns_are_refused(self, factorizations):
        # rows sum to 1, columns to 3/4, 3/2 and 3/4: the envelope does not
        # apply, and the rule says so without factorizing W
        W = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
        w = WeightedNetwork(Network(n=3, edges=[(0, 1), (1, 2)]), W)
        assert not w.doubly_stochastic
        error = envelope_error(w, hyperbolic(), "s")
        assert isinstance(error, InvalidParameter) and "doubly stochastic" in str(error)
        assert factorizations == []
