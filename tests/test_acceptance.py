"""Acceptance criteria for the whole package, one test per criterion.

Each test records a single pass/fail line (with the measured quantities)
through the `criterion` fixture; the lines are echoed in the pytest
terminal summary. Tolerances are pinned here and nowhere else.
"""

import math
import time
from itertools import islice

import numpy as np

from fjfade import (
    TransitionCalculator,
    constant,
    custom,
    deviation_experiment,
    empirical_ratio,
    exponential,
    gap,
    hyperbolic,
    iterate,
    lambda_product,
    lower_bound,
    lower_bound_series,
    partition_of_unity,
    simulate,
    upper_bound,
    worst_case_initial_condition,
    zero_consensus,
)
from fjfade.cli import main
from fjfade.experiment import CSV_HEADER

FIVE_KINDS = [
    constant(0.3),
    exponential(0.5),
    hyperbolic(),
    zero_consensus(),
    custom([0.9, 0.5, 0.25, 0.1, 0.05]),
]
VANISHING_KINDS = [exponential(0.5), hyperbolic(), zero_consensus(), custom([0.8, 0.4, 0.2, 0.1])]


def test_criterion_01_partition_of_unity(criterion):
    worst = 0.0
    for sched in FIVE_KINDS:
        for t in (0, 1, 5, 50, 500):
            worst = max(worst, abs(partition_of_unity(sched, t) - 1.0))
    criterion(1, f"partition of unity holds for five schedule kinds at "
                 f"t in {{0,1,5,50,500}}; max error {worst:.2e} (tol 1e-12)",
              worst < 1e-12)


def test_criterion_02_hyperbolic_product_closed_form(criterion):
    rng = np.random.default_rng(0)
    sched = hyperbolic()
    ts = rng.integers(0, 10_001, size=10_000)
    ss = rng.integers(0, 10_101, size=10_000)
    start = time.perf_counter()
    worst = 0.0
    for s, t in zip(ss, ts):
        got = lambda_product(sched, int(s), int(t))
        expect = 1.0 if s > t else s / (t + 1.0)
        worst = max(worst, abs(got - expect))
    elapsed = time.perf_counter() - start
    criterion(2, f"hyperbolic running product matches s/(t+1) on 10^4 sampled "
                 f"(s,t), t <= 10^4; max error {worst:.2e} (tol 1e-12), "
                 f"{elapsed:.2f}s (limit 1s)",
              worst < 1e-12 and elapsed < 1.0)


def test_criterion_03_decomposition_matches_simulation(criterion, small_fixtures):
    worst = 0.0
    for w, x0 in small_fixtures:
        for sched in VANISHING_KINDS:
            calc = TransitionCalculator(w, sched)
            for t, x in enumerate(islice(iterate(w, x0, sched), 201)):
                dec = calc.at(t)
                xt = (dec.psi_aut + dec.psi_in) @ x0
                worst = max(worst, float(np.abs(xt - x).max()))
    criterion(3, f"transition decomposition reproduces simulation on 5 networks "
                 f"(n <= 20), all t <= 200, all vanishing schedules; "
                 f"max inf-norm error {worst:.2e} (tol 1e-10)",
              worst < 1e-10)


def test_criterion_04_study_convergence_thresholds(criterion, study_weights, study_x0):
    sigma = study_weights.sigma_max
    t_exp = math.ceil(200.0 / (1.0 - sigma))
    avg_exp = float(simulate(study_weights, study_x0, exponential(0.5), horizon=t_exp).avg_distances[-1])
    avg_hyp = float(simulate(study_weights, study_x0, hyperbolic(), horizon=10_000).avg_distances[-1])
    criterion(4, f"20-agent study: exponential avg distance {avg_exp:.2e} at "
                 f"t={t_exp} (tol 1e-6); hyperbolic avg distance {avg_hyp:.2e} "
                 f"at t=10^4 (tol 1e-3)",
              avg_exp < 1e-6 and avg_hyp < 1e-3)


def test_criterion_05_constant_schedule_persistent_disagreement(criterion, study_weights, study_x0):
    lam = 0.3
    x_200 = next(islice(iterate(study_weights, study_x0, constant(lam)), 200, None))
    fixed_point = lam * np.linalg.solve(np.eye(20) - (1 - lam) * study_weights.W, study_x0)
    err = float(np.abs(x_200 - fixed_point).max())
    dist = float(simulate(study_weights, study_x0, constant(lam), horizon=200).distances[-1])
    criterion(5, f"constant schedule settles at the anchored fixed point "
                 f"(error {err:.2e}, tol 1e-6) and stays {dist:.2e} from "
                 f"consensus (must exceed 1e-3)",
              err < 1e-6 and dist > 1e-3)


def test_criterion_06_witness_sandwich(criterion, study_weights_lazy):
    sp = study_weights_lazy
    start = time.perf_counter()
    witness = worst_case_initial_condition(sp, x_ss_target=0.0)
    rng = np.random.default_rng(123)
    ok = True
    details = []
    for sched in (exponential(0.5), hyperbolic()):
        lower = lower_bound_series(sp.sigma_max, sched, 500)[1:]
        upper = np.array([upper_bound(sp.sigma_max, sched, t) for t in range(1, 501)])
        ratio = empirical_ratio(simulate(study_weights_lazy, witness, sched, 500))[1:]
        deficit = float(np.max(lower - ratio))
        excess = float(np.max(ratio - upper))
        rand_excess = max(float(np.max(empirical_ratio(simulate(study_weights_lazy, x0, sched, 500))[1:] - upper))
                          for x0 in rng.standard_normal((100, 20)))
        ok = ok and deficit <= 1e-8 and excess <= 1e-8 and rand_excess <= 1e-8
        details.append(f"{sched.label}: deficit {deficit:.1e}, excess {excess:.1e}, "
                       f"random excess {rand_excess:.1e}")
    elapsed = time.perf_counter() - start
    criterion(6, f"lazy witness pinned between both bounds for t <= 500 and 100 "
                 f"random starts stay below the upper bound (tol 1e-8); "
                 f"{'; '.join(details)}; {elapsed:.1f}s (limit 30s)",
              ok and elapsed < 30.0)


def test_criterion_07_gap_is_sigma_free(criterion, star3, study_weights):
    s_small = star3.sigma_max
    s_large = study_weights.sigma_max
    spread = abs(s_large - s_small)
    worst = 0.0
    for sched in (exponential(0.5), hyperbolic()):
        for t in (1, 2, 5, 10, 50, 200):
            g = gap(sched, t)
            for sigma in (s_small, s_large):
                diff = upper_bound(sigma, sched, t) - lower_bound(sigma, sched, t)
                worst = max(worst, abs(diff - g))
    criterion(7, f"bound gap is independent of sigma_max on two networks with "
                 f"sigma {s_small:.3f} and {s_large:.3f} (spread {spread:.3f} "
                 f">= 0.2); max |difference - gap| = {worst:.2e} (tol 1e-10)",
              spread >= 0.2 and worst < 1e-10)


def test_criterion_08_hyperbolic_envelope_shape(criterion, study_weights):
    sigma = study_weights.sigma_max
    sched = hyperbolic()
    start = time.perf_counter()
    lower = lower_bound_series(sigma, sched, 10_000)
    ts = np.arange(1, 10_001)
    scaled = ts * lower[1:]
    cap = 1.0 / (1.0 - sigma)
    scaled_excess = float(np.max(scaled - cap))
    worst_gap = max(abs(gap(sched, int(t)) - 1.0) for t in ts)
    elapsed = time.perf_counter() - start
    criterion(8, f"hyperbolic schedule: t * lower(t) <= 1/(1-sigma) for all "
                 f"t <= 10^4 (max excess {scaled_excess:.2e}, tol 1e-10) and "
                 f"gap(t) = 1 (max error {worst_gap:.2e}, tol 1e-10); "
                 f"{elapsed:.1f}s (limit 5s)",
              scaled_excess <= 1e-10 and worst_gap < 1e-10 and elapsed < 5.0)


def test_criterion_09_adversarial_deviation(criterion, study_weights, study_x0, path2):
    rep = deviation_experiment(study_weights, study_x0)
    two = deviation_experiment(path2, np.array([1.0, 0.0]), target=0, tstar=1)
    err_pair = max(abs(two.y_consensus_value - 0.75), abs(two.x_limit_nominal - 0.5))
    criterion(9, f"single held agent shifts the 20-agent consensus by "
                 f"{rep.deviation:.3e} (must exceed 1e-3); two-agent case gives "
                 f"3/4 against nominal 1/2 (error {err_pair:.2e}, tol 1e-12)",
              rep.deviation > 1e-3 and err_pair < 1e-12)


STUDY_CONFIG = """\
[experiment]
n = 20
horizon = 300
seed = 869
out_dir = results

[graph]
kind = er
p = 0.1

[weights]
kind = metropolis

[x0]
uniform = 0 5

[schedule.exponential]
kind = exponential
rate = 0.5

[schedule.hyperbolic]
kind = hyperbolic

[schedule.adversarial]
kind = adversarial
tstar = auto
target = argmax
"""


def test_criterion_10_cli_determinism(criterion, tmp_path):
    cfg = tmp_path / "study.ini"
    cfg.write_text(STUDY_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = main(["run", str(cfg), "--out", str(out_a), "--quiet"])
    code_b = main(["run", str(cfg), "--out", str(out_b), "--quiet"])
    names = ["config.ini", "manifest.ini",
             "exponential.csv", "hyperbolic.csv", "adversarial.csv"]
    identical = all((out_a / n).read_bytes() == (out_b / n).read_bytes() for n in names)
    header_ok = all(
        (out_a / n).read_text().splitlines()[0] == CSV_HEADER
        for n in names if n.endswith(".csv")
    )
    criterion(10, f"two CLI runs with the same seed produce byte-identical "
                  f"outputs ({len(names)} files) with the exact CSV header",
              code_a == 0 and code_b == 0 and identical and header_ok)
