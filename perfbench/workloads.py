"""Seeded workload generator: (workload, seed) -> config text and CLI arguments.

The program only ever sees the generated INI file. A benchmark seed selects
one of POOL_SIZE config seeds per workload, so that every input the benchmark
can produce has reference values recorded in reference.json. Seed 0 of
`study` reproduces configs/twenty_agents.ini exactly.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

POOL_SIZE = 16
DEFAULT_SEED = 0
# Benchmark seed kept out of tuning, so a later claim can be confirmed on
# inputs it was not tuned on.
HELD_OUT_SEED = 15

STUDY_TEMPLATE = """\
[experiment]
n = 20
horizon = 10000
seed = {seed}
out_dir = results/twenty_agents
eps_conv = 1e-8

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

[schedule.constant]
kind = constant
lam = 0.3

[schedule.adversarial]
kind = adversarial
tstar = auto
target = argmax
"""

VERIFY_WIDE_TEMPLATE = """\
[experiment]
n = 200
horizon = 2000
seed = {seed}

[graph]
kind = er
p = 0.05

[weights]
kind = lazy_metropolis

[x0]
uniform = 0 5

[schedule.exponential]
kind = exponential
rate = 0.05

[schedule.hyperbolic]
kind = hyperbolic
"""

PATH_SPECTRAL_TEMPLATE = """\
[experiment]
n = 300
horizon = 500
seed = {seed}

[graph]
kind = path

[weights]
kind = lazy_metropolis

[x0]
uniform = 0 5

[schedule.exponential]
kind = exponential
rate = 0.5

[schedule.hyperbolic]
kind = hyperbolic
"""

TSTAR_PATH_TEMPLATE = """\
[experiment]
n = 64
seed = {seed}

[graph]
kind = path

[weights]
kind = metropolis

[x0]
values = {values}

[schedule.adversarial]
kind = adversarial
tstar = auto
target = argmax
"""


def tstar_path_config(seed: int, n: int = 64) -> str:
    """x0_i = 5 i / (n - 1) + 0.5 u_i with u_i uniform from the seed.

    The ramp fixes the slow-mode content of x0, so the settling time that
    sizes find_tstar's replay, and with it time and memory, barely moves
    with the seed (within 0.2% over the pool); uniform random starts move it
    by 15%.
    """
    rng = random.Random(seed)
    values = " ".join(repr(round(5.0 * i / (n - 1) + 0.5 * rng.random(), 6)) for i in range(n))
    return TSTAR_PATH_TEMPLATE.format(seed=seed, values=values)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                  # fjfade subcommand: run, verify or tstar
    render: Callable[..., str]    # config text from seed=<config seed>
    base_seed: int                # config seed of benchmark seed 0
    extra_args: tuple[str, ...] = ()

    def config_seed(self, seed: int) -> int:
        return self.base_seed + seed % POOL_SIZE

    def config_text(self, seed: int) -> str:
        return self.render(seed=self.config_seed(seed))

    def cli_args(self, config_path: str, out_dir: str) -> list[str]:
        """Arguments after `fjfade`; only `run` writes files, into out_dir."""
        args = [self.command, config_path, *self.extra_args]
        if self.command == "run":
            args += ["--out", out_dir, "--quiet"]
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload("study", "run", STUDY_TEMPLATE.format, base_seed=869),
        Workload("verify-wide", "verify", VERIFY_WIDE_TEMPLATE.format, base_seed=1,
                 extra_args=("--trials", "50")),
        Workload("path-spectral", "run", PATH_SPECTRAL_TEMPLATE.format, base_seed=1),
        Workload("tstar-path", "tstar", tstar_path_config, base_seed=1),
    )
}
