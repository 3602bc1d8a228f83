"""Shared fixtures: small hand-checkable networks and the pinned 20-agent study."""

import numpy as np
import pytest

acceptance_log = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_log:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_log:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def criterion():
    """Recorder: one pass/fail line per acceptance criterion, shown in the
    terminal summary, then asserted."""

    def record(num, desc, ok):
        line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
        acceptance_log.append(line)
        print(line)
        assert ok, line

    return record

from fjfade import (
    complete_graph,
    generate_erdos_renyi,
    metropolis_weights,
    path_graph,
    row_stochastic_weights,
    star_graph,
)

# the default 20-agent study: config seed 869 resamples er(20, 0.1) up to
# graph seed 886, giving a connected graph with sigma_max ~ 0.8813
STUDY_SEED = 869
STUDY_GRAPH_SEED = 886
STUDY_N = 20
STUDY_P = 0.1


@pytest.fixture(scope="session")
def path2():
    return metropolis_weights(path_graph(2))


@pytest.fixture(scope="session")
def star3():
    return metropolis_weights(star_graph(3))


@pytest.fixture(scope="session")
def star3_lazy():
    return metropolis_weights(star_graph(3), lazy=True)


@pytest.fixture(scope="session")
def study_network():
    net = generate_erdos_renyi(STUDY_N, STUDY_P, STUDY_GRAPH_SEED)
    assert net.connected
    return net


@pytest.fixture(scope="session")
def study_weights(study_network):
    return metropolis_weights(study_network)


@pytest.fixture(scope="session")
def study_weights_lazy(study_network):
    return metropolis_weights(study_network, lazy=True)


@pytest.fixture(scope="session")
def study_x0():
    rng = np.random.default_rng([STUDY_SEED, 2])
    return 5.0 * rng.random(STUDY_N)


@pytest.fixture(scope="session")
def small_fixtures():
    """Five doubly stochastic networks with n <= 20 plus initial opinions."""
    nets = [
        star_graph(3),
        path_graph(5),
        complete_graph(6),
        generate_erdos_renyi(8, 0.5, 1),
        generate_erdos_renyi(20, 0.2, 11),
    ]
    out = []
    for k, net in enumerate(nets):
        assert net.connected
        w = metropolis_weights(net)
        rng = np.random.default_rng(100 + k)
        out.append((w, rng.uniform(-1.0, 2.0, net.n)))
    return out


@pytest.fixture(scope="session")
def row_stochastic_fixture():
    net = generate_erdos_renyi(8, 0.5, 1)
    return row_stochastic_weights(net, seed=42)


@pytest.fixture()
def factorizations(monkeypatch):
    """Names of the eigh and svd calls made while the test runs."""
    calls = []
    for name in ("eigh", "svd"):
        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
