"""Property test of the command line over generated configs and arguments.

Any config that parses either runs or fails with a typed error: `main`
returns 0, 1 or 2 and never raises, and it returns 1 only when `verify`
reports a FAIL. A `run` that exits 0 writes a config.ini that parses back
to the config it ran, long mantissas included. Horizons and networks stay
small so the test takes seconds.
"""

import contextlib
import io
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from fjfade.cli import main
from fjfade.config import load_config, parse_config


def mostly(valid, invalid):
    """Draws from `valid`, and one time in ten from `invalid`."""
    return st.integers(0, 9).flatmap(lambda k: st.sampled_from(invalid if k == 0 else valid))


# 0.123456789 and 0.30000000000000004 need more than the 6 digits of %g
LEVELS = mostly([0.0, 1e-300, 0.05, 0.3, 0.123456789, 0.30000000000000004, 0.5, 0.999, 1.0],
                [1.2, 1.5])


@st.composite
def schedule_sections(draw, n):
    kind = draw(st.sampled_from(["constant", "exponential", "hyperbolic", "zero", "custom", "adversarial"]))
    lines = [f"kind = {kind}"]
    if kind == "constant":
        lines.append(f"lam = {draw(LEVELS)!r}")
    elif kind == "exponential":
        rate = draw(mostly([0.05, 0.5, 0.123456789012, 3.0, 1e300], [-0.5, 0.0, 1e-9, 1e-320]))
        lines.append(f"rate = {rate!r}")
    elif kind == "custom":
        seq = draw(st.lists(LEVELS, min_size=1, max_size=5))
        lines.append("seq = " + " ".join(map(repr, seq)))
    elif kind == "adversarial":
        lines.append(f"tstar = {draw(mostly(['auto', '0', '3', '12'], ['-1', '1000000000000']))}")
        lines.append(f"target = {draw(mostly(['argmax'] * 3 + [str(i) for i in range(n)], ['-1', str(n)]))}")
    return lines


@st.composite
def configs(draw):
    n = draw(st.integers(2, 8))
    graph = draw(st.sampled_from(["er", "path", "star", "complete"]))
    text = [
        "[experiment]",
        f"n = {n}",
        f"horizon = {draw(st.integers(1, 40))}",
        f"seed = {draw(st.integers(0, 50))}",
        f"eps_conv = {draw(mostly([1e-12, 1e-8, 1.2345678901e-08, 1e-2, 10.0], [0.0, -1e-08]))!r}",
        # 1e-320 is in range but subnormal: 1 / tail_eps overflows
        f"tail_eps = {draw(mostly([1e-16, 1e-14, 1e-6, 0.5], [0.0, -1.0, 1e-320]))!r}",
        f"emit_alt_distance = {draw(st.sampled_from(['true', 'false']))}",
        "",
        "[graph]",
        f"kind = {graph}",
    ]
    if graph == "er":
        text.append(f"p = {draw(st.sampled_from([0.0, 0.3, 0.7, 0.7000000001, 1.0]))!r}")
    weights = draw(st.sampled_from(["metropolis", "lazy_metropolis", "row_stochastic"]))
    text += ["", "[weights]", f"kind = {weights}", "", "[x0]"]
    if draw(st.booleans()):
        lo, hi = draw(mostly([(-2.0, 5.0), (0.0, 5.0), (0.0, 1.0)], [(5.0, 0.0), (1.0, 1.0)]))
        text.append(f"uniform = {lo!r} {hi!r}")
    else:
        size = draw(mostly([n], [n - 1, n + 1]))
        values = draw(st.lists(st.sampled_from([0.0, 1.0, 1.0, 2.5, -4.0]), min_size=size, max_size=size))
        text.append("values = " + " ".join(map(repr, values)))
    labels = draw(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4, unique=True))
    for label in labels:
        text += ["", f"[schedule.{label}]", *draw(schedule_sections(n))]
    return "\n".join(text) + "\n"


@st.composite
def arguments(draw):
    command = draw(st.sampled_from(["run", "verify", "tstar"]))
    args = [command]
    if draw(st.booleans()):
        args += ["--seed", str(draw(mostly([0, 7], [-1, 2**64])))]
    if command != "tstar" and draw(st.booleans()):
        args += ["--horizon", str(draw(mostly([1, 25], [-3, 0])))]
    if command == "verify":
        args += ["--trials", str(draw(mostly([0, 3], [-1])))]
        if draw(st.booleans()):
            args.append("--self-test")
    return args


# Reaching the truncated product takes a bounded exponential schedule, which
# random draws pair with a bad tail_eps rarely; these cases run every time.
BOUNDED = """\
[experiment]
n = 4
horizon = 20
eps_conv = 1.2345678901e-08
tail_eps = {tail_eps}

[graph]
kind = path

[weights]
kind = lazy_metropolis

[x0]
uniform = 0 5

[schedule.a]
kind = exponential
rate = 0.123456789
"""


@pytest.mark.filterwarnings("ignore:custom schedule is not non-increasing")
@given(text=configs(), args=arguments())
@example(text=BOUNDED.format(tail_eps=0.0), args=["run"])
@example(text=BOUNDED.format(tail_eps=-1.0), args=["verify", "--trials", "3"])
@example(text=BOUNDED.format(tail_eps=1e-320), args=["verify", "--trials", "3"])
@example(text=BOUNDED.format(tail_eps=1e-320), args=["run", "--seed", "7", "--horizon", "25"])
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_main_exits_0_1_or_2_and_never_raises(text, args):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "exp.ini"
        path.write_text(text)
        argv = [args[0], str(path), *args[1:]]
        if args[0] == "run":
            argv += ["--out", str(Path(tmp) / "out")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        if args[0] == "run" and code == 0:
            # the effective config: the file's, after --seed and --horizon
            overrides = {flag.lstrip("-"): int(value) for flag, value in zip(args[1::2], args[2::2])}
            effective = replace(parse_config(text), **overrides)
            assert load_config(Path(tmp) / "out" / "config.ini") == effective, (argv, text)
    event(f"{args[0]} exit {code}")
    assert code in (0, 1, 2), (code, argv, text)
    if code == 1:
        assert args[0] == "verify" and "FAIL" in stdout.getvalue(), (argv, text, stdout.getvalue())
    if code == 2:
        assert "error" in stderr.getvalue(), (argv, text)
