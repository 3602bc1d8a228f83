"""Tests for config parsing, validation diagnostics, and round-tripping."""

import re

import pytest

from fjfade import ConfigError, constant, custom, exponential, parse_config, serialize_config
from fjfade.config import GraphSpec

GOOD = """\
[experiment]
n = 6
horizon = 40
seed = 3
out_dir = results
eps_conv = 1e-9

[graph]
kind = er
p = 0.4

[weights]
kind = metropolis

[x0]
uniform = 0 5

[schedule.fast]
kind = exponential
rate = 0.5

[schedule.slow]
kind = hyperbolic

[schedule.hold]
kind = adversarial
tstar = auto
target = argmax
"""


class TestParsing:
    def test_good_config(self):
        cfg = parse_config(GOOD)
        assert cfg.n == 6
        assert cfg.horizon == 40
        assert cfg.seed == 3
        assert cfg.eps_conv == 1e-9
        assert cfg.graph == GraphSpec(kind="er", p=0.4)
        assert cfg.weights == "metropolis"
        assert cfg.x0_uniform == (0.0, 5.0)
        assert cfg.x0_values is None
        labels = [s.label for s in cfg.schedules]
        assert labels == ["fast", "slow", "hold"]
        hold = cfg.schedules[2]
        assert hold.is_adversarial and hold.kind == "adversarial"
        assert hold.schedule is None and hold.tstar is None and hold.target is None
        assert cfg.schedules[0].schedule == exponential(0.5) and cfg.schedules[0].kind == "exponential"

    def test_defaults(self):
        text = ("[experiment]\nn = 4\n[graph]\nkind = star\n[weights]\nkind = metropolis\n"
                "[x0]\nvalues = 1 2 3 4\n[schedule.h]\nkind = hyperbolic\n")
        for cfg in (parse_config(text), parse_config(text.replace("kind = star", "kind = er"))):
            assert cfg.horizon == 1000
            assert cfg.seed == 0
            assert cfg.out_dir == "results"
            assert cfg.eps_conv == 1e-8
            assert cfg.tail_eps == 1e-14
            assert cfg.emit_alt_distance is False
            assert cfg.graph.p == 0.1

    def test_explicit_values(self):
        cfg = parse_config(GOOD.replace("uniform = 0 5", "values = 1 2 3 4 5 6"))
        assert cfg.x0_values == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)

    def test_custom_and_constant_schedules(self):
        text = GOOD + "\n[schedule.mix]\nkind = custom\nseq = 0.5 0.25 0.1\n" \
                      "\n[schedule.flat]\nkind = constant\nlam = 0.3\n"
        cfg = parse_config(text)
        by_label = {s.label: s for s in cfg.schedules}
        assert by_label["mix"].schedule == custom([0.5, 0.25, 0.1])
        assert by_label["flat"].schedule == constant(0.3)
        assert by_label["flat"].schedule.value(9) == 0.3

    def test_adversarial_fixed_values(self):
        text = GOOD.replace("tstar = auto", "tstar = 12").replace("target = argmax", "target = 2")
        hold = parse_config(text).schedules[2]
        assert hold.tstar == 12 and hold.target == 2


class TestRejection:
    def test_unknown_key_reports_line_and_field(self):
        text = GOOD.replace("p = 0.4", "p = 0.4\nwat = 1")
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.field == "graph.wat"
        assert exc.value.line == 11
        assert "wat" in str(exc.value)

    def test_underflow_key_removed(self):
        with pytest.raises(ConfigError, match="unknown key 'underflow'"):
            parse_config(GOOD.replace("eps_conv = 1e-9", "eps_conv = 1e-9\nunderflow = 1e-14"))

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"unknown section"):
            parse_config(GOOD + "\n[plotting]\nstyle = dark\n")

    def test_missing_section(self):
        with pytest.raises(ConfigError, match=r"\[weights\]"):
            parse_config(GOOD.replace("[weights]\nkind = metropolis\n", ""))

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="kind"):
            parse_config(GOOD.replace("kind = metropolis", ""))

    def test_bad_types(self):
        with pytest.raises(ConfigError, match="integer"):
            parse_config(GOOD.replace("n = 6", "n = six"))
        with pytest.raises(ConfigError, match="number"):
            parse_config(GOOD.replace("p = 0.4", "p = high"))

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            parse_config(GOOD.replace("n = 6", "n = 1"))
        with pytest.raises(ConfigError):
            parse_config(GOOD.replace("p = 0.4", "p = 1.4"))
        with pytest.raises(ConfigError):
            parse_config(GOOD.replace("rate = 0.5", "rate = -1"))
        with pytest.raises(ConfigError):
            parse_config(GOOD.replace("tstar = auto", "tstar = -3"))
        with pytest.raises(ConfigError):
            parse_config(GOOD.replace("target = argmax", "target = 17"))
        for horizon in ("0", "1000001"):
            with pytest.raises(ConfigError, match="horizon must lie in"):
                parse_config(GOOD.replace("horizon = 40", f"horizon = {horizon}"))
        with pytest.raises(ConfigError, match="seed"):
            parse_config(GOOD.replace("seed = 3", "seed = -1"))
        for eps_conv in ("0", "-1e-8"):  # no distance falls below it, so converged_at would never fire
            with pytest.raises(ConfigError, match=f"eps_conv must be > 0, got {float(eps_conv)!r}") as info:
                parse_config(GOOD.replace("eps_conv = 1e-9", f"eps_conv = {eps_conv}"))
            assert info.value.field == "experiment.eps_conv"
        for old, new in (
            ("rate = 0.5", "rate = inf"),
            ("eps_conv = 1e-9", "eps_conv = nan"),
            ("uniform = 0 5", "uniform = -inf 5"),
            ("uniform = 0 5", "values = nan 0 1 2 3 4"),
        ):
            with pytest.raises(ConfigError, match="finite"):
                parse_config(GOOD.replace(old, new))

    def test_agent_cap(self):
        # W is a dense n x n matrix: the cap keeps it at 800 MB
        with pytest.raises(ConfigError, match="n must be at most 10000, got 10001") as info:
            parse_config(GOOD.replace("n = 6", "n = 10001"))
        assert info.value.field == "experiment.n" and "800 MB" in str(info.value)
        # p = 0.4 would expect 2e7 edges there, over the edge cap below
        assert parse_config(GOOD.replace("n = 6", "n = 10000").replace("p = 0.4", "p = 0.001")).n == 10000

    @pytest.mark.parametrize("graph, n, edges", [
        ("kind = complete", 4900, "1.2e+07"),
        ("kind = er\np = 0.4", 10000, "2e+07"),
        ("kind = er\np = 0.2401", 10000, "1.2e+07"),
    ])
    def test_edge_cap(self, monkeypatch, graph, n, edges):
        # rejected at parse time, before any builder runs
        for name in ("complete_graph", "generate_erdos_renyi"):
            monkeypatch.setattr(f"fjfade.experiment.{name}", lambda *a: pytest.fail("graph was built"))
        text = GOOD.replace("n = 6", f"n = {n}").replace("kind = er\np = 0.4", graph)
        with pytest.raises(ConfigError, match=f"expects {re.escape(edges)} edges, over the cap of 12000000") as info:
            parse_config(text)
        assert info.value.field == "graph"
        # about 41 bytes an edge while the graph is built: under 500 MB at the cap
        assert "over the cap of 12000000 that holds its edge arrays under 500 MB (field 'graph')" in str(info.value)

    @pytest.mark.parametrize("graph, n", [("kind = complete", 4899), ("kind = er\np = 0.24", 10000),
                                          ("kind = path", 10000)])
    def test_edge_cap_admits(self, graph, n):
        cfg = parse_config(GOOD.replace("n = 6", f"n = {n}").replace("kind = er\np = 0.4", graph))
        assert cfg.n == n and cfg.graph.kind == graph.split()[2]

    @pytest.mark.parametrize("tail_eps", ["0", "-1", "1", "1.5"])
    def test_tail_eps_range(self, tail_eps):
        with pytest.raises(ConfigError, match=r"tail_eps must lie in \(0, 1\)") as info:
            parse_config(GOOD.replace("eps_conv = 1e-9", f"eps_conv = 1e-9\ntail_eps = {tail_eps}"))
        assert info.value.field == "experiment.tail_eps"

    def test_subnormal_tail_eps_parses(self):
        text = GOOD.replace("eps_conv = 1e-9", "eps_conv = 1e-9\ntail_eps = 1e-320")
        assert parse_config(text).tail_eps == 1e-320

    def test_fixed_tstar_cap(self):
        # a fixed tstar is stepped to, so it is capped like the auto search, at 10^6 steps
        assert parse_config(GOOD.replace("tstar = auto", "tstar = 1000000")).schedules[2].tstar == 10**6
        with pytest.raises(ConfigError, match="tstar must be at most 1000000, got 1000001") as info:
            parse_config(GOOD.replace("tstar = auto", "tstar = 1000001"))
        assert (info.value.field, info.value.line) == ("schedule.hold.tstar", 27)

    def test_x0_exactly_one_source(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(GOOD.replace("uniform = 0 5", "uniform = 0 5\nvalues = 1 2 3 4 5 6"))
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(GOOD.replace("uniform = 0 5", ""))

    def test_x0_length_mismatch(self):
        with pytest.raises(ConfigError, match="6 values"):
            parse_config(GOOD.replace("uniform = 0 5", "values = 1 2 3"))

    def test_x0_uniform_needs_ordered_pair(self):
        with pytest.raises(ConfigError, match="low high"):
            parse_config(GOOD.replace("uniform = 0 5", "uniform = 5 0"))

    def test_no_schedules(self):
        head = GOOD.split("[schedule.fast]")[0]
        with pytest.raises(ConfigError, match="schedule"):
            parse_config(head)

    def test_bad_label(self):
        with pytest.raises(ConfigError, match="label"):
            parse_config(GOOD.replace("[schedule.fast]", "[schedule.fa st]"))

    def test_duplicate_section(self):
        with pytest.raises(ConfigError, match="syntax"):
            parse_config(GOOD + "\n[graph]\nkind = star\n")

    def test_er_without_edges_is_rejected(self):
        # p = 0 can never connect n >= 2 agents, so no graph is drawn
        with pytest.raises(ConfigError, match=r"edge probability must lie in \(0, 1\], got 0.0") as info:
            parse_config(GOOD.replace("p = 0.4", "p = 0"))
        assert info.value.field == "graph.p"

    def test_p_only_for_er(self):
        text = GOOD.replace("kind = er", "kind = star")
        with pytest.raises(ConfigError, match="'p' only applies"):
            parse_config(text)

    def test_schedule_param_for_wrong_kind(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(GOOD.replace("kind = hyperbolic", "kind = hyperbolic\nrate = 2"))


# One case per value type of a key: (old text, new text, field, line, message
# start or None). Choice and integer-or-word keys pin only the location.
BAD_VALUES = {
    "int": ("n = 6", "n = six", "experiment.n", 2, "expected an integer for 'n', got 'six'"),
    "finite_float": ("p = 0.4", "p = nan", "graph.p", 10, "expected a finite number for 'p', got 'nan'"),
    "float_list": ("uniform = 0 5", "uniform = 0 five", "x0.uniform", 16,
                   "expected space-separated finite numbers for 'uniform', got '0 five'"),
    "seq": ("rate = 0.5", "rate = 0.5\n[schedule.mix]\nkind = custom\nseq = 0.5 inf", "schedule.mix.seq", 23,
            "expected space-separated finite numbers for 'seq', got '0.5 inf'"),
    "bool": ("eps_conv = 1e-9", "eps_conv = 1e-9\nemit_alt_distance = maybe", "experiment.emit_alt_distance", 7,
             "expected a boolean for 'emit_alt_distance', got 'maybe'"),
    "int_or_word": ("tstar = auto", "tstar = soon", "schedule.hold.tstar", 27, None),
    "choice": ("kind = er", "kind = ring", "graph.kind", 9, None),
    "missing_required": ("n = 6\n", "", "experiment.n", 1, "missing required key 'n' in section [experiment]"),
    "missing_param": ("rate = 0.5\n", "", "schedule.fast.rate", 18,
                      "missing required key 'rate' in section [schedule.fast]"),
}


@pytest.mark.parametrize("case", BAD_VALUES)
def test_bad_value_reports_field_and_line(case):
    old, new, field, line, message = BAD_VALUES[case]
    with pytest.raises(ConfigError) as info:
        parse_config(GOOD.replace(old, new, 1))
    assert (info.value.field, info.value.line) == (field, line)
    if message is not None:
        assert str(info.value).startswith(message)


class TestRoundTrip:
    def test_parse_serialize_parse_fixed_point(self):
        cfg = parse_config(GOOD)
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        # serialization is itself a fixed point
        assert serialize_config(parse_config(text)) == text

    def test_values_roundtrip_exactly(self):
        cfg = parse_config(GOOD.replace("uniform = 0 5", "values = 0.1 0.2 0.3 0.4 0.5 0.6"))
        assert parse_config(serialize_config(cfg)) == cfg

    def test_long_mantissas_roundtrip_exactly(self):
        # %g keeps 6 significant digits; every digit of a 9- to 17-digit value must survive
        text = (GOOD.replace("eps_conv = 1e-9", "eps_conv = 1.23456789e-09\ntail_eps = 2.718281828459045e-15")
                .replace("p = 0.4", "p = 0.4000000001")
                .replace("uniform = 0 5", "uniform = 0.1234567891 4.999999999999999")
                .replace("rate = 0.5", "rate = 0.123456789")
                + "\n[schedule.flat]\nkind = constant\nlam = 0.30000000000000004\n")
        cfg = parse_config(text)
        out = serialize_config(cfg)
        assert parse_config(out) == cfg
        for line in ("rate = 0.123456789", "lam = 0.30000000000000004", "tail_eps = 2.718281828459045e-15"):
            assert line + "\n" in out
        # values %g writes exactly keep their short text
        assert "uniform = 0 5\n" in serialize_config(parse_config(GOOD))

    def test_all_schedule_kinds_roundtrip(self):
        text = GOOD + "\n[schedule.mix]\nkind = custom\nseq = 0.5 0.25\n" \
                      "\n[schedule.flat]\nkind = constant\nlam = 0.3\n" \
                      "\n[schedule.quiet]\nkind = zero\n"
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg


def test_config_error_formats_location():
    err = ConfigError("boom", line=4, field="graph.p")
    assert "line 4" in str(err)
    assert "graph.p" in str(err)
    assert err.line == 4 and err.field == "graph.p"
