"""The config schema: ExperimentConfig's fields drive the config file, the
flags and validate(); malformed input exits 2 with one error line."""
from __future__ import annotations

import math
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topomon import cli
from topomon.engine import POISSON_MAX_MEAN
from topomon.simulation import CONFIG_FIELDS, ConfigInvalid, ExperimentConfig, World

DEFAULTS = ExperimentConfig()

# (flag, value or None for a switch, field it sets, value the field gets)
FLAG_CASES = [
    ("--seed", "9", "seed", 9),
    ("--nodes", "7", "nodes", 7),
    ("--monitors", "2", "monitors", 2),
    ("--outbound", "4", "outbound_per_node", 4),
    ("--var", "2.5", "variability_s", 2.5),
    ("--malicious", "20", "malicious_pct", 0.2),
    ("--duration-ms", "700000", "duration_ms", 700_000),
    ("--probe-every-ms", "20000", "probe_every_ms", 20_000),
    ("--timeout-ms", "900", "round_timeout_ms", 900),
    ("--f-init", "6", "f_init", 6),
    ("--f-min", "2", "f_min", 2),
    ("--f-max", "12", "f_max", 12),
    ("--safe-rounds", "4", "safe_rounds", 4),
    ("--mode", "fixed", "scheduling_mode", "fixed"),
    ("--latency", "1,9", "latency_ms_range", (1, 9)),
    ("--second-hop-p", "0.5", "second_hop_p", 0.5),
    ("--soft-hiding", None, "full_hiding", False),
    ("--malicious-refill", None, "malicious_refill", True),
    ("--no-adaptive", None, "adaptive", False),
]
SHORT_SET = ["--seed", "--nodes", "--monitors", "--outbound"]


def _render(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _parsed(monkeypatch, command: str, argv: list[str]) -> ExperimentConfig:
    """The config `main` builds for `command argv`, without running anything."""
    seen = []
    handler = {"run": "_cmd_run", "export-topology": "_cmd_export"}[command]
    monkeypatch.setattr(cli, handler, lambda args: seen.append(cli.build_config(args)) or 0)
    assert cli.main([command, *argv]) == 0
    return seen[0]


def _changed(cfg: ExperimentConfig) -> dict:
    return {
        f.name: getattr(cfg, f.name)
        for f in fields(cfg)
        if getattr(cfg, f.name) != getattr(DEFAULTS, f.name)
    }


@pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)])
def test_every_field_reads_back_its_default_from_a_config_file(tmp_path, name):
    default = getattr(DEFAULTS, name)
    cfile = tmp_path / "c.conf"
    cfile.write_text(f"{name} = {_render(default)}\n")
    got = cli.load_config_file(cfile)
    assert got == {name: default} and type(got[name]) is type(default)
    assert replace(DEFAULTS, **got).validate() == []


@pytest.mark.parametrize("flag,value,name,expected", FLAG_CASES)
def test_each_flag_sets_exactly_its_field(monkeypatch, flag, value, name, expected):
    cfg = _parsed(monkeypatch, "run", [flag] if value is None else [flag, value])
    assert _changed(cfg) == {name: expected}


@pytest.mark.parametrize("flag,value,name,expected", [c for c in FLAG_CASES if c[0] in SHORT_SET])
def test_short_set_flags_set_their_fields(monkeypatch, flag, value, name, expected):
    assert _changed(_parsed(monkeypatch, "export-topology", [flag, value])) == {name: expected}


def test_short_set_refuses_the_other_flags():
    assert cli.main(["export-topology", "--var", "1"]) == 2


def test_flag_cases_cover_the_flag_table():
    assert [row[:2] for row in cli._FLAGS] == [(c[0], c[2]) for c in FLAG_CASES]
    assert [row[0] for row in cli._FLAGS[:4]] == SHORT_SET


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("under", [False, True])
def test_out_path_that_is_a_file_exits_2(tmp_path, capsys, command, under):
    blocker = tmp_path / "plain"
    blocker.write_text("")
    out = blocker / "sub" if under else blocker
    assert cli.main([command, "--nodes", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot use output directory") and err.count("\n") == 1


def test_flag_with_malformed_value_names_flag_and_form(capsys):
    assert cli.main(["run", "--latency", "5"]) == 2
    err = capsys.readouterr().err
    assert "argument --latency: invalid int_pair value: '5'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--vars", "--pcts"])
def test_sweep_list_with_malformed_value_names_flag_and_form(tmp_path, capsys, flag):
    assert cli.main(["sweep", "--out", str(tmp_path), flag, "x"]) == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: invalid float_list value: 'x'" in err
    assert "Traceback" not in err
    assert not (tmp_path / "sweep_raw.csv").exists()


def test_help_returns_0(capsys):
    assert cli.main(["run", "--help"]) == 0
    assert "--nodes" in capsys.readouterr().out


@pytest.mark.parametrize(
    "line,message",
    [
        ("latency_ms_range = 5,6,7", "latency_ms_range: expected tuple[int, int], got '5,6,7'"),
        ("nodes = ten", "nodes: expected int, got 'ten'"),
        ("monitor_f_init = 1,x", "monitor_f_init: expected tuple[int, ...] | None, got '1,x'"),
        ("full_hiding = maybe", "full_hiding: expected bool, got 'maybe'"),
    ],
)
def test_config_value_malformed_names_line_key_and_form(tmp_path, capsys, line, message):
    cfile = tmp_path / "c.conf"
    cfile.write_text(f"# settings\n{line}\n")
    assert cli.main(["run", "--config", str(cfile)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {cfile}:2: {message}\n"


config_text = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=120),
    st.lists(
        st.tuples(
            st.sampled_from([f.name for f in fields(ExperimentConfig)] + ["", "turbo"]),
            st.sampled_from(["=", " = ", ":", ""]),
            st.one_of(st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
                      st.sampled_from(["1", "-1", "1.5", "inf", "nan", "1,2", "1,", ",",
                                       "none", "yes", "1e999", "1_000"])),
        ).map("".join),
        max_size=6,
    ).map("\n".join),
)


@given(config_text)
@settings(max_examples=300, deadline=None)
def test_config_loader_returns_a_dict_or_raises_value_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        cfile = Path(tmp) / "c.conf"
        cfile.write_text(text, encoding="utf-8")
        try:
            got = cli.load_config_file(cfile)
        except ValueError:
            return
    assert isinstance(got, dict) and set(got) <= {f.name for f in fields(ExperimentConfig)}


def _reference_validate(cfg: ExperimentConfig) -> list[str]:
    # validate() as it read before its bounds became a table, kept to compare against
    bad = [f"{f} must be finite" for f in ("variability_s", "malicious_pct", "second_hop_p")
           if not math.isfinite(getattr(cfg, f))]
    checks = [
        (cfg.nodes < 1, "nodes must be >= 1"),
        (cfg.monitors < 1, "monitors must be >= 1"),
        (cfg.outbound_per_node < 0, "outbound_per_node must be >= 0"),
        (not 0.0 <= cfg.malicious_pct <= 1.0, "malicious_pct must be in [0, 1]"),
        (cfg.variability_s < 0, "variability_s must be >= 0"),
        (not cfg.f_min <= cfg.f_init <= cfg.f_max, "need f_min <= f_init <= f_max"),
        (cfg.f_min < 1, "f_min must be >= 1"),
        (cfg.scheduling_mode == "poisson" and cfg.f_max > POISSON_MAX_MEAN,
         f"f_max must be <= {POISSON_MAX_MEAN} in poisson mode"),
        (cfg.duration_ms < 0, "duration_ms must be >= 0"),
        (cfg.probe_every_ms < 1, "probe_every_ms must be >= 1"),
        (cfg.probe_every_ms > cfg.duration_ms, "probe_every_ms must not exceed duration_ms"),
        (cfg.round_timeout_ms < 1, "round_timeout_ms must be >= 1"),
        (cfg.safe_rounds < 0, "safe_rounds must be >= 0"),
        (cfg.scheduling_mode not in ("poisson", "fixed"),
         f"unknown scheduling_mode {cfg.scheduling_mode!r}"),
        (not 0 <= cfg.latency_ms_range[0] <= cfg.latency_ms_range[1],
         "latency_ms_range must satisfy 0 <= lo <= hi"),
        (not 0.0 <= cfg.second_hop_p <= 1.0, "second_hop_p must be in [0, 1]"),
    ]
    if cfg.monitor_f_init is not None:
        checks += [
            (len(cfg.monitor_f_init) != cfg.monitors,
             "monitor_f_init must list one frequency per monitor"),
            (not all(cfg.f_min <= f <= cfg.f_max for f in cfg.monitor_f_init),
             "monitor_f_init entries must lie in [f_min, f_max]"),
        ]
    return bad + [message for failed, message in checks if failed]


small_int = st.integers(min_value=-2, max_value=4)
finite = st.floats(min_value=-1.5, max_value=12.0)
configs = st.builds(
    ExperimentConfig,
    nodes=small_int,
    monitors=small_int,
    outbound_per_node=small_int,
    variability_s=finite,
    malicious_pct=finite,
    duration_ms=st.integers(min_value=-2, max_value=10),
    probe_every_ms=st.integers(min_value=-2, max_value=10),
    round_timeout_ms=small_int,
    f_init=small_int,
    f_min=small_int,
    f_max=st.sampled_from([-1, 0, 1, 3, 10, POISSON_MAX_MEAN, POISSON_MAX_MEAN + 1]),
    safe_rounds=small_int,
    scheduling_mode=st.sampled_from(["poisson", "fixed", "other"]),
    latency_ms_range=st.tuples(small_int, small_int),
    second_hop_p=finite,
    monitor_f_init=st.none() | st.lists(small_int, max_size=4).map(tuple),
)


@given(configs)
@settings(max_examples=500, deadline=None)
def test_validate_reports_the_same_problems_as_the_reference(cfg):
    assert set(cfg.validate()) == set(_reference_validate(cfg))


# values of every type and shape, small enough that a config they leave valid builds fast
any_value = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 64) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple),
    max_leaves=8,
)
SMALL = ExperimentConfig(nodes=6, monitors=2, duration_ms=2_000, probe_every_ms=1_000)


@given(st.dictionaries(st.sampled_from(sorted(CONFIG_FIELDS)), any_value, max_size=3))
@settings(max_examples=300, deadline=None)
def test_validate_lists_problems_for_any_value_and_world_raises_only_config_invalid(kw):
    cfg = replace(SMALL, **kw)
    problems = cfg.validate()
    assert isinstance(problems, list) and all(type(p) is str for p in problems)
    try:
        World(cfg)
    except ConfigInvalid as exc:
        assert exc.problems == problems
    else:
        assert problems == []
