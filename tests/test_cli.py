"""Command-line behavior: artifacts on disk, override precedence, exit codes."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topomon.cli import audit_rows, load_config_file, main
from topomon.simulation import ExperimentConfig

RUN_ARGS = [
    "run",
    "--nodes", "10",
    "--monitors", "2",
    "--var", "0",
    "--duration-ms", "8000",
    "--probe-every-ms", "4000",
    "--mode", "fixed",
    "--f-init", "2",
    "--no-adaptive",
    "--seed", "3",
]


def test_run_writes_csv_and_reports(tmp_path, capsys):
    assert main(RUN_ARGS + ["--out", str(tmp_path)]) == 0
    csv = tmp_path / "run_var0_mal0_seed3.csv"
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("var_s,malicious_pct,seed,probe_time_ms")
    assert len(lines) == 3  # probes at 4s and 8s
    assert "precision=100.0%" in capsys.readouterr().out


def test_trace_and_snapshot_flags_produce_files(tmp_path):
    rc = main(RUN_ARGS + ["--out", str(tmp_path), "--trace", "--snapshots", "--name", "x"])
    assert rc == 0
    assert (tmp_path / "x.csv").exists()
    assert (tmp_path / "x.trace").read_text().count("\n") > 50
    snaps = (tmp_path / "x.snapshots").read_text().splitlines()
    assert [ln.split("\t")[1] for ln in snaps] == ["m0", "m1", "global"] * 2


def test_run_with_fewer_nodes_than_outbound_slots_under_churn(tmp_path):
    assert main(["run", "--nodes", "3", "--out", str(tmp_path)]) == 0


def test_out_dir_falls_back_to_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("TOPOMON_OUT", str(tmp_path / "envdir"))
    assert main(RUN_ARGS) == 0
    assert (tmp_path / "envdir" / "run_var0_mal0_seed3.csv").exists()


def test_flags_override_config_file(tmp_path):
    cfile = tmp_path / "settings.conf"
    cfile.write_text(
        "nodes = 10\nmonitors = 2\nvariability_s = 0  # static\n"
        "duration_ms = 8000\nprobe_every_ms = 4000\nscheduling_mode = fixed\n"
        "f_init = 2\nadaptive = false\nseed = 1\n"
    )
    rc = main(["run", "--config", str(cfile), "--seed", "9", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "run_var0_mal0_seed9.csv").exists()


def test_config_file_parses_tuples_and_booleans(tmp_path):
    cfile = tmp_path / "c.conf"
    cfile.write_text("latency_ms_range = 5,50\nmonitor_f_init = 1,5,5,10\nfull_hiding = no\n")
    got = load_config_file(cfile)
    assert got == {
        "latency_ms_range": (5, 50),
        "monitor_f_init": (1, 5, 5, 10),
        "full_hiding": False,
    }


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfile = tmp_path / "c.conf"
    cfile.write_text("turbo = yes\n")
    assert main(["run", "--config", str(cfile)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_invalid_settings_exit_2(capsys):
    assert main(["run", "--nodes", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_infinite_variability_exits_2(tmp_path, capsys):
    assert main(["run", "--var", "inf", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "variability_s must be finite" in err and "Traceback" not in err


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nonexistent")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file") and err.count("\n") == 1


def test_config_path_that_is_a_directory_exits_2(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config file") and err.count("\n") == 1


def test_sweep_writes_raw_and_summary(tmp_path, capsys):
    rc = main(
        [
            "sweep",
            "--nodes", "10", "--monitors", "2",
            "--duration-ms", "8000", "--probe-every-ms", "4000",
            "--mode", "fixed", "--f-init", "2", "--no-adaptive",
            "--vars", "0", "--pcts", "0,20", "--repeats", "2",
            "--out", str(tmp_path),
        ]
    )
    assert rc == 0
    raw = (tmp_path / "sweep_raw.csv").read_text().splitlines()
    summary = (tmp_path / "sweep_summary.csv").read_text().splitlines()
    assert len(raw) == 1 + 2 * 2 and len(summary) == 1 + 2
    assert "raw ->" in capsys.readouterr().out


def test_empty_sweep_exits_2(tmp_path):
    assert main(["sweep", "--repeats", "0", "--out", str(tmp_path)]) == 2


def test_audit_overhead_matches_closed_form(tmp_path, capsys):
    rc = main(
        ["audit-overhead", "--nodes", "12", "--monitors", "3", "--seed", "4",
         "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "12/12 nodes match the closed-form cost" in out
    assert "MISMATCH" not in out


@pytest.mark.parametrize(
    "setting",
    ["round_timeout_ms = 1501", "latency_ms_range = 800,900", "monitor_f_init = 1,1,1"],
)
def test_audit_overhead_window_covers_one_complete_sweep(tmp_path, capsys, setting):
    # a late confirmation list, a slow relay or an early second round would
    # each leave the ledger off the closed form
    cfile = tmp_path / "audit.conf"
    cfile.write_text(setting + "\n")
    rc = main(
        ["audit-overhead", "--nodes", "10", "--monitors", "3", "--seed", "4",
         "--config", str(cfile)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "10/10 nodes match the closed-form cost" in out
    assert "MISMATCH" not in out


@given(
    st.builds(
        ExperimentConfig,
        nodes=st.integers(1, 15),
        monitors=st.integers(1, 4),
        outbound_per_node=st.integers(0, 4),
        round_timeout_ms=st.integers(1, 3_000),
        latency_ms_range=st.lists(st.integers(0, 900), min_size=2, max_size=2)
        .map(sorted)
        .map(tuple),
        f_init=st.integers(1, 4),
        seed=st.integers(0, 2**16),
    )
)
@settings(deadline=None)
def test_every_node_pays_the_closed_form_over_one_sweep(cfg):
    # criterion 7's closed form, for any static honest overlay swept once
    assert all(row.ok for row in audit_rows(cfg))


def test_export_edgelist_to_stdout(capsys):
    rc = main(["export-topology", "--nodes", "8", "--monitors", "1", "--seed", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) >= 8 - 3  # bootstrap ramp keeps early degrees short
    assert all(len(ln.split()) == 2 for ln in lines)


def test_export_dot_to_file(tmp_path):
    dest = tmp_path / "overlay.dot"
    rc = main(
        ["export-topology", "--nodes", "8", "--monitors", "2", "--seed", "2",
         "--format", "dot", "--dest", str(dest)]
    )
    assert rc == 0
    text = dest.read_text()
    assert text.startswith("digraph") and "->" in text


def test_negative_settle_time_exits_2(capsys):
    rc = main(["export-topology", "--nodes", "8", "--monitors", "1", "--settle-ms", "-5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: run_until(-5)") and captured.err.count("\n") == 1


def _assert_cannot_write(capsys, path):
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {path}") and err.count("\n") == 1
    assert "Traceback" not in err


def test_export_dest_that_cannot_be_written_exits_2(tmp_path, capsys):
    export = ["export-topology", "--nodes", "8", "--monitors", "1", "--dest"]
    for dest in (tmp_path / "missing" / "overlay.txt", tmp_path):
        assert main(export + [str(dest)]) == 2
        _assert_cannot_write(capsys, dest)


def test_run_output_file_that_is_a_directory_exits_2(tmp_path, capsys):
    for suffix in ("csv", "trace", "snapshots"):
        out = tmp_path / suffix
        (out / f"x.{suffix}").mkdir(parents=True)
        rc = main(RUN_ARGS + ["--out", str(out), "--name", "x", "--trace", "--snapshots"])
        assert rc == 2
        _assert_cannot_write(capsys, out / f"x.{suffix}")


def test_sweep_output_file_that_is_a_directory_exits_2(tmp_path, capsys):
    (tmp_path / "sweep_raw.csv").mkdir()
    rc = main(["sweep", "--nodes", "5", "--vars", "0", "--pcts", "0", "--repeats", "1",
               "--out", str(tmp_path)])
    assert rc == 2
    _assert_cannot_write(capsys, tmp_path / "sweep_raw.csv")
