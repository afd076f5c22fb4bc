"""Command-line interface: exit codes, config precedence, output wiring."""

import os

import numpy as np
import pytest

from vorspec.cli import build_parser, cli_main


def run_cli(capsys, *argv):
    code = cli_main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_command_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert "usage" in err.lower()


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0
    assert out.startswith("vorspec ")


def test_unknown_command_rejected(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_parser_lists_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("tg-convergence", "tg-longrun", "shear-layer",
                 "telescope", "check"):
        assert name in text


def test_tg_convergence_writes_table(tmp_path, capsys):
    out_file = tmp_path / "orders.csv"
    code, out, _ = run_cli(
        capsys, "tg-convergence", "--n", "16", "--nu", "1e-3",
        "--t-final", "0.1", "--dt0", "0.02", "--levels", "3",
        "--output", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == "dt,variable,linf_l2,l2_h1,order_linf,order_l2h1,status"
    assert len(lines) == 1 + 3 * 3
    assert all(line.endswith(",ok") for line in lines[1:])


def test_tg_longrun_streams_series(capsys):
    code, out, err = run_cli(
        capsys, "tg-longrun", "--n", "16", "--dt", "0.01",
        "--t-final", "0.05", "--nu", "1e-3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("t,l2_omega,")
    assert len(lines) == 1 + 6  # steps 0..5
    assert "completed 5 steps" in err


def test_series_every_thins_output(capsys):
    code, out, _ = run_cli(
        capsys, "tg-longrun", "--n", "16", "--dt", "0.01",
        "--t-final", "0.1", "--series-every", "5")
    assert code == 0
    lines = out.strip().split("\n")
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    np.testing.assert_allclose(ts, [0.0, 0.05, 0.1], atol=1e-12)


def test_blowup_exit_code(capsys):
    # the coarse step at this resolution is advectively unstable
    code, _, err = run_cli(
        capsys, "tg-longrun", "--n", "64", "--dt", "0.02",
        "--t-final", "1.0")
    assert code == 1
    assert "blew up" in err


def test_shear_layer_snapshots(tmp_path, capsys):
    snap_dir = tmp_path / "snaps"
    code, _, err = run_cli(
        capsys, "shear-layer", "--case", "thick", "--n", "32",
        "--rho", "10", "--dt", "0.01", "--t-final", "0.05",
        "--series", str(tmp_path / "series.csv"),
        "--snapshot-every", "5", "--snapshot-dir", str(snap_dir),
        "--snapshot-format", "both")
    assert code == 0
    names = sorted(os.listdir(snap_dir))
    assert names == ["shear-thick_000000.pgm", "shear-thick_000000.raw",
                     "shear-thick_000005.pgm", "shear-thick_000005.raw"]
    header = (tmp_path / "series.csv").read_text().split("\n")[0]
    assert header.startswith("t,l2_omega,")


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 16\ndt = 0.01\nt-final = 0.05  # five steps\nnu=1e-3\n")
    code, out, _ = run_cli(capsys, "tg-longrun", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 6


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=16\ndt=0.01\nt_final=0.05\n")
    code, out, _ = run_cli(capsys, "tg-longrun", "--config", str(cfg),
                           "--dt", "0.025")
    assert code == 0
    # 0.05 / 0.025 = 2 steps -> 3 records
    assert len(out.strip().split("\n")) == 1 + 3


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=16\nwibble=3\n")
    code, _, err = run_cli(capsys, "tg-longrun", "--config", str(cfg))
    assert code == 2
    assert "wibble" in err


def test_bad_config_value_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dt=fast\n")
    code, _, err = run_cli(capsys, "tg-longrun", "--config", str(cfg))
    assert code == 2
    assert "dt" in err


def test_bad_scheme_in_config_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scheme=rk4\n")
    code, _, err = run_cli(capsys, "tg-longrun", "--config", str(cfg))
    assert code == 2


def test_missing_config_file_rejected(capsys):
    code, _, err = run_cli(capsys, "tg-longrun", "--config", "/no/such/file")
    assert code == 2


def test_telescope_output(capsys):
    code, out, _ = run_cli(capsys, "telescope", "--trials", "100")
    assert code == 0
    lines = out.strip().split("\n")
    values = {}
    for line in lines:
        key, _, val = line.partition(" = ")
        values[key.split(" (")[0]] = val
    alphas = [float(values[f"alpha_{i}"]) for i in range(1, 11)]
    assert alphas[0] > 0
    assert abs(sum(alphas[6:10])) < 1e-12
    assert float(values["solver_residual"]) < 1e-12
    assert int(values["distinct_solutions"]) >= 1


def test_telescope_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "telescope", "--trials", "50")
    _, second, _ = run_cli(capsys, "telescope", "--trials", "50")
    assert first == second


def test_check_subcommand(capsys):
    code, out, err = run_cli(capsys, "check")
    assert code == 0
    lines = [line for line in out.strip().split("\n") if line]
    assert lines, "check printed nothing"
    assert all(line.startswith("PASS") for line in lines)
    assert "all checks passed" in err


@pytest.mark.parametrize("argv, words", [
    (("--t-final", "nan"), "finite"),
    (("--t-final", "inf"), "finite"),
    (("--t-final", "1", "--dt", "0.3"), "whole number of steps"),
])
def test_bad_run_values_rejected_in_one_line(capsys, argv, words):
    code, _, err = run_cli(capsys, "tg-longrun", "--n", "16", *argv)
    assert code == 2
    assert err.count("\n") == 1 and words in err


def test_uncreatable_snapshot_dir_rejected_in_one_line(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    code, _, err = run_cli(
        capsys, "tg-longrun", "--n", "16", "--dt", "0.01", "--t-final",
        "0.05", "--snapshot-every", "1", "--snapshot-dir",
        str(blocker / "snaps"))
    assert code == 2
    assert err.count("\n") == 1 and str(blocker) in err


@pytest.mark.parametrize("argv, words", [
    (("tg-longrun", "--n", "0"), "n must be at least 1"),
    (("tg-longrun", "--n", "-4"), "n must be at least 1"),
    (("tg-convergence", "--n", "0"), "n must be at least 1"),
    (("tg-convergence", "--n", "-4"), "n must be at least 1"),
    (("shear-layer", "--n", "0"), "n must be at least 1"),
    (("shear-layer", "--n", "-4"), "n must be at least 1"),
    (("telescope", "--trials", "0"), "trials must be at least 1"),
    (("telescope", "--starts", "0"), "starts must be at least 1"),
    (("tg-longrun", "--n", "16", "--dt", "5e-324", "--t-final", "1"),
     "not a finite number of steps"),
    (("tg-convergence", "--n", "8", "--levels", "3", "--dt0", "0"),
     "dt must be positive"),
    (("tg-convergence", "--n", "8", "--levels", "3", "--dt0", "nan"),
     "dt must be finite"),
    (("tg-convergence", "--n", "8", "--levels", "3", "--dt0", "1e-320"),
     "not a finite number of steps"),
    (("telescope", "--seed", "-1", "--trials", "5"),
     "seed must be nonnegative"),
    (("shear-layer", "--n", "16", "--t-final", "0.0024", "--delta", "nan"),
     "delta must be finite"),
    (("shear-layer", "--n", "16", "--t-final", "0.0024", "--delta", "inf"),
     "delta must be finite"),
    (("shear-layer", "--n", "16", "--t-final", "0.0024", "--rho", "inf"),
     "rho must be finite"),
])
def test_bad_sizes_and_counts_rejected_in_one_line(capsys, argv, words):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.count("\n") == 1 and words in err


def test_unwritable_convergence_output_rejected_before_the_study(
        tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the study ran before the output was opened")

    monkeypatch.setattr("vorspec.cli.convergence_study", never)
    code, _, err = run_cli(capsys, "tg-convergence", "--n", "8", "--output",
                           str(tmp_path / "missing" / "orders.csv"))
    assert code == 2
    assert err.count("\n") == 1 and "missing" in err
