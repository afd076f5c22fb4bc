"""Command-line interface: exit codes, config precedence, output wiring."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import vorspec
from vorspec import ConfigError
from vorspec.cli import _COMMANDS, _resolve, build_parser, cli_main


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


@pytest.mark.parametrize("delta", ["1e150"])
def test_overflowing_run_exits_1_in_one_line(capsys, delta):
    code, _, err = run_cli(capsys, "shear-layer", "--delta", delta,
                           "--n", "8", "--t-final", "0.0016")
    assert code == 1
    assert err.count("\n") == 1 and "blew up" in err


def test_overflowing_initial_vorticity_exits_2_before_any_output(
        tmp_path, capsys):
    """An initial vorticity whose L2 norm overflows is a bad input, refused
    before the series file is opened or the snapshot directory made."""
    series, snaps = tmp_path / "series.csv", tmp_path / "snaps"
    series.write_text("kept\n")
    code, out, err = run_cli(
        capsys, "shear-layer", "--delta", "1e300", "--n", "8",
        "--t-final", "0.0016", "--series", str(series),
        "--snapshot-every", "1", "--snapshot-dir", str(snaps))
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1 and "no finite L2 norm" in err
    assert series.read_text() == "kept\n"
    assert not snaps.exists()


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


def test_shear_layer_delta_defaults_to_the_case(capsys, monkeypatch):
    """Without --delta a shear layer starts from its case's own delta, as
    it takes the case's rho, nu, N and dt."""
    spec = vorspec.ShearLayerSpec(rho=30.0, delta=0.1, nu=1e-4)
    monkeypatch.setitem(vorspec.SHEAR_LAYER_CASES, "thick", (spec, 16, 8e-4))
    seen, init = [], vorspec.cli.shear_layer_init

    def recording(grid, case_spec):
        seen.append((grid.n, case_spec))
        return init(grid, case_spec)

    monkeypatch.setattr("vorspec.cli.shear_layer_init", recording)
    code, _, _ = run_cli(capsys, "shear-layer", "--t-final", "0.0024")
    assert code == 0
    assert seen == [(16, spec)]


def test_tg_convergence_defaults_are_the_acceptance_ladder():
    """--dt0 and --levels default to the ladder they halve down to."""
    opts = _resolve(build_parser().parse_args(["tg-convergence"]),
                    _COMMANDS["tg-convergence"][1])
    dts = [opts.dt0 * 2.0**-i for i in range(opts.levels)]
    assert dts == list(vorspec.TG_DT_LADDER)


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


def test_config_line_without_equals_rejected_in_one_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=16\ndt 0.01\n")
    code, out, err = run_cli(capsys, "tg-longrun", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert f"{cfg}:2: expected key=value, got 'dt 0.01'" in err


@pytest.mark.parametrize("line, body", [("=3", "=3"), (" = 3", "= 3")])
def test_config_line_with_an_empty_key_rejected_in_one_line(tmp_path, capsys,
                                                             line, body):
    """A line with nothing before its '=' is refused with its line number,
    not reported as an unknown key with no name."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"n=16\n{line}\n")
    code, out, err = run_cli(capsys, "tg-longrun", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert f"{cfg}:2: expected key=value, got {body!r}" in err


def test_config_file_with_a_byte_order_mark_is_read(tmp_path, capsys):
    """A file saved with a UTF-8 byte order mark reads as one without."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n=16\ndt=0.01\nt-final=0.05\nnu=1e-3\n",
                   encoding="utf-8-sig")
    assert cfg.read_bytes().startswith(b"\xef\xbb\xbf")
    code, out, _ = run_cli(capsys, "tg-longrun", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + 6


@pytest.mark.parametrize("text, key, lines", [
    ("n=8\nn=16\n", "n", (1, 2)),
    ("snapshot-every=2\ndt=0.01\nsnapshot_every = 3\n", "snapshot_every",
     (1, 3)),
])
def test_config_key_given_twice_rejected(tmp_path, capsys, text, key, lines):
    """A key given twice, under either spelling, is refused in one line
    that names it and both its lines, before any run."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out, err = run_cli(capsys, "tg-longrun", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert (f"{cfg}: config key {key} given twice, on lines {lines[0]} "
            f"and {lines[1]}") in err


def test_refused_allocation_reported_in_one_line(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 128. TiB for an array")

    monkeypatch.setattr("vorspec.cli.Grid", refuse)
    code, out, err = run_cli(capsys, "tg-longrun", "--n", "16", "--dt",
                             "0.01", "--t-final", "0.05")
    assert (code, out) == (2, "")
    assert err == ("vorspec: out of memory: Unable to allocate 128. TiB "
                   "for an array\n")


def test_check_reads_its_config_file(tmp_path, capsys):
    """check takes no options, so an unreadable file or any key is an
    error in one line, as for every other subcommand."""
    code, out, err = run_cli(capsys, "check", "--config", "/no/such/file")
    assert (code, out) == (2, "")
    assert "cannot read config file" in err and err.count("\n") == 1
    cfg = tmp_path / "check.cfg"
    cfg.write_text("# comments and blank lines are fine\n\nn=16\n")
    code, out, err = run_cli(capsys, "check", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert "unknown config keys: n" in err and err.count("\n") == 1


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


def test_telescope_has_no_search_flags(capsys):
    for flag in ("--starts", "--seed"):
        code, _, err = run_cli(capsys, "telescope", flag, "8")
        assert code == 2
        assert f"unrecognized arguments: {flag} 8" in err


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
    (("telescope", "--trials", "-3"), "trials must be at least 1"),
    (("tg-longrun", "--n", "16", "--dt", "5e-324", "--t-final", "1"),
     "not a finite number of steps"),
    (("tg-convergence", "--n", "8", "--levels", "3", "--dt0", "0"),
     "dt must be positive"),
    (("tg-convergence", "--n", "8", "--levels", "3", "--dt0", "nan"),
     "dt must be finite"),
    (("tg-convergence", "--n", "8", "--levels", "3", "--dt0", "1e-320"),
     "not a finite number of steps"),
    (("tg-convergence", "--n", "8", "--levels", "2"),
     "a convergence study needs at least 3 step sizes"),
    (("shear-layer", "--n", "16", "--t-final", "0.0024", "--delta", "nan"),
     "delta must be finite"),
    (("shear-layer", "--n", "16", "--t-final", "0.0024", "--delta", "inf"),
     "delta must be finite"),
    (("shear-layer", "--n", "16", "--t-final", "0.0024", "--rho", "inf"),
     "rho must be finite"),
    (("shear-layer", "--n", "16", "--t-final", "0.0024", "--delta", "-0.1"),
     "delta must be nonnegative"),
    (("shear-layer", "--n", "16", "--t-final", "0.0024", "--nu", "0"),
     "nu must be positive"),
    (("shear-layer", "--n", "16", "--t-final", "0.0024", "--nu", "-0.0001"),
     "nu must be positive"),
    (("tg-longrun", "--n", "16", "--t-final", "0.05", "--series-every", "0"),
     "series_every must be a positive integer"),
    (("tg-longrun", "--n", "16", "--t-final", "0.05", "--snapshot-every",
      "-1"), "snapshot_every must be nonnegative"),
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


@pytest.mark.parametrize("argv", [
    ("--dt0", "nan"),
    ("--dt0", "0.02", "--t-final", "0.02"),  # BDF3 startup needs 2 steps
])
def test_config_error_keeps_existing_convergence_output(tmp_path, capsys,
                                                        argv):
    out_file = tmp_path / "orders.csv"
    out_file.write_bytes(b"old data\n")
    code, _, err = run_cli(capsys, "tg-convergence", "--n", "8", *argv,
                           "--output", str(out_file))
    assert code == 2 and err.count("\n") == 1
    assert out_file.read_bytes() == b"old data\n"


def test_config_file_that_is_not_utf8_rejected_in_one_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"n=\xff\xfe\n")
    code, out, err = run_cli(capsys, "tg-longrun", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert f"cannot read config file {cfg}" in err


def test_module_runs_as_a_script():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(vorspec.__file__).parents[1]),
         os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "vorspec.cli", "--version"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stdout == f"vorspec {vorspec.__version__}\n"


OPTIONS = [(command, option) for command, (_, table, _) in _COMMANDS.items()
           for option in table]


@pytest.mark.parametrize("command, option", OPTIONS,
                         ids=[f"{c}-{o[0]}" for c, o in OPTIONS])
def test_config_key_resolves_like_its_flag(tmp_path, command, option):
    name, kind, default = option
    table = _COMMANDS[command][1]
    flag = "--" + name.replace("_", "-")
    if kind is bool:
        argv, raw = [flag], "yes"
    else:
        raw = kind[-1] if isinstance(kind, tuple) else \
            {int: "7", float: "0.25", str: "out.csv"}[kind]
        argv = [flag, raw]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag[2:]} = {raw}\n")
    parser = build_parser()
    by_flag = _resolve(parser.parse_args([command, *argv]), table)
    by_file = _resolve(parser.parse_args([command, "--config", str(cfg)]),
                       table)
    assert by_flag == by_file
    assert getattr(by_file, name) != default


CHOICES = [(command, option[0]) for command, option in OPTIONS
           if isinstance(option[1], tuple)]


@pytest.mark.parametrize("command, name", CHOICES)
def test_out_of_choice_value_rejected_on_both_paths(tmp_path, capsys,
                                                    command, name):
    flag = "--" + name.replace("_", "-")
    code, out, err = run_cli(capsys, command, flag, "bogus")
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and flag in err and "bogus" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name}=bogus\n")
    code, out, err = run_cli(capsys, command, "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and f"{name}='bogus'" in err


@pytest.mark.parametrize("argv", [
    ("tg-longrun", "--dt", "0.01", "--t-final", "0.01"),
    ("tg-longrun", "--dt", "0.3", "--t-final", "1"),
    ("shear-layer", "--dt", "0.01", "--t-final", "0.01"),
    ("shear-layer", "--dt", "nan"),
    ("tg-convergence", "--dt0", "0.02", "--t-final", "0.02"),
    ("tg-convergence", "--dt0", "nan"),
])
def test_config_error_comes_before_any_grid_or_output(tmp_path, capsys,
                                                      monkeypatch, argv):
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built before the config was checked")

    monkeypatch.setattr("vorspec.cli.Grid", no_grid)
    monkeypatch.setattr("vorspec.bench.Grid", no_grid)
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"old data\n")
    snaps = tmp_path / "snaps"
    if argv[0] == "tg-convergence":
        outputs = ("--output", str(kept))
    else:
        outputs = ("--series", str(kept), "--snapshot-every", "1",
                   "--snapshot-dir", str(snaps))
    code, out, err = run_cli(capsys, *argv, *outputs)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert kept.read_bytes() == b"old data\n"
    assert not snaps.exists()


@pytest.mark.parametrize("argv, words", [
    (("shear-layer", "--nu", "-1e-4"), "nu must be positive, got -0.0001"),
    (("shear-layer", "--nu", "-1E-3"), "nu must be positive, got -0.001"),
    (("shear-layer", "--dt", "-1e-4"), "dt must be positive, got -0.0001"),
    (("shear-layer", "--dt", "-1E-3"), "dt must be positive, got -0.001"),
    (("tg-longrun", "--nu", "-1e-4"), "nu must be positive, got -0.0001"),
    (("tg-longrun", "--dt", "-1E-3"), "dt must be positive, got -0.001"),
    (("tg-longrun", "--dt", "-inf"), "dt must be finite, got -inf"),
])
def test_negative_exponent_values_read_as_values(capsys, argv, words):
    """A negative number in exponent form, or -inf, is the option's value,
    so the run's own check reports it, not argparse."""
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and words in err


def test_telescope_trials_bounded(tmp_path, capsys, monkeypatch):
    """A trial count above the bound is refused in one line before any
    trial runs, from a flag or a config file; the bound itself runs."""
    from vorspec import cli

    def never(*args, **kwargs):
        raise AssertionError("trials ran past the bound")

    monkeypatch.setattr("vorspec.cli.verify_telescope", never)
    cfg = tmp_path / "telescope.cfg"
    cfg.write_text(f"trials = {cli._MAX_TRIALS + 1}\n")
    for argv in (("--trials", "100000000000"), ("--config", str(cfg))):
        code, out, err = run_cli(capsys, "telescope", *argv)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert "trials must be at most 100000000" in err
    seen = []
    monkeypatch.setattr("vorspec.cli.verify_telescope",
                        lambda coeffs, trials: seen.append(trials) or 0.0)
    code, _, _ = run_cli(capsys, "telescope", "--trials", str(10**8))
    assert code == 0 and seen == [10**8]


def test_convergence_study_length_bounded(tmp_path, capsys, monkeypatch):
    """A study whose rungs sum to more steps than the bound is refused in
    one line before any run or output, from a flag or a config file; one
    just under the bound runs."""
    from vorspec import cli

    def never(*args, **kwargs):
        raise AssertionError("the study ran past the bound")

    monkeypatch.setattr("vorspec.cli.convergence_study", never)
    out = tmp_path / "orders.csv"
    cfg = tmp_path / "study.cfg"
    cfg.write_text("levels = 60\n")
    # 10^5 (2^L - 1) steps: 700000 at L = 3, 1500000 at L = 4
    small = ("--t-final", "1", "--dt0", "1e-5")
    for argv in (("--levels", "60"), ("--config", str(cfg)),
                 small + ("--levels", "4")):
        code, stdout, err = run_cli(capsys, "tg-convergence", "--output",
                                    str(out), *argv)
        assert (code, stdout) == (2, "")
        assert err.count("\n") == 1
        assert f"at most {cli._MAX_STUDY_STEPS} steps" in err
        assert not out.exists()
    assert "takes 1500000 over its 4 levels" in err
    seen = []
    monkeypatch.setattr("vorspec.cli.convergence_study",
                        lambda n, nu, t_final, dts, **kw: seen.append(dts)
                        or [])
    code, _, _ = run_cli(capsys, "tg-convergence", "--output", str(out),
                         *small, "--levels", "3")
    assert code == 0 and seen == [[1e-5, 5e-6, 2.5e-6]]


def test_convergence_levels_bounded_before_any_step_size(capsys, monkeypatch):
    """More levels than any study within the step bound can have are
    refused in one line that names --levels, before the step sizes are
    listed; the bound is exact: L levels take at least 2^L - 1 steps."""
    from vorspec import cli

    assert 2**cli._MAX_LEVELS - 1 <= cli._MAX_STUDY_STEPS
    assert 2**(cli._MAX_LEVELS + 1) - 1 > cli._MAX_STUDY_STEPS
    listed = []

    def stop(n, nu, t_final, dts, *args):  # no rung is checked or run
        listed.append(len(dts))
        raise ConfigError("stopped after listing the step sizes")

    monkeypatch.setattr("vorspec.cli._rung_configs", stop)
    # a list of 10^6 step sizes holds about 32 MB; 10^18 is never listed
    for levels in (cli._MAX_LEVELS + 1, 10**6, 10**18):
        tracemalloc.start()
        try:
            code, stdout, err = run_cli(capsys, "tg-convergence", "--levels",
                                        str(levels))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        assert (code, stdout) == (2, "")
        assert err.count("\n") == 1
        assert f"--levels must be at most {cli._MAX_LEVELS}" in err
        assert str(levels) in err
    assert listed == []
    code, _, err = run_cli(capsys, "tg-convergence", "--levels",
                           str(cli._MAX_LEVELS))
    assert code == 2 and "stopped after listing" in err
    assert listed == [cli._MAX_LEVELS]
