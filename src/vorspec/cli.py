"""Command-line front end. Its subcommands, with their help texts and
options, are the rows of _COMMANDS; `vorspec --help` lists them.

Every subcommand accepts --config FILE, a UTF-8 key=value file (one pair
per line, # starts a comment, keys match the long flag names with - or _).
Explicit flags override config values; config values override built-in
defaults. A run's whole config is checked before any grid is built or any
output file or directory is opened. Exit status: 0 on success, 1 on
blow-up or a failed check, 2 on a usage or configuration error, an
output file that cannot be written or an array numpy cannot allocate,
reported in one line.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Optional

from . import __version__
from .bench import (SHEAR_LAYER_CASES, TG_DT_LADDER, ShearLayerSpec,
                    TaylorGreenSpec, _rung_configs, convergence_csv,
                    convergence_study, shear_layer_init, taylor_green_exact)
from .checks import run_checks
from .diagnostics import get_telescope_coefficients, verify_telescope
from .errors import BlowUpError, ConfigError
from .integrators import RunConfig, SchemeId, _check_norm, run
from .output import CsvSeriesWriter, format_float, write_pgm, write_raw
from .spectral import Grid

__all__ = ["cli_main", "main"]

_SCHEMES = {"euler": SchemeId.IMEX_EULER,
            "bdf2": SchemeId.IMEX_BDF2,
            "bdf3": SchemeId.IMEX_BDF3}

# option tables: (name, kind, default). kind is int, float, bool, str or a
# tuple of the accepted strings. A None default means the value is filled
# in later from the benchmark case presets.
_SCHEME_OPT = ("scheme", tuple(sorted(_SCHEMES)), "bdf3")
_HELP_PREFIX = {"scheme": "time integrator "}

_TG_CONV_OPTS = (
    ("n", int, 64),
    ("nu", float, 1e-3),
    ("t_final", float, 1.0),
    ("dt0", float, TG_DT_LADDER[0]),
    ("levels", int, len(TG_DT_LADDER)),
    _SCHEME_OPT,
    ("dealias", bool, False),
    ("output", str, ""),
)

_RUN_OPTS = (
    ("series", str, ""),
    ("snapshot_every", int, 0),
    ("snapshot_dir", str, "."),
    ("snapshot_format", ("pgm", "raw", "both"), "pgm"),
    ("dealias", bool, False),
)

_TG_LONG_OPTS = (
    ("n", int, 64),
    ("nu", float, 1e-3),
    ("dt", float, 0.01),
    ("t_final", float, 10.0),
    _SCHEME_OPT,
    ("series_every", int, 1),
) + _RUN_OPTS

_SHEAR_OPTS = (
    ("case", tuple(sorted(SHEAR_LAYER_CASES)), "thick"),
    ("n", int, None),
    ("nu", float, None),
    ("dt", float, None),
    ("t_final", float, 1.2),
    ("rho", float, None),
    ("delta", float, None),
    _SCHEME_OPT,
    # thousands of steps per case; step 0 and the final step always emit
    ("series_every", int, 10),
) + _RUN_OPTS

# options that count grid points or trials
_COUNTS = ("n", "trials")


# the most trials `vorspec telescope` runs: about 20 s at 0.19 s per 10^6
# trials, with no output until the end
_MAX_TRIALS = 10**8

# the most steps, summed over its rungs, that `vorspec tg-convergence` runs:
# about 10 min at N = 64 (0.6 ms a step), with no output until the end
_MAX_STUDY_STEPS = 10**6

# rung i of a study takes at least 2^i steps (t_final >= dt0), so L levels
# take at least 2^L - 1: more levels than this always exceed the bound
_MAX_LEVELS = (_MAX_STUDY_STEPS + 1).bit_length() - 1


class _NegativeNumber:
    """argparse's negative-number matcher, of which it calls only match:
    a word that begins with '-' and that float() reads, so Python's own
    number grammar decides (exponents, digit-group underscores, blanks)."""
    @staticmethod
    def match(word):
        try:
            float(word)
        except ValueError:
            return False
        return word.startswith("-")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are one line on stderr and that
    reads every negative number after an option as its value, so that
    RunConfig and the option checks report a bad one."""
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NegativeNumber

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _add_options(sub: argparse.ArgumentParser, table):
    sub.add_argument("--config", metavar="FILE", default=None,
                     help="key=value file; flags given here override it")
    for name, kind, default in table:
        shown = "case default" if default is None else repr(default)
        how = (dict(action="store_true") if kind is bool
               else dict(choices=kind) if isinstance(kind, tuple)
               else dict(type=kind))
        sub.add_argument("--" + name.replace("_", "-"), default=None,
                         help=f"{_HELP_PREFIX.get(name, '')}(default {shown})",
                         **how)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vorspec",
        description="pseudo-spectral 2-D incompressible flow solver "
                    "(vorticity form) with IMEX multistep time integration")
    parser.add_argument("--version", action="version",
                        version=f"vorspec {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (text, table, _) in _COMMANDS.items():
        _add_options(subs.add_parser(name, help=text), table)
    return parser


def _read_config(path: str) -> dict:
    """Parse a UTF-8 key=value file, with or without a byte order mark,
    into a string-valued dict; a key given twice is an error."""
    out, first = {}, {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, 1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                key, eq, value = body.partition("=")
                key = key.strip().replace("-", "_")
                if not (eq and key):
                    raise ConfigError(
                        f"{path}:{lineno}: expected key=value, got {body!r}")
                if key in first:
                    raise ConfigError(f"{path}: config key {key} given twice, "
                                      f"on lines {first[key]} and {lineno}")
                out[key], first[key] = value.strip(), lineno
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    return out


def _coerce(raw: str, kind, name: str):
    try:
        if kind is bool:
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if isinstance(kind, tuple):
            if raw not in kind:
                raise ValueError(raw)
            return raw
        return kind(raw)
    except ValueError:
        raise ConfigError(f"config value {name}={raw!r} is not valid")


def _resolve(args: argparse.Namespace, table) -> argparse.Namespace:
    """Merge explicit flags, config file entries, and defaults (in that
    precedence order)."""
    config = _read_config(args.config) if args.config else {}
    out = {}
    for name, kind, default in table:
        value = getattr(args, name)
        if value == []:  # argparse reads the value of --opt=-- as []
            raise ConfigError(f"--{name.replace('_', '-')} needs a value")
        raw = config.pop(name, None)  # consume even when a flag overrides it
        if value is None and raw is not None:
            value = _coerce(raw, kind, name)
        if value is None:
            value = default
        if name in _COUNTS and value is not None and value < 1:
            raise ConfigError(f"{name} must be at least 1, got {value}")
        out[name] = value
    if config:
        unknown = ", ".join(sorted(config))
        raise ConfigError(f"unknown config keys: {unknown}")
    return argparse.Namespace(**out)


@contextlib.contextmanager
def _series_stream(path: str):
    if path in ("", "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _snapshot_sink(directory: str, prefix: str, fmt: str):
    os.makedirs(directory, exist_ok=True)

    def sink(step, flow):
        base = os.path.join(directory, f"{prefix}_{step:06d}")
        if fmt in ("pgm", "both"):
            with open(base + ".pgm", "wb") as fh:
                write_pgm(fh, flow.omega)
        if fmt in ("raw", "both"):
            with open(base + ".raw", "wb") as fh:
                write_raw(fh, flow.omega)

    return sink


def _run_with_series(opts, prefix: str, initial, n: int, dt: float,
                     nu: float) -> int:
    """Check the run's config and initial(Grid(n)), then run from it with
    the series and snapshot outputs of opts."""
    cfg = RunConfig(n=n, dt=dt, nu=nu, t_final=opts.t_final,
                    scheme=_SCHEMES[opts.scheme],
                    series_every=opts.series_every,
                    snapshot_every=opts.snapshot_every,
                    dealias=opts.dealias)
    omega0 = initial(Grid(n))
    _check_norm(omega0, "initial vorticity")
    snap = None
    if opts.snapshot_every > 0:
        snap = _snapshot_sink(opts.snapshot_dir, prefix, opts.snapshot_format)
    with _series_stream(opts.series) as stream:
        writer = CsvSeriesWriter(stream)
        summary = run(omega0, cfg, series_sink=writer.write,
                      snapshot_sink=snap)
    lo, hi = summary.extrema["max_omega"]
    dhi = summary.extrema["div_error"][1]
    print(f"completed {summary.steps} steps in "
          f"{summary.elapsed_seconds:.2f} s "
          f"({1e3 * summary.seconds_per_step:.2f} ms/step); "
          f"max |omega| in [{lo:.6g}, {hi:.6g}], "
          f"max div_error {dhi:.3e}", file=sys.stderr)
    return 0


def _cmd_tg_convergence(opts) -> int:
    if opts.levels > _MAX_LEVELS:  # before L step sizes are listed
        raise ConfigError(f"--levels must be at most {_MAX_LEVELS}, got "
                          f"{opts.levels}: L levels take at least 2^L - 1 "
                          f"steps, and a study may take at most "
                          f"{_MAX_STUDY_STEPS} steps")
    dts = [opts.dt0 * 2.0**-i for i in range(opts.levels)]
    scheme = _SCHEMES[opts.scheme]
    # check every rung, then open the output: neither a bad config nor an
    # unwritable path costs a study or truncates an existing file
    cfgs = _rung_configs(opts.n, opts.nu, opts.t_final, dts, scheme,
                         opts.dealias)
    steps = sum(cfg.n_steps for cfg in cfgs)
    if steps > _MAX_STUDY_STEPS:
        raise ConfigError(f"a study may take at most {_MAX_STUDY_STEPS} "
                          f"steps; this one takes {steps} over its "
                          f"{opts.levels} levels")
    with _series_stream(opts.output) as stream:
        rows = convergence_study(opts.n, opts.nu, opts.t_final, dts,
                                 scheme=scheme, dealias=opts.dealias)
        stream.write(convergence_csv(rows))
    return 0


def _cmd_tg_longrun(opts) -> int:
    return _run_with_series(
        opts, "tg",
        lambda grid: taylor_green_exact(grid, TaylorGreenSpec(opts.nu)).omega,
        opts.n, opts.dt, opts.nu)


def _cmd_shear_layer(opts) -> int:
    base_spec, base_n, base_dt = SHEAR_LAYER_CASES[opts.case]
    spec = ShearLayerSpec(
        rho=base_spec.rho if opts.rho is None else opts.rho,
        delta=base_spec.delta if opts.delta is None else opts.delta,
        nu=base_spec.nu if opts.nu is None else opts.nu)
    return _run_with_series(
        opts, f"shear-{opts.case}", lambda grid: shear_layer_init(grid, spec),
        base_n if opts.n is None else opts.n,
        base_dt if opts.dt is None else opts.dt, spec.nu)


def _cmd_telescope(opts) -> int:
    if opts.trials > _MAX_TRIALS:
        raise ConfigError(f"trials must be at most {_MAX_TRIALS}, "
                          f"got {opts.trials}")
    coeffs = get_telescope_coefficients()
    res = verify_telescope(coeffs, trials=opts.trials)
    for i, a in enumerate(coeffs.alpha, start=1):
        print(f"alpha_{i} = {format_float(a)}")
    print(f"alpha1_star = {format_float(coeffs.alpha1_star)}")
    print(f"alpha2_star = {format_float(coeffs.alpha2_star)}")
    print(f"alpha3_star = {format_float(coeffs.alpha3_star)}")
    print(f"solver_residual = {format_float(coeffs.residual)}")
    print(f"sum_alpha_7_10 = {format_float(sum(coeffs.alpha[6:10]))}")
    print(f"distinct_solutions = {coeffs.distinct_solutions}")
    print(f"identity_residual ({opts.trials} trials) = {format_float(res)}")
    return 0 if res <= 1e-10 else 1


def _cmd_check(opts) -> int:
    ok = run_checks(stream=sys.stdout)
    print("all checks passed" if ok else "CHECK FAILURES", file=sys.stderr)
    return 0 if ok else 1


# the one list of subcommands: name -> (help, option table, handler)
_COMMANDS = {
    "tg-convergence": ("temporal convergence study on the decaying vortex; "
                       "writes a CSV table", _TG_CONV_OPTS,
                       _cmd_tg_convergence),
    "tg-longrun": ("long decaying-vortex run; streams the diagnostics "
                   "series as CSV", _TG_LONG_OPTS, _cmd_tg_longrun),
    "shear-layer": ("double shear layer benchmark (thick or thin)",
                    _SHEAR_OPTS, _cmd_shear_layer),
    "telescope": ("print the stencil decomposition coefficients and verify "
                  "the identity", (("trials", int, 1000),), _cmd_telescope),
    "check": ("run the library invariant suite", (), _cmd_check),
}


def cli_main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the usage error (or version text)
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2

    _, table, handler = _COMMANDS[args.command]
    try:
        return handler(_resolve(args, table))
    except (ConfigError, OSError) as exc:
        # an OSError here comes from an output path the user named
        print(f"vorspec: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"vorspec: out of memory: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"vorspec: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
