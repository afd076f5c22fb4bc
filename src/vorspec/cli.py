"""Command-line front end.

Subcommands:

* tg-convergence: temporal convergence table on the decaying vortex
* tg-longrun: long Taylor-Green run streaming the diagnostics series
* shear-layer: double shear layer benchmark (thick or thin case)
* telescope: print and verify the stencil decomposition coefficients
* check: run the library's invariant suite

Every subcommand accepts --config FILE, a plain key=value file (one pair
per line, # starts a comment, keys match the long flag names with - or _).
Explicit flags override config values; config values override built-in
defaults. Exit status: 0 on success, 1 on blow-up or a failed check,
2 on a usage or configuration error or an output file that cannot be
written, reported in one line.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Optional

from . import __version__
from .bench import (SHEAR_LAYER_CASES, ShearLayerSpec, TaylorGreenSpec,
                    convergence_csv, convergence_study, shear_layer_init,
                    taylor_green_exact)
from .checks import run_checks
from .diagnostics import get_telescope_coefficients, verify_telescope
from .errors import BlowUpError, ConfigError
from .integrators import RunConfig, SchemeId, run
from .output import CsvSeriesWriter, format_float, write_pgm, write_raw
from .spectral import Grid

__all__ = ["cli_main", "main"]

_SCHEMES = {"euler": SchemeId.IMEX_EULER,
            "bdf2": SchemeId.IMEX_BDF2,
            "bdf3": SchemeId.IMEX_BDF3}

# option tables: (name, type tag, default). A None default means the value
# is filled in later from the benchmark case presets.
_TG_CONV_OPTS = (
    ("n", int, 64),
    ("nu", float, 1e-3),
    ("t_final", float, 1.0),
    ("dt0", float, 0.02),
    ("levels", int, 5),
    ("scheme", "scheme", "bdf3"),
    ("dealias", bool, False),
    ("output", str, ""),
)

_RUN_OPTS = (
    ("series", str, ""),
    ("snapshot_every", int, 0),
    ("snapshot_dir", str, "."),
    ("snapshot_format", "snapfmt", "pgm"),
    ("dealias", bool, False),
)

_TG_LONG_OPTS = (
    ("n", int, 64),
    ("nu", float, 1e-3),
    ("dt", float, 0.01),
    ("t_final", float, 10.0),
    ("scheme", "scheme", "bdf3"),
    ("series_every", int, 1),
) + _RUN_OPTS

_SHEAR_OPTS = (
    ("case", "case", "thick"),
    ("n", int, None),
    ("nu", float, None),
    ("dt", float, None),
    ("t_final", float, 1.2),
    ("rho", float, None),
    ("delta", float, 0.05),
    ("scheme", "scheme", "bdf3"),
    # thousands of steps per case; step 0 and the final step always emit
    ("series_every", int, 10),
) + _RUN_OPTS

_TELESCOPE_OPTS = (
    ("trials", int, 1000),
)

# options that count grid points or trials
_COUNTS = ("n", "trials")


def _add_options(sub: argparse.ArgumentParser, table):
    sub.add_argument("--config", metavar="FILE", default=None,
                     help="key=value file; flags given here override it")
    for name, tag, default in table:
        flag = "--" + name.replace("_", "-")
        shown = "case default" if default is None else repr(default)
        if tag is bool:
            sub.add_argument(flag, action="store_true", default=None,
                             help=f"(default {shown})")
        elif tag == "scheme":
            sub.add_argument(flag, choices=sorted(_SCHEMES), default=None,
                             help=f"time integrator (default {shown})")
        elif tag == "case":
            sub.add_argument(flag, choices=sorted(SHEAR_LAYER_CASES),
                             default=None, help=f"(default {shown})")
        elif tag == "snapfmt":
            sub.add_argument(flag, choices=("pgm", "raw", "both"),
                             default=None, help=f"(default {shown})")
        else:
            sub.add_argument(flag, type=tag, default=None,
                             help=f"(default {shown})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vorspec",
        description="pseudo-spectral 2-D incompressible flow solver "
                    "(vorticity form) with IMEX multistep time integration")
    parser.add_argument("--version", action="version",
                        version=f"vorspec {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = subs.add_parser("tg-convergence",
                        help="temporal convergence study on the decaying "
                             "vortex; writes a CSV table")
    _add_options(p, _TG_CONV_OPTS)

    p = subs.add_parser("tg-longrun",
                        help="long decaying-vortex run; streams the "
                             "diagnostics series as CSV")
    _add_options(p, _TG_LONG_OPTS)

    p = subs.add_parser("shear-layer",
                        help="double shear layer benchmark (thick or thin)")
    _add_options(p, _SHEAR_OPTS)

    p = subs.add_parser("telescope",
                        help="print the stencil decomposition coefficients "
                             "and verify the identity")
    _add_options(p, _TELESCOPE_OPTS)

    p = subs.add_parser("check", help="run the library invariant suite")
    _add_options(p, ())
    return parser


def _read_config(path: str) -> dict:
    """Parse a key=value file into a string-valued dict."""
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                if "=" not in body:
                    raise ConfigError(
                        f"{path}:{lineno}: expected key=value, got {body!r}")
                key, _, value = body.partition("=")
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    return out


def _coerce(raw: str, tag, name: str):
    try:
        if tag is bool:
            low = raw.lower()
            if low in ("1", "true", "yes", "on"):
                return True
            if low in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        if tag is int:
            return int(raw)
        if tag is float:
            return float(raw)
        if tag == "scheme" and raw not in _SCHEMES:
            raise ValueError(raw)
        if tag == "case" and raw not in SHEAR_LAYER_CASES:
            raise ValueError(raw)
        if tag == "snapfmt" and raw not in ("pgm", "raw", "both"):
            raise ValueError(raw)
        return raw
    except ValueError:
        raise ConfigError(f"config value {name}={raw!r} is not valid")


def _resolve(args: argparse.Namespace, table) -> argparse.Namespace:
    """Merge explicit flags, config file entries, and defaults (in that
    precedence order)."""
    config = _read_config(args.config) if args.config else {}
    out = {}
    for name, tag, default in table:
        value = getattr(args, name)
        raw = config.pop(name, None)  # consume even when a flag overrides it
        if value is None and raw is not None:
            value = _coerce(raw, tag, name)
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


def _run_with_series(omega0, cfg, opts, prefix: str) -> int:
    snap = None
    if opts.snapshot_every > 0:
        snap = _snapshot_sink(opts.snapshot_dir, prefix, opts.snapshot_format)
    with _series_stream(opts.series) as stream:
        writer = CsvSeriesWriter(stream)
        summary = run(omega0, cfg, series_sink=writer.write,
                      snapshot_sink=snap)
    lo, hi = summary.extrema["max_omega"]
    dlo, dhi = summary.extrema["div_error"]
    print(f"completed {summary.steps} steps in "
          f"{summary.elapsed_seconds:.2f} s "
          f"({1e3 * summary.seconds_per_step:.2f} ms/step); "
          f"max |omega| in [{lo:.6g}, {hi:.6g}], "
          f"max div_error {dhi:.3e}", file=sys.stderr)
    return 0


def _cmd_tg_convergence(opts) -> int:
    dts = [opts.dt0 * 2.0**-i for i in range(opts.levels)]
    # open the output first, so an unwritable path fails before the study
    with _series_stream(opts.output) as stream:
        rows = convergence_study(opts.n, opts.nu, opts.t_final, dts,
                                 scheme=_SCHEMES[opts.scheme],
                                 dealias=opts.dealias)
        stream.write(convergence_csv(rows))
    return 0


def _cmd_tg_longrun(opts) -> int:
    grid = Grid(opts.n)
    omega0 = taylor_green_exact(grid, TaylorGreenSpec(nu=opts.nu)).omega
    cfg = RunConfig(n=opts.n, dt=opts.dt, nu=opts.nu, t_final=opts.t_final,
                    scheme=_SCHEMES[opts.scheme],
                    series_every=opts.series_every,
                    snapshot_every=opts.snapshot_every,
                    dealias=opts.dealias)
    return _run_with_series(omega0, cfg, opts, "tg")


def _cmd_shear_layer(opts) -> int:
    base_spec, base_n, base_dt = SHEAR_LAYER_CASES[opts.case]
    spec = ShearLayerSpec(
        rho=base_spec.rho if opts.rho is None else opts.rho,
        delta=opts.delta,
        nu=base_spec.nu if opts.nu is None else opts.nu)
    n = base_n if opts.n is None else opts.n
    dt = base_dt if opts.dt is None else opts.dt
    omega0 = shear_layer_init(Grid(n), spec)
    cfg = RunConfig(n=n, dt=dt, nu=spec.nu, t_final=opts.t_final,
                    scheme=_SCHEMES[opts.scheme],
                    series_every=opts.series_every,
                    snapshot_every=opts.snapshot_every,
                    dealias=opts.dealias)
    return _run_with_series(omega0, cfg, opts, f"shear-{opts.case}")


def _cmd_telescope(opts) -> int:
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


def cli_main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed the usage message (or version text)
        return int(exc.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2

    try:
        if args.command == "tg-convergence":
            return _cmd_tg_convergence(_resolve(args, _TG_CONV_OPTS))
        if args.command == "tg-longrun":
            return _cmd_tg_longrun(_resolve(args, _TG_LONG_OPTS))
        if args.command == "shear-layer":
            return _cmd_shear_layer(_resolve(args, _SHEAR_OPTS))
        if args.command == "telescope":
            return _cmd_telescope(_resolve(args, _TELESCOPE_OPTS))
        if args.command == "check":
            return _cmd_check(_resolve(args, ()))
        parser.print_usage(sys.stderr)
        return 2
    except (ConfigError, OSError) as exc:
        # an OSError here comes from an output path the user named
        print(f"vorspec: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"vorspec: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli_main())
