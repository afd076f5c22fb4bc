"""Property tests over configuration parsing, the whole command line and
run()'s callbacks: any drawn value is either accepted as a consistent
configuration or rejected with ConfigError, any drawn command line keeps
the CLI's exit contract, and any drawn bad forcing value or raising
observer or sink ends a run in an exception that holds none of its
workspace.

No drawn value ever sizes a Grid, since a drawn grid size could ask for
gigabytes: the command-line test replaces everything that computes with
stubs, and the callback test's runs are fixed at N = 64.
"""

import contextlib
import functools
import gc
import io
import itertools
import math
import tempfile
import tracemalloc
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vorspec import (ConfigError, Grid, RunConfig, ScalarField, SchemeId,
                     ShearLayerSpec, VorspecError, cli, run,
                     shear_layer_init)
from vorspec.cli import _COMMANDS, _coerce

from conftest import KEPT_PLANES, filled

ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True,
                      allow_subnormal=True)


@settings(max_examples=500, deadline=None)
@given(n=st.integers(-8, 64), dt=ANY_FLOAT, nu=ANY_FLOAT, t_final=ANY_FLOAT)
def test_runconfig_accepts_consistent_or_raises_config_error(n, dt, nu,
                                                              t_final):
    try:
        cfg = RunConfig(n=n, dt=dt, nu=nu, t_final=t_final)
    except ConfigError:
        return
    assert cfg.n_steps >= 1
    assert math.isclose(cfg.n_steps * cfg.dt, t_final, rel_tol=1e-9)


TAGS = {
    int: lambda v: type(v) is int,
    float: lambda v: type(v) is float,
    bool: lambda v: type(v) is bool,
    str: lambda v: type(v) is str,
}
# every choice tuple of the option tables accepts exactly its members
TAGS.update({kind: kind.__contains__ for _, table, _ in _COMMANDS.values()
             for _, kind, _ in table if isinstance(kind, tuple)})

RAW = st.one_of(
    st.text(),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["true", "Off", "bdf3", "thick", "both", " 7 ", "1_0"]),
)


@settings(max_examples=300, deadline=None)
@given(raw=RAW, tag=st.sampled_from(list(TAGS)))
def test_coerce_returns_tagged_type_or_raises_config_error(raw, tag):
    try:
        value = _coerce(raw, tag, "key")
    except ConfigError:
        return
    assert TAGS[tag](value)


# --- the whole command line --------------------------------------------------

# the documented caps: a study runs at most 10^6 steps over its rungs, and
# `vorspec telescope` at most 10^8 trials
STUDY_STEPS_CAP = 10**6
TRIALS_CAP = 10**8
# traced peak of one rejected draw, parser and config file included:
# at most 80 kB over 600 draws; listing 10^6 step sizes alone takes 32 MB
REJECTED_PEAK_BOUND = 256 * 1024

# numbers as float() reads them: huge and tiny, exponent forms, signed,
# with digit-group underscores or a trailing blank
INTEGERS = st.one_of(st.sampled_from(["0", "-0", "-1", "3", "19", "20",
                                      "1000000", "10" * 20, "-1_000",
                                      "-7\t", "1_0 "]),
                     st.integers(-10**40, 10**40).map(str))
NUMBERS = st.one_of(
    INTEGERS,
    st.sampled_from(["1e6", "1e9", "1e18", "-1e5", "-2.5E-3", "1e-400",
                     "1e308", "1e999", "nan", "-nan", "inf", "-inf",
                     "-Infinity", "-1_000.5", "-2.5e-3\t", "-1 ",
                     "-0.5\n"]),
    st.floats().map(repr),
    st.floats().map(lambda x: repr(x) + "\t"),
)
# text: blanks, Unicode digits and any UTF-8 character
TEXT = st.one_of(st.sampled_from(["", " ", "1_000", "0x10", "٣",
                                  "1 ", "é", "-x", "--"]),
                 st.text(st.characters(codec="utf-8"), max_size=6))
# path options get relative names only, inside the draw's own directory
PATHS = st.sampled_from(["", "-", "out.csv", "sub/dir", "missing/out.csv",
                         "é.csv"])


@st.composite
def command_draws(draw):
    """(command, [(option, kind, value, is_number)]) over _COMMANDS."""
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    opts = []
    for opt, kind, _ in _COMMANDS[name][1]:
        if draw(st.integers(0, 2)):  # an option is given in one third
            continue
        if kind is str:
            value = draw(PATHS)
        else:
            fitting = (st.sampled_from(kind) if isinstance(kind, tuple)
                       else st.sampled_from(["true", "off"]) if kind is bool
                       else INTEGERS if kind is int else NUMBERS)
            # mostly values of the option's own kind, so that a draw gets
            # past the parser to the checks behind it
            value = draw(st.one_of(fitting, fitting, NUMBERS, TEXT))
        opts.append((opt, kind, value, _is_number_text(value)))
    return name, opts


def _draw_of(name, **values):
    """A draw of the given option values, as command_draws makes it."""
    kinds = {opt: kind for opt, kind, _ in _COMMANDS[name][1]}
    return name, [(opt, kinds[opt], value, _is_number_text(value))
                  for opt, value in values.items()]


def _is_number_text(value):
    """Whether float() reads value, so that it is a number to the CLI too,
    digit-group underscores, blanks and non-ASCII digits included."""
    try:
        float(value)
    except ValueError:
        return False
    return True


def _argv(name, opts, via_config):
    """The draw as flags, or as a config file read through --config. A
    number is its own argument after the flag, as a user types it; other
    text beginning with '-' is joined to the flag with '='."""
    if via_config:
        with open("draw.cfg", "w", encoding="utf-8") as fh:
            for opt, _, value, _ in opts:
                fh.write(f"{opt.replace('_', '-')} = {value}\n")
        return [name, "--config", "draw.cfg"]
    argv = [name]
    for opt, kind, value, number in opts:
        flag = "--" + opt.replace("_", "-")
        if kind is bool:
            argv.append(flag)
        elif value.startswith("-") and not number:
            argv.append(f"{flag}={value}")
        else:
            argv += [flag, value]
    return argv


def _stubs():
    """Stand-ins for everything that computes: no draw builds a grid of its
    size, runs a step or checks a trial, and none gets past a cap."""
    def fake_run(omega0, cfg, **kwargs):
        return SimpleNamespace(steps=cfg.n_steps, elapsed_seconds=0.0,
                               seconds_per_step=0.0,
                               extrema={"max_omega": (0.0, 0.0),
                                        "div_error": (0.0, 0.0)})

    def fake_study(n, nu, t_final, dts, **kwargs):
        steps = sum(RunConfig(n=n, dt=dt, nu=nu, t_final=t_final).n_steps
                    for dt in dts)
        assert steps <= STUDY_STEPS_CAP, steps
        return []

    def fake_verify(coeffs, trials):
        assert 1 <= trials <= TRIALS_CAP, trials
        return 0.0

    return mock.patch.multiple(
        cli, run=fake_run, convergence_study=fake_study,
        verify_telescope=fake_verify, run_checks=lambda stream: True,
        Grid=lambda n: Grid(4))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(draw=command_draws(), via_config=st.booleans())
# inputs the command line once mishandled, one at a time: a study of 10^6
# step sizes, a study past the step cap, negative numbers in exponent form
# and with digit-group underscores, and the value "--", which argparse
# reads as an empty list
@example(draw=_draw_of("tg-convergence", levels="1000000"), via_config=False)
@example(draw=_draw_of("tg-convergence", t_final="1e9"), via_config=False)
@example(draw=_draw_of("tg-longrun", dt="-1e5"), via_config=False)
@example(draw=_draw_of("tg-longrun", dt="-1_000"), via_config=False)
@example(draw=_draw_of("shear-layer", t_final="--"), via_config=False)
def test_cli_exit_contract_over_hostile_draws(draw, via_config):
    """Any draw from the option tables, as flags or as a config file, ends
    in status 0, 1 or 2 without an exception escaping cli_main; status 2
    prints exactly one stderr line, raises no warning, and its traced peak
    stays under REJECTED_PEAK_BOUND; every number drawn reaches its option
    as a value."""
    name, opts = draw
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), \
            _stubs(), warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        argv = _argv(name, opts, via_config)
        tracemalloc.start()
        try:
            code = cli.cli_main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    text = err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    assert "expected one argument" not in text, (argv, text)
    if code == 2:
        assert text.count("\n") == 1 and text.endswith("\n"), (argv, text)
        assert caught == [], (argv, [str(w.message) for w in caught])
        assert peak < REJECTED_PEAK_BOUND, (argv, peak)


# --- run()'s callbacks ---------------------------------------------------------

RUN_N, RUN_STEPS, RUN_DT = 64, 8, 8e-4
RUN_OMEGA0 = shear_layer_init(Grid(RUN_N), ShearLayerSpec(rho=30.0,
                                                          delta=0.05,
                                                          nu=1e-4))

# what a forcing returns once it turns bad, and before that
BAD_FORCINGS = {"wrong grid": ScalarField.zeros(Grid(8)),
                "mean": filled(RUN_N, 1.0), "nan": filled(RUN_N, np.nan),
                "inf": filled(RUN_N, np.inf),
                "array": np.zeros((RUN_N, RUN_N))}
GOOD_FORCING = filled(RUN_N, 0.0)


class _Stop(Exception):
    """What a drawn observer or sink raises."""


@functools.cache
def _warm():
    """numpy's one-time buffers, made before any traced run."""
    run(RUN_OMEGA0, RunConfig(n=RUN_N, dt=RUN_DT, nu=1e-4,
                              t_final=3 * RUN_DT))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(culprit=st.sampled_from(sorted(BAD_FORCINGS) + ["observer", "sink"]),
       at=st.integers(0, RUN_STEPS - 1), scheme=st.sampled_from(SchemeId))
def test_a_bad_callback_ends_a_run_in_an_error_holding_no_workspace(
        culprit, at, scheme):
    """A forcing that turns bad at its call number at (a field on another
    grid, with a mean, with nan or inf values, or a plain array), or an
    observer or sink that raises at its call number at, ends run() in a
    VorspecError or in the exception it raised; kept with its traceback,
    that exception holds under KEPT_PLANES planes (N = 64, traced from
    just before run() and read after gc.collect())."""
    _warm()
    calls = itertools.count()
    forcing = culprit in BAD_FORCINGS

    def callback(*args):
        if next(calls) < at:
            return GOOD_FORCING if forcing else None
        if forcing:
            return BAD_FORCINGS[culprit]
        raise _Stop

    role = {"observer": "observer", "sink": "series_sink"}.get(culprit,
                                                               "forcing")
    cfg = RunConfig(n=RUN_N, dt=RUN_DT, nu=1e-4,
                    t_final=RUN_STEPS * RUN_DT, scheme=scheme)
    kept = None
    tracemalloc.start()
    try:
        try:
            run(RUN_OMEGA0, cfg, **{role: callback})
        except (VorspecError, _Stop) as exc:
            kept = exc
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] / (RUN_N * (RUN_N // 2 + 1)
                                                     * 16)
    finally:
        tracemalloc.stop()
    assert isinstance(kept, VorspecError if forcing else _Stop), kept
    assert held < KEPT_PLANES, held
