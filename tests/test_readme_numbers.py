"""The measured numbers of the README's "Criterion 1" and "Stability limit"
sections, recomputed on the decaying vortex (nu = 1e-3, T = 1).

A deterministic value must appear in those sections as formatted here.
Roundoff seeds the blow-up steps, the polluted errors and the polluted tail
fraction, so the README states each as a range: the test checks that the
README states the range and that the computed value lies in it. A
blow-up range must also allow the roundoff seed to be 100 times larger or
smaller, that is log 100 / log g steps either way at the measured growth g
per step.
"""

import math
import statistics
from pathlib import Path

import pytest

from vorspec import (BlowUpError, Grid, RunConfig, TaylorGreenSpec,
                     convergence_study, l2_norm, run, taylor_green_exact)
from vorspec import bench
from vorspec.bench import POLLUTED_TAIL_FRACTION, _tail_fraction

README = Path(__file__).resolve().parents[1] / "README.md"
NU = 1e-3

# (dt, dealias) -> the README's range of the N = 64 blow-up step
BLOWUP_RANGES = {(0.02, False): (30, 38), (0.01, False): (49, 63),
                 (0.02, True): (38, 48), (0.01, True): (87, 111)}
# the README's ranges of a polluted run's max-over-steps omega error and
# of the dt = 0.005 tail fraction; the clean rungs' tail stays below 1e-31
POLLUTED_ERROR = (0.1, 10.0)
POLLUTED_TAIL = (1e-3, 0.5)
CLEAN_TAIL_BOUND = 1e-31


@pytest.fixture(scope="module")
def sections():
    """The two sections as one string, with all whitespace runs as one
    space so that line wrapping does not matter."""
    text = README.read_text(encoding="utf-8")
    body = text[text.index("### Criterion 1"):text.index("## Large-scale")]
    return " ".join(body.split())


def _vortex_run(n, dt, dealias=False):
    """(final state of the vortex run, or the step it blew up at; the
    omega L2 error of every step it took)."""
    exact = taylor_green_exact(Grid(n), TaylorGreenSpec(nu=NU))
    cfg = RunConfig(n=n, dt=dt, nu=NU, t_final=1.0, dealias=dealias,
                    series_every=10**6)
    errors = []

    def observe(k, flow):
        decay = math.exp(-8.0 * NU * math.pi**2 * flow.time)
        errors.append(l2_norm(flow.omega - exact.omega * decay))

    try:
        return run(exact.omega, cfg, observer=observe).final_state, errors
    except BlowUpError as exc:
        return exc.step, errors


def _blowup(dt, dealias):
    """(blow-up step, growth per step) on N = 64: the growth is the median
    ratio of consecutive omega errors while the error lies between 1e-6
    and 1, where the growing modes are still linear."""
    step, errors = _vortex_run(64, dt, dealias)
    ratios = [b / a for a, b in zip(errors, errors[1:]) if 1e-6 < a < 1.0]
    return step, statistics.median(ratios)


def _sci(x):
    """x in the README's one-digit exponent form: 1e-3, not 1e-03."""
    mantissa, exponent = f"{x:.0e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def _theta(n, dt):
    """Advective number max|u| (2 pi / L) (N/2 - 1) dt of the vortex."""
    vel = taylor_green_exact(Grid(n), TaylorGreenSpec(nu=NU)).vel
    umax = max(abs(vel.x.physical).max(), abs(vel.y.physical).max())
    return umax * 2.0 * math.pi * (n // 2 - 1) * dt


def test_blowup_steps_lie_in_the_readme_ranges(sections):
    growth = {}
    for (dt, dealias), (lo, hi) in BLOWUP_RANGES.items():
        step, g = _blowup(dt, dealias)
        growth[dt, dealias] = g
        assert lo <= step <= hi, (dt, dealias, step)
        assert hi - lo >= 2.0 * math.log(100.0) / math.log(g), (dt, g)
    r = [f"{lo} to {hi}" for lo, hi in BLOWUP_RANGES.values()]
    for text in (f"grows by about {growth[0.02, False]:.1f}x and "
                 f"{growth[0.01, False]:.1f}x per step",
                 f"blow up within steps {r[0]} and {r[1]}",
                 f"blow-ups within steps {r[2]} and {r[3]}",
                 f"| blow-up within steps {r[0]} |",
                 f"| blow-up within steps {r[1]} |",
                 f"package's range of {r[1]}"):
        assert text in sections


@pytest.fixture(scope="module")
def ladder():
    """The omega rows of the N = 64 convergence table on the polluted rung
    and the two clean ones, and each rung's final vorticity."""
    finals = {}

    def keeping(omega0, cfg, **kwargs):
        summary = run(omega0, cfg, **kwargs)
        finals[cfg.dt] = summary.final_state.omega
        return summary

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "run", keeping)
        rows = convergence_study(64, NU, 1.0, (0.005, 0.0025, 0.00125))
    return {r.dt: r for r in rows if r.variable == "omega"}, finals


def test_ladder_numbers_match_the_readme(sections, ladder):
    rows, _ = ladder
    assert rows[0.005].status == "polluted"
    assert rows[0.0025].status == rows[0.00125].status == "ok"
    errors = [f"{rows[dt].err_linf_l2:.1e}" for dt in (0.0025, 0.00125)]
    order = f"{rows[0.00125].order_linf:.1f}"
    for text in (f"are {errors[0]}, {errors[1]},",
                 f"| clean, error {errors[0]}, pure",
                 f"| clean, error {errors[1]}, observed order {order} |"):
        assert text in sections
    for n, dt in ((8, 0.02), (64, 0.02), (64, 0.005), (64, 0.0025),
                  (64, 0.00125)):
        assert f"= {_theta(n, dt):.2g}" in sections


def test_polluted_runs_match_the_readme(sections, ladder):
    rows, finals = ladder
    error = "between {:g} and {:g}".format(*POLLUTED_ERROR)
    for text in (f"order one, {error} for",
                 f"| completes, polluted (L2 error {error}, pure noise) |",
                 f"| completes, polluted (error {error}) |",
                 f"tail fraction lies between {_sci(POLLUTED_TAIL[0])} and "
                 f"{POLLUTED_TAIL[1]:g} at dt = 0.005",
                 f"below {_sci(CLEAN_TAIL_BOUND)} at 0.0025 and 0.00125"):
        assert text in sections
    assert POLLUTED_ERROR[0] <= rows[0.005].err_linf_l2 <= POLLUTED_ERROR[1]
    assert POLLUTED_TAIL[0] <= _tail_fraction(finals[0.005]) \
        <= POLLUTED_TAIL[1]
    for dt in (0.0025, 0.00125):
        assert _tail_fraction(finals[dt]) < CLEAN_TAIL_BOUND
    # the N = 32 rung, dt = 0.02, is polluted too
    final, errors = _vortex_run(32, 0.02)
    assert _tail_fraction(final.omega) > POLLUTED_TAIL_FRACTION
    assert POLLUTED_ERROR[0] <= max(errors) <= POLLUTED_ERROR[1]
