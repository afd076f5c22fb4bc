"""The measured numbers of the README's "Criterion 1" and "Stability limit"
sections, recomputed on the decaying vortex (nu = 1e-3, T = 1), on the two
benchmark shear layers' initial states and on the scheme's
frozen-coefficient polynomial; and the plane counts of a step's peak
memory and of a record's in "How a step is computed", recomputed from the
step_planes measurement that bounds them in tests/test_integrators.py.

A deterministic value must appear in those sections as formatted here.
Roundoff seeds the blow-up steps, the polluted errors, the polluted tail
fraction and the N = 64 to N = 8 cross-check differences, so the README
states each as a range: the test checks that the README states the range
and that the computed value lies in it. A blow-up range must also allow
the roundoff seed to be 100 times larger or smaller, that is log 100 /
log g steps either way at the measured growth g per step; a cross-check
range spans the decade around its measured value. The N = 8 orders are
stated as ranges too, their bounds the computed extremes rounded outward
to two decimals.
"""

import math
import statistics
from pathlib import Path

import numpy as np
import pytest

from vorspec import (SHEAR_LAYER_CASES, TG_DT_LADDER, BlowUpError, Grid,
                     RunConfig, TaylorGreenSpec, convergence_study, l2_norm,
                     make_state, run, shear_layer_init, taylor_green_exact)
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
# the README's ranges of the largest relative difference between the
# N = 64 and N = 8 errors on the two rungs stable on both grids, in the
# max-over-steps L2 and the accumulated H1 norm
CROSS_L2 = (3e-8, 3e-7)
CROSS_H1 = (1e-4, 1e-3)


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


def _sci(x, digits=0):
    """x in the README's one-digit exponent form: 1e-3, not 1e-03."""
    mantissa, exponent = f"{x:.{digits}e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def _theta(n, dt, vel=None):
    """Advective number max|u| (2 pi / L) (N/2 - 1) dt of a velocity on
    the unit square, by default the vortex's."""
    if vel is None:
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
        rows = convergence_study(64, NU, 1.0, TG_DT_LADDER[-3:])
    return {r.dt: r for r in rows if r.variable == "omega"}, finals, rows


def test_ladder_numbers_match_the_readme(sections, ladder):
    rows, _, _ = ladder
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
    rows, finals, _ = ladder
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


def _outward(lo, hi):
    """The range [lo, hi] with its bounds rounded outward to two decimals."""
    return (f"{math.floor(lo * 100.0) / 100.0:.2f} to "
            f"{math.ceil(hi * 100.0) / 100.0:.2f}")


def test_n8_orders_and_cross_check_match_the_readme(sections, ladder):
    """Criterion 1's N = 8 ladder: the orders of its last three refinements
    in both norms, the rung of the lowest H1 order, and the N = 64 rungs'
    relative differences from it."""
    rows = convergence_study(8, NU, 1.0, TG_DT_LADDER)
    fine = [r for r in rows if r.dt in TG_DT_LADDER[-3:]]
    linf = [r.order_linf for r in fine]
    h1 = [r.order_l2_h1 for r in fine]
    assert f"orders lie within {_outward(min(linf), max(linf))} in the " \
           f"max-over-steps L2 norm and within {_outward(min(h1), max(h1))}" \
           f" in the accumulated H1 norm" in sections
    for var in ("omega", "psi", "u"):
        lowest = min((r for r in fine if r.variable == var),
                     key=lambda r: r.order_l2_h1)
        assert lowest.dt == TG_DT_LADDER[-1], var
    on_n8 = {(r.dt, r.variable): r for r in rows}
    _, _, cross = ladder
    diffs = [[abs(got - want) / want for got, want in (
        (r.err_linf_l2, on_n8[r.dt, r.variable].err_linf_l2),
        (r.err_l2_h1, on_n8[r.dt, r.variable].err_l2_h1))]
        for r in cross if r.dt in TG_DT_LADDER[-2:]]
    worst_l2, worst_h1 = np.max(diffs, axis=0)
    assert CROSS_L2[0] <= worst_l2 <= CROSS_L2[1]
    assert CROSS_H1[0] <= worst_h1 <= CROSS_H1[1]
    l2, h1 = ("between {} and {}".format(*map(_sci, r))
              for r in (CROSS_L2, CROSS_H1))
    for text in (f"agree to {l2} relative",
                 f"max-L2 to 1e-6 relative, measured {l2}; accumulated H1 "
                 f"to 1e-2, measured {h1}"):
        assert text in sections


def test_shear_layer_thetas_match_the_readme(sections):
    thetas = []
    for case in ("thick", "thin"):
        spec, n, dt = SHEAR_LAYER_CASES[case]
        vel = make_state(shear_layer_init(Grid(n), spec), 0.0).vel
        thetas.append(_theta(n, dt, vel))
    assert "theta = {:.3f} and {:.3f} for the thick and thin".format(
        *thetas) in sections
    assert len({f"{t:.2f}" for t in thetas}) == 1
    assert f"about {thetas[0]:.2f} for both" in sections


def _step_one_factor(nu, dt=0.01):
    """(||omega||_2 after step 1 over its initial value, the exact decay
    factor) of the N = 64 vortex, from a two-step run."""
    exact = taylor_green_exact(Grid(64), TaylorGreenSpec(nu=nu))
    norms = []
    run(exact.omega, RunConfig(n=64, dt=dt, nu=nu, t_final=2 * dt),
        observer=lambda k, flow: norms.append(l2_norm(flow.omega)))
    return norms[1] / norms[0], math.exp(-8.0 * nu * math.pi**2 * dt)


def test_step_one_diffusion_factors_match_the_readme(sections):
    """Step 1 multiplies the vortex's one shell, |k|^2 = 2, by the
    explicit midpoint's 1 + z + z^2/2 (its convection vanishes), which
    grows once z < -2; the thick layer's top mode stays damped up to the
    nu where its d = nu k_max^2 dt reaches 2."""
    big, exact_big = _step_one_factor(10.0)
    unit, exact_unit = _step_one_factor(1.0)
    z = -10.0 * 8.0 * math.pi**2 * 0.01
    assert big == pytest.approx(1.0 + z + 0.5 * z * z, rel=1e-12)
    assert big > 1.0 > unit
    spec, n, dt = SHEAR_LAYER_CASES["thick"]
    nu_max = 2.0 / (2.0 * (2.0 * math.pi * (n // 2)) ** 2 * dt)
    for text in (f"nu = 10 multiplies ||omega||_2 by {big:.2f} at step 1, "
                 f"where the exact factor is {_sci(exact_big, 1)}",
                 f"nu = 1 gives {unit:.3f} against an exact "
                 f"{exact_unit:.3f}",
                 f"at dt = {_sci(dt)} the top mode stays damped for nu up "
                 f"to {_sci(nu_max, 1)}, and the preset nu is "
                 f"{_sci(spec.nu)}"):
        assert text in sections


def _root_radius(theta):
    """Largest root modulus of 11/6 z^3 - 3 z^2 + 3/2 z - 1/3
    - i theta (3 z^2 - 3 z + 1): BDF3 with (3, -3, 1) extrapolated
    convection, frozen at advective number theta."""
    bdf = np.array([11.0 / 6.0, -3.0, 1.5, -1.0 / 3.0])
    extrapolation = np.array([0.0, 3.0, -3.0, 1.0])
    return np.abs(np.roots(bdf - 1j * theta * extrapolation)).max()


def test_critical_theta_matches_the_readme(sections):
    """The largest theta below which every root stays in the closed unit
    disc: a scan by 0.01 to the first theta outside, then bisection."""
    def inside(theta):
        return _root_radius(theta) <= 1.0 + 1e-12

    scan = np.arange(0.0, 2.0, 0.01)
    first_out = next(i for i, theta in enumerate(scan) if not inside(theta))
    lo, hi = scan[first_out - 1], scan[first_out]
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if inside(mid) else (lo, mid)
    assert f"{lo:.3f}" == "0.634"
    for text in (f"up to theta of about {lo:.2f}",
                 f"critical advective number of about {lo:.2f}"):
        assert text in sections


def test_step_plane_counts_match_the_readme(step_planes):
    """The traced peaks of a third-order step, of the startup step 1 and
    of the largest record, in whole planes."""
    text = README.read_text(encoding="utf-8")
    body = " ".join(text[text.index("## How a step is computed"):
                         text.index("## Command line")].split())
    steps, records = step_planes
    assert (f"a third-order step peaks at {round(max(steps[3:]))} "
            f"half-spectrum planes, step 1 at {round(steps[1])}, and a "
            f"record at {round(max(records))} at most") in body
