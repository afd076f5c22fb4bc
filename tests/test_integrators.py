"""Time integration: the startup chain and the schemes, through run().

The decaying vortex reduces every scheme to a scalar recurrence on the
resolved mode (convection vanishes), giving exact per-step oracles. A
manufactured solution with genuinely active convection checks the global
order of each scheme, startup chain included.
"""

import numpy as np
import pytest

import vorspec as v
from vorspec import (
    BlowUpError,
    ConfigError,
    Grid,
    RunConfig,
    ScalarField,
    SchemeId,
    TaylorGreenSpec,
    helmholtz_solve,
    l2_norm,
    laplacian,
    make_state,
    mean,
    run,
    taylor_green_exact,
)

NU = 1e-3
LAM = -8.0 * NU * np.pi**2  # decay rate of the resolved vortex mode


def scalar_trajectory(z, steps):
    """Independent recurrence for the amplitude of a mode with decay factor
    z = lambda dt: explicit-midpoint first step, two-level BDF second step,
    three-level BDF after."""
    ys = [1.0]
    if steps >= 1:
        ys.append(ys[0] * (1.0 + z + 0.5 * z * z))
    if steps >= 2:
        ys.append((4.0 * ys[1] - ys[0]) / (3.0 - 2.0 * z))
    while len(ys) <= steps:
        ys.append((3.0 * ys[-1] - 1.5 * ys[-2] + ys[-3] / 3.0)
                  / (11.0 / 6.0 - z))
    return ys


def tg_config(n=32, dt=0.005, t_final=0.1, **kw):
    return RunConfig(n=n, dt=dt, nu=NU, t_final=t_final, **kw)


def tg_omega0(n=32):
    return taylor_green_exact(Grid(n), TaylorGreenSpec(nu=NU)).omega


# --- config validation ------------------------------------------------------


def test_runconfig_step_count_rounding():
    cfg = RunConfig(n=16, dt=0.01, nu=1.0, t_final=1.0)
    assert cfg.n_steps == 100


def test_runconfig_rejects_bad_values():
    with pytest.raises(ConfigError):
        RunConfig(n=2, dt=0.01, nu=1.0, t_final=1.0)
    with pytest.raises(ConfigError):
        RunConfig(n=16, dt=-0.01, nu=1.0, t_final=1.0)
    with pytest.raises(ConfigError):
        RunConfig(n=16, dt=0.01, nu=0.0, t_final=1.0)
    with pytest.raises(ConfigError):
        RunConfig(n=16, dt=0.5, nu=1.0, t_final=0.1)


@pytest.mark.parametrize("name", ["dt", "nu", "t_final"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_runconfig_rejects_non_finite_values(name, value):
    kw = dict(n=16, dt=0.01, nu=1.0, t_final=1.0)
    kw[name] = value
    with pytest.raises(ConfigError, match="finite"):
        RunConfig(**kw)


def test_runconfig_rejects_partial_last_step():
    with pytest.raises(ConfigError, match="whole number"):
        RunConfig(n=16, dt=0.3, nu=1.0, t_final=1.0)
    # 0.3 / 0.1 is 2.9999999999999996 in doubles: a multiple up to roundoff
    assert RunConfig(n=16, dt=0.1, nu=1.0, t_final=0.3).n_steps == 3


def test_scheme_history_depths():
    assert SchemeId.IMEX_EULER.history_required == 1
    assert SchemeId.IMEX_BDF2.history_required == 2
    assert SchemeId.IMEX_BDF3.history_required == 3


# --- helmholtz solve --------------------------------------------------------


def test_helmholtz_inverts_operator(noise):
    g = Grid(16)
    w = noise(g, nyquist_free=False)
    a, dt, nu = 11.0 / 6.0, 0.01, 0.3
    # build rhs = (a/dt - nu Lap) w, solve back
    rhs = (a / dt) * w - nu * laplacian(w)
    got = helmholtz_solve(rhs, a=a, dt=dt, nu=nu)
    np.testing.assert_allclose(got.physical, w.physical, rtol=1e-12,
                               atol=1e-12)


# --- per-step oracles on the decaying vortex --------------------------------


def euler_amplitude(n, dt, steps):
    cfg = tg_config(n=n, dt=dt, t_final=steps * dt, scheme=SchemeId.IMEX_EULER)
    summary = run(tg_omega0(n), cfg)
    return l2_norm(summary.final_state.omega) / (2.0 * np.pi)


def test_euler_single_step_matches_implicit_scalar():
    # implicit Euler in the diffusion with vanishing convection:
    # y1 = y0 / (1 - z)
    dt = 0.01
    got = euler_amplitude(32, dt, 1)
    want = 1.0 / (1.0 - LAM * dt)
    assert got == pytest.approx(want, rel=1e-13)


def test_bdf2_steps_match_scalar_recurrence():
    dt = 0.01
    cfg = tg_config(dt=dt, t_final=5 * dt, scheme=SchemeId.IMEX_BDF2)
    amps = []
    run(tg_omega0(), cfg,
        observer=lambda k, fl: amps.append(l2_norm(fl.omega) / (2 * np.pi)))
    # startup for the two-level scheme is the explicit-midpoint step
    z = LAM * dt
    ys = [1.0, 1.0 + z + 0.5 * z * z]
    while len(ys) < len(amps):
        ys.append((4.0 * ys[-1] - ys[-2]) / (3.0 - 2.0 * z))
    np.testing.assert_allclose(amps, ys, rtol=1e-12)


def test_bdf3_trajectory_matches_scalar_recurrence():
    dt = 0.005
    steps = 40
    cfg = tg_config(dt=dt, t_final=steps * dt)
    amps = []
    run(tg_omega0(), cfg,
        observer=lambda k, fl: amps.append(l2_norm(fl.omega) / (2 * np.pi)))
    ys = scalar_trajectory(LAM * dt, steps)
    assert len(amps) == steps + 1
    np.testing.assert_allclose(amps, ys, rtol=1e-12)


def test_run_takes_the_domain_length_from_the_grid():
    # one Fourier mode on a square of side 2: convection vanishes and the
    # mode decays at lambda = -2 nu (2 pi / L)^2
    length, nu, dt, steps = 2.0, 0.05, 0.01, 20
    g = Grid(16, length=length)
    X, Y = g.nodes()
    kl = 2.0 * np.pi / length
    omega0 = ScalarField.from_physical(g, np.sin(kl * X) * np.sin(kl * Y))
    cfg = RunConfig(n=16, dt=dt, nu=nu, t_final=steps * dt)
    amps = []
    run(omega0, cfg,
        observer=lambda k, fl: amps.append(l2_norm(fl.omega)
                                           / l2_norm(omega0)))
    ys = scalar_trajectory(-2.0 * nu * kl**2 * dt, steps)
    np.testing.assert_allclose(amps, ys, rtol=1e-12)


# --- global order with active convection -------------------------------------


def manufactured_error(dt, scheme=SchemeId.IMEX_BDF3):
    """Global L2 error at T = 0.5 for a two-mode manufactured solution whose
    convection does not vanish. The forcing is built with the package's own
    spatial operators, so the measured error is purely temporal."""
    n, nu, t_final = 16, 0.05, 0.5
    g = Grid(n)
    X, Y = g.nodes()
    s1 = np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y)
    s2 = np.sin(4 * np.pi * X) * np.sin(2 * np.pi * Y)

    def omega_e(t):
        phys = (4 * np.pi * np.exp(-t) * s1
                + 2 * np.pi * np.cos(3 * t) * s2)
        return ScalarField.from_physical(g, phys)

    def domega_dt(t):
        phys = (-4 * np.pi * np.exp(-t) * s1
                - 6 * np.pi * np.sin(3 * t) * s2)
        return ScalarField.from_physical(g, phys)

    def forcing(t):
        st = make_state(omega_e(t), t)
        conv = v.skew_convection(st.vel, st.omega)
        return domega_dt(t) + 0.5 * conv - nu * laplacian(st.omega)

    cfg = RunConfig(n=n, dt=dt, nu=nu, t_final=t_final, scheme=scheme)
    summary = run(omega_e(0.0), cfg, forcing=forcing)
    return l2_norm(summary.final_state.omega - omega_e(t_final))


def manufactured_orders(scheme):
    errs = [manufactured_error(dt, scheme) for dt in (0.01, 0.005, 0.0025)]
    return np.log2(np.array(errs[:-1]) / np.array(errs[1:]))


def test_bdf3_third_order_with_convection():
    orders = manufactured_orders(SchemeId.IMEX_BDF3)
    assert np.all(orders > 2.8)
    assert np.all(orders < 3.2)


@pytest.mark.parametrize("scheme, lo, hi", [
    (SchemeId.IMEX_EULER, 0.8, 1.2),
    (SchemeId.IMEX_BDF2, 1.8, 2.2),
])
def test_low_order_schemes_with_convection(scheme, lo, hi):
    orders = manufactured_orders(scheme)
    assert np.all(orders > lo)
    assert np.all(orders < hi)


# --- run bookkeeping ----------------------------------------------------------


def test_run_emits_series_and_snapshots():
    cfg = tg_config(dt=0.01, t_final=0.1, series_every=2, snapshot_every=5)
    recs = []
    snaps = []
    summary = run(tg_omega0(), cfg, series_sink=recs.append,
                  snapshot_sink=lambda k, fl: snaps.append(k))
    # steps 0,2,4,6,8 plus the final step 10
    assert [round(r.t / 0.01) for r in recs] == [0, 2, 4, 6, 8, 10]
    assert snaps == [0, 5, 10]
    assert summary.steps == 10
    assert summary.records[-1] == recs[-1]
    assert set(summary.extrema) == set(v.SeriesRecord.FIELDS)


def test_run_preserves_zero_mean():
    cfg = tg_config(dt=0.01, t_final=0.1)
    summary = run(tg_omega0(), cfg)
    w = summary.final_state.omega
    assert w.spectral[0, 0] == 0.0
    assert abs(mean(w)) < 1e-15


def test_run_rejects_too_few_steps():
    cfg = tg_config(dt=0.01, t_final=0.01)  # one step cannot feed BDF3
    with pytest.raises(ConfigError):
        run(tg_omega0(), cfg)


def test_blowup_raises_with_context():
    # gross step size on an inviscid-ish flow triggers the guard quickly
    g = Grid(32)
    omega0 = taylor_green_exact(g, TaylorGreenSpec(nu=1e-3)).omega
    cfg = RunConfig(n=32, dt=0.2, nu=1e-3, t_final=40.0)
    recs = []
    with pytest.raises(BlowUpError) as info:
        run(omega0, cfg, series_sink=recs.append)
    err = info.value
    assert err.step > 0
    assert err.last_record is not None
    assert err.last_record == recs[-1]


def test_forcing_balances_decay():
    # f = -nu Lap w0 freezes the vortex exactly (convection vanishes)
    g = Grid(16)
    omega0 = taylor_green_exact(g, TaylorGreenSpec(nu=0.1)).omega
    cfg = RunConfig(n=16, dt=0.01, nu=0.1, t_final=0.2)
    summary = run(omega0, cfg, forcing=lambda t: -0.1 * laplacian(omega0))
    final = summary.final_state.omega
    np.testing.assert_allclose(final.physical, omega0.physical, atol=1e-9)


# --- transform budget ----------------------------------------------------------


FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


def test_run_step_costs_eight_real_transforms(monkeypatch):
    """A main-loop BDF3 step makes 5 inverse and 3 forward real transforms
    and no complex one; a diagnostics record makes none."""
    omega0 = tg_omega0()
    counts = {}
    for name in FFT_NAMES:
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kw):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args, **kw)
        monkeypatch.setattr(np.fft, name, counted)

    per_step = []

    def observe(k, flow):
        per_step.append(dict(counts))
        counts.clear()

    # a record every second step: from step 3 on, every interval between
    # observer calls holds one step and, on odd steps, the previous record
    run(omega0, tg_config(dt=0.01, t_final=0.1, series_every=2),
        observer=observe)
    for k in range(3, 11):
        assert per_step[k] == {"irfft2": 5, "rfft2": 3}, k
    assert counts == {}  # the record of the final step


def test_no_complex_transform_anywhere(monkeypatch):
    """Every field is real, so the package runs on real transforms alone:
    the invariant suite and a BDF3 run pass with complex transforms gone."""
    def refuse(*args, **kwargs):
        raise AssertionError("complex transform called")

    for name in ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, refuse)
    assert v.run_checks()
    summary = run(tg_omega0(n=16), tg_config(n=16, dt=0.01, t_final=0.05))
    assert summary.steps == 5
