"""Time integration: the startup chain and the schemes, through run().

The decaying vortex reduces every scheme to a scalar recurrence on the
resolved mode (convection vanishes), giving exact per-step oracles. A
manufactured solution with genuinely active convection checks the global
order of each scheme, startup chain included.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

import vorspec as v
from vorspec import integrators
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
    perp_gradient,
    run,
    solve_poisson,
    taylor_green_exact,
)
from vorspec.spectral import _half_to_physical, _sup_norm

from conftest import KEPT_PLANES, filled, traced_planes

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


@pytest.mark.parametrize("name, value", [
    ("n", 16.5), ("n", 16.0), ("series_every", 2.5),
    ("series_every", np.nan), ("snapshot_every", 0.5), ("snapshot_every", "1"),
])
def test_runconfig_rejects_non_integer_counts(name, value):
    kw = dict(n=16, dt=0.01, nu=1.0, t_final=1.0)
    kw[name] = value
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        RunConfig(**kw)
    kw[name] = np.int64(16)  # numpy integers are integers, as for Grid
    assert getattr(RunConfig(**kw), name) == 16


def test_scheme_history_depths():
    assert SchemeId.IMEX_EULER.history_required == 1
    assert SchemeId.IMEX_BDF2.history_required == 2
    assert SchemeId.IMEX_BDF3.history_required == 3


def test_bdf3_stencil_is_the_schemes_weights():
    """The diagnostics' BDF3 stencil and the scheme's weight table encode
    one combination: on unit vectors bdf3_stencil gives a and the -c_j of
    _WEIGHTS as floats, bit for bit."""
    a, c, _ = integrators._WEIGHTS[SchemeId.IMEX_BDF3]
    got = v.bdf3_stencil(*np.eye(4))
    want = np.array([float(a)] + [-float(cj) for cj in c])
    assert got.tobytes() == want.tobytes()


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


@pytest.mark.parametrize("a, dt", [(0.0, 0.01), (-1.5, 0.01), (1.5, 0.0),
                                   (1.5, -0.01)])
def test_helmholtz_rejects_nonpositive_a_or_dt(noise, a, dt):
    with pytest.raises(ValueError, match="a > 0 and dt > 0"):
        helmholtz_solve(noise(Grid(8)), a=a, dt=dt, nu=0.1)


@pytest.mark.parametrize("a, dt, nu", [
    (1.0, 1.0, -1.0 / (4 * np.pi**2)),  # zero symbol at the lowest mode
    (1.5, 0.01, -1e-3), (1.5, 0.01, np.nan), (1.5, 0.01, np.inf),
    (1.5, np.inf, 0.1), (np.inf, 0.01, 0.1), (np.nan, 0.01, 0.1),
    (1.5, np.nan, 0.1), (1e-300, 1e300, 0.1),  # a/dt underflows to 0
])
def test_helmholtz_rejects_a_symbol_that_is_not_positive(noise, a, dt, nu):
    """Each case gave a symbol that is zero, infinite or NaN in some mode,
    and the solve returned NaN, inf or a zero field, mostly with
    RuntimeWarnings; it is now refused before any table is built."""
    with pytest.raises(ValueError, match="a > 0 and dt > 0"):
        helmholtz_solve(noise(Grid(8)), a=a, dt=dt, nu=nu)


def test_helmholtz_accepts_zero_viscosity(noise):
    """nu = 0 leaves the symbol a/dt: the solve scales by dt/a."""
    f = noise(Grid(8))
    w = helmholtz_solve(f, a=1.5, dt=0.01, nu=0.0)
    assert np.allclose(w._half, f._half * (0.01 / 1.5), rtol=1e-15, atol=0)


@pytest.mark.parametrize("n", [8, 15, 64, 128])
def test_helmholtz_product_is_the_division_bit_for_bit(n):
    """The solve multiplies by the complex table of rounded reciprocals.
    On right sides from 1e-150 to 1e150 that equals, bit for bit, scaling
    the real and imaginary parts by 1.0 / den, and numpy's division by den
    (which is why the product leaves every trajectory unchanged)."""
    g = Grid(n, length=2.0)
    rng = np.random.default_rng(n)
    shape = (n, n // 2 + 1, 2)
    parts = (rng.choice([-1.0, 1.0], size=shape) * rng.uniform(1.0, 10.0, shape)
             * 10.0 ** rng.integers(-150, 151, size=shape))
    rhs = parts.view(np.complex128)[..., 0]
    rhs[0, 0] = 0.0
    for a, dt, nu in ((11.0 / 6.0, 1e-3, 1e-3), (1.5, 0.0025, 0.37),
                      (1.0, 0.3, 2.5)):
        den = a / dt + nu * g._ksq
        want = np.empty_like(rhs)
        want.real = rhs.real * (1.0 / den)
        want.imag = rhs.imag * (1.0 / den)
        got = integrators._helmholtz(rhs, integrators._inverse_symbol(
            g, a, dt, nu))
        assert np.array_equal(got, want)
        assert np.array_equal(rhs / den, want)


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
    # one step cannot feed BDF3's startup; the config alone says so
    with pytest.raises(ConfigError, match="startup needs 2 steps"):
        tg_config(dt=0.01, t_final=0.01)
    tg_config(dt=0.01, t_final=0.01, scheme=SchemeId.IMEX_EULER)


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


@pytest.mark.parametrize("delta, step", [(1e300, 0), (1e150, 1)])
def test_overflow_ends_in_the_blowup_guard_alone(delta, step):
    """A shear layer whose convection overflows raises BlowUpError at the
    step it fails; one whose initial vorticity norm already overflows
    (step 0) is refused with ConfigError before any step. Neither leaves a
    numpy warning (the suite makes warnings errors); observers and sinks
    still run under the caller's errstate."""
    g = Grid(8)
    spec = v.ShearLayerSpec(rho=30.0, delta=delta, nu=1e-4)
    cfg = RunConfig(n=8, dt=8e-4, nu=1e-4, t_final=0.0016)
    outer, seen = np.geterr(), []
    with pytest.raises(BlowUpError if step else ConfigError) as info:
        run(v.shear_layer_init(g, spec), cfg,
            observer=lambda k, flow: seen.append(np.geterr()),
            series_sink=lambda rec: seen.append(np.geterr()))
    assert getattr(info.value, "step", 0) == step
    assert len(seen) == 2 * step
    assert all(errstate == outer for errstate in seen)


def test_forcing_balances_decay():
    # f = -nu Lap w0 freezes the vortex exactly (convection vanishes)
    g = Grid(16)
    omega0 = taylor_green_exact(g, TaylorGreenSpec(nu=0.1)).omega
    cfg = RunConfig(n=16, dt=0.01, nu=0.1, t_final=0.2)
    summary = run(omega0, cfg, forcing=lambda t: -0.1 * laplacian(omega0))
    final = summary.final_state.omega
    np.testing.assert_allclose(final.physical, omega0.physical, atol=1e-9)


@pytest.mark.parametrize("scheme, times", [
    (SchemeId.IMEX_EULER, [1, 2, 3, 4, 5, 6]),
    (SchemeId.IMEX_BDF2, [0, 0.5, 2, 3, 4, 5, 6]),
    (SchemeId.IMEX_BDF3, [0, 0.5, 2, 3, 4, 5, 6])])
def test_forcing_is_evaluated_at_the_scheme_times(scheme, times):
    """The forcing is asked for at the times, in units of dt, where each
    rule needs it: the explicit midpoint of step 1 at 0 and dt/2, every
    implicit step k at its new level k dt; Euler needs no startup."""
    g, dt = Grid(16), 0.01
    seen = []

    def forcing(t):
        seen.append(t)
        return ScalarField.from_physical(g, np.zeros((16, 16)))

    run(tg_omega0(16), tg_config(n=16, dt=dt, t_final=6 * dt,
                                 scheme=scheme), forcing=forcing)
    assert seen == [c * dt for c in times]


def test_run_rejects_initial_data_of_another_grid_size():
    with pytest.raises(ConfigError, match="does not match config"):
        run(tg_omega0(16), tg_config(n=32))


def test_run_rejects_forcing_on_the_wrong_grid():
    other = ScalarField.from_physical(Grid(8), np.zeros((8, 8)))
    with pytest.raises(ConfigError, match="wrong grid"):
        run(tg_omega0(16), tg_config(n=16), forcing=lambda t: other)


@pytest.mark.parametrize("bad, what", [
    (np.zeros((16, 16)), "is of type ndarray, not a ScalarField"),
    (filled(16, np.nan), "has no finite L2 norm"),
    (filled(16, np.inf), "has no finite L2 norm")])
def test_run_refuses_a_forcing_value_that_is_no_finite_field(bad, what):
    """A forcing that returns a plain array (once an AttributeError) or a
    field with nan or inf values (once reported as a blow-up at step 1)
    ends the run in a one-line ConfigError that names the time."""
    spec = v.ShearLayerSpec(rho=30.0, delta=0.05, nu=1e-4)
    zero = filled(16, 0.0)
    cfg = RunConfig(n=16, dt=8e-4, nu=1e-4, t_final=6 * 8e-4)
    with pytest.raises(ConfigError) as info:
        run(v.shear_layer_init(Grid(16), spec), cfg,
            forcing=lambda t: bad if t == 3 * cfg.dt else zero)
    message = str(info.value)
    assert message.startswith(f"forcing at t = {3 * cfg.dt} {what}")
    assert "\n" not in message


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_a_step_writes_only_its_own_slot(monkeypatch, scheme):
    """Every step writes only its own slot's two ring rows, step 1's
    explicit midpoint too, which keeps its temporaries in the scratch
    stacks: at every convection call of a run (its out is a ring row, so
    out.base is the ring) each slot no call has written to yet still holds
    the ring's initial zeros in its omega and its N row."""
    depth = integrators._DEPTH
    written, dirty = set(), []
    kernel = integrators._skew_kernel

    def checked(omega, dealias, scratch, vel=None, out=None):
        ring = out.base
        written.update(s for s in range(depth)
                       if np.shares_memory(out, ring[depth + s]))
        dirty.append([s for s in range(depth) if s not in written
                      and (ring[s].any() or ring[depth + s].any())])
        return kernel(omega, dealias, scratch, vel=vel, out=out)

    monkeypatch.setattr(integrators, "_skew_kernel", checked)
    spec = v.ShearLayerSpec(rho=30.0, delta=0.05, nu=1e-4)
    run(v.shear_layer_init(Grid(16), spec),
        RunConfig(n=16, dt=8e-4, nu=1e-4, t_final=4 * 8e-4, scheme=scheme))
    midpoint = scheme.history_required > 1
    assert dirty == [[]] * (5 + midpoint)


# --- transform budget ----------------------------------------------------------


def test_run_step_costs_eight_real_transforms(fft_calls):
    """A main-loop BDF3 step makes the eight real 2-D transforms of one
    convection as four 1-D passes over stacked planes: a complex pass along
    k over 4 planes and a real pass along l over 5 inverse, a real pass
    over 3 and a complex one over 2 forward; a diagnostics record makes
    none."""
    omega0 = tg_omega0()
    per_step = []

    def observe(k, flow):
        per_step.append(fft_calls.take())

    # a record every second step: from step 3 on, every interval between
    # observer calls holds one step and, on odd steps, the previous record
    run(omega0, tg_config(dt=0.01, t_final=0.1, series_every=2),
        observer=observe)
    for k in range(3, 11):
        assert per_step[k] == fft_calls.STEP, k
    assert fft_calls == {}  # the record of the final step


def test_no_full_complex_spectrum(monkeypatch):
    """Every field is real, so no transform forms a full (N, N) complex
    spectrum: the complex and Hermitian 2-D and n-D transforms are never
    called, and the complex 1-D passes run only along k (axis -2) of half
    spectra, whose last axis holds N//2 + 1 columns. The invariant suite
    and a BDF3 run pass under this."""
    def refuse(*args, **kwargs):
        raise AssertionError("full complex transform called")

    for name in ("fft2", "ifft2", "fftn", "ifftn", "hfft", "ihfft"):
        monkeypatch.setattr(np.fft, name, refuse)
    passes = []
    for name in ("fft", "ifft"):
        def along_k(a, n=None, axis=-1, *args, _fn=getattr(np.fft, name),
                    **kwargs):
            shape = np.shape(a)
            assert axis % len(shape) == len(shape) - 2, (axis, shape)
            assert n is None or n == shape[-2], (n, shape)
            assert shape[-1] == shape[-2] // 2 + 1, shape
            passes.append(shape)
            return _fn(a, n, axis, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, along_k)
    assert v.run_checks()
    summary = run(tg_omega0(n=16), tg_config(n=16, dt=0.01, t_final=0.05))
    assert summary.steps == 5
    assert passes  # the passes along k did run under the check


@pytest.mark.parametrize("scheme, kept", [(SchemeId.IMEX_BDF3, False),
                                          (SchemeId.IMEX_BDF2, True)])
def test_startup_solver_freed_after_step_two(monkeypatch, scheme, kept):
    """The BDF2 reciprocal table that takes step 2 of the third-order
    scheme is freed once that step is taken; a BDF2 run keeps it, as its
    own, to the end."""
    tables = {}
    solver = integrators._solver

    def tracked(grid, s, dt, nu):
        built = solver(grid, s, dt, nu)
        tables[s] = weakref.ref(built[-1])
        return built

    monkeypatch.setattr(integrators, "_solver", tracked)
    alive = []
    run(tg_omega0(), tg_config(dt=0.01, t_final=0.1, scheme=scheme),
        observer=lambda k, flow: alive.append(
            tables[SchemeId.IMEX_BDF2]() is not None))
    assert len(alive) == 11
    assert alive[:2] == [True, True]
    assert alive[2:] == [kept] * 9


def test_records_never_change_the_trajectory(noise):
    """A record's products go into the step's scratch stack; a BDF3 run
    with a record every step ends on the same vorticity, bit for bit, as
    one that records only its first and last steps."""
    g = Grid(32)
    omega0 = noise(g)
    finals = [run(omega0, RunConfig(n=32, dt=1e-3, nu=NU, t_final=0.03,
                                    series_every=every)).final_state.omega
              for every in (1, 30)]
    assert finals[0]._half.tobytes() == finals[1]._half.tobytes()


@pytest.mark.parametrize("dealias", [False, True])
def test_handed_out_arrays_stay_put(noise, dealias):
    """A step writes its temporaries into scratch the run reuses, never into
    an array it hands out: every flow state an observer keeps still holds,
    after the run, the values it held when observed (BDF3, startup ladder
    included, with active convection)."""
    g = Grid(16)
    kept = []

    def observe(k, flow):
        fields = (flow.omega, flow.psi, flow.vel.x, flow.vel.y)
        kept.append((fields, [(f.spectral, f.physical.copy())
                              for f in fields]))

    run(noise(g), RunConfig(n=16, dt=1e-3, nu=NU, t_final=0.01,
                            dealias=dealias), observer=observe)
    assert len(kept) == 11
    for fields, copies in kept:
        for f, (spectral, physical) in zip(fields, copies):
            assert np.array_equal(f.spectral, spectral)
            assert np.array_equal(f.physical, physical)


def test_step_memory_budget(step_planes):
    """A step holds only the history ring, the scratch stacks and tables:
    under 19.5 half-spectrum planes of traced memory on every third-order
    step, and under 22 on every step and every record, startup and the
    record that builds the Parseval table included (measured 19.3 to 19.4
    on a third-order step, step 1 20.2 and record 0 20.2 with the record's
    passes bound once per run, 19.1 to 19.3, 20.1 and 20.1 before, with
    the real two-plane Parseval table; a third-order step 21.1 to 21.3 and
    record 0 23.5 with the interleaved four-plane one, which step 1's
    interval then held, as it held each record before this count split
    steps from records: 21.5 and 24 were the bounds; 22.1 to 22.2 and
    step 1 23.6 when
    each step allocated its omega and N planes afresh, 25.1 to 25.3 when
    each flow state held psi, u and v and the oldest level lived through
    the convection, 26.0 to 26.2 when the convection also cached omega's
    node values, and 36 when each step also kept the previous state, older
    levels' node values and u's and v's)."""
    steps, records = step_planes
    assert len(steps) == len(records) == 13
    assert max(steps[3:]) < 19.5
    assert max(steps + records) < 22.0


# all-in traced peaks (from before Grid()) measured on the thick layer at
# N = 64, numpy.fft and BLAS warmed before tracing (traced_planes), so the
# same in any test order: a third-order step 23.85 to 24.02 planes, step 1
# and record 0, which builds the Parseval table, 24.75 to 24.87, the
# record's passes bound once per run included (bounds 27.6 and 30.0 while
# a first run in its process traced numpy.fft's import: 27.3 to 27.4 and
# 28.3 then); with the interleaved table, counted with the steps, 29.2 to
# 29.4 and step 1 31.7 (bounds 29.7 and 32)
_ALL_IN_BDF3, _ALL_IN_STEP = 24.3, 25.2


def test_all_in_memory_budget():
    """Traced from before Grid() is built, so the grid's mode tables, the
    initial vorticity and the Parseval table count too (thick layer,
    N = 64, 12 BDF3 steps, a record every step): every third-order step
    stays under its measured peak plus a small margin, and so does every
    step and record, startup and the table's build included."""
    n, dt, steps = 64, 8e-4, 12

    def run_all_in(observe, sink):
        omega0 = v.shear_layer_init(Grid(n), v.ShearLayerSpec(
            rho=30.0, delta=0.05, nu=1e-4))
        run(omega0, RunConfig(n=n, dt=dt, nu=1e-4, t_final=steps * dt),
            observer=observe, series_sink=sink)

    step_peaks, record_peaks = traced_planes(n, run_all_in)
    assert len(step_peaks) == len(record_peaks) == steps + 1
    assert max(step_peaks[3:]) < _ALL_IN_BDF3
    assert max(step_peaks + record_peaks) < _ALL_IN_STEP


class _Stop(Exception):
    """What an observer or sink raises to stop a run early."""


# traced memory a run leaves behind, read after gc.collect() with its summary
# or its exception held (thick layer, N = 64, traced from just before run()):
# the final omega and the grid's two-plane Parseval table, 3.15 to 3.25
# planes, and 4.17 to 4.27 with an observer's state of the step before;
# 19.2 to 19.3, the whole workspace, when only a return let go of it; a
# forcing's exception at step 8 (raised or refused) holds 2.13 to 2.17, and
# 3.15 to 3.19 with the kept state (19.0 to 20.1 while a step helper called
# the forcing)
@pytest.mark.parametrize("keep, bound", [(False, KEPT_PLANES),
                                         (True, KEPT_PLANES + 1)])
@pytest.mark.parametrize("exit", ["return", "blowup", "observer", "sink",
                                  "forcing", "forcing_grid", "forcing_array",
                                  "forcing_nan"])
def test_no_exit_of_run_holds_the_ring(exit, keep, bound):
    """Whether run() returns, blows up (dt = 0.05 at step 18), or stops at
    step 8 because its observer, its sink or its forcing raises, or its
    forcing returns a field on another grid, a plain array or a field of
    nan values (ConfigError), what the caller holds afterwards, the
    summary or the exception with its traceback, views none of the
    workspace: one plane beside the Parseval table, and one more for a
    level the observer kept."""
    n, dt, steps = 64, 8e-4, 12
    spec = v.ShearLayerSpec(rho=30.0, delta=0.05, nu=1e-4)
    cfg = RunConfig(n=n, dt=dt, nu=1e-4, t_final=steps * dt)
    run(v.shear_layer_init(Grid(n), spec), cfg)  # numpy's one-time buffers
    last = {"return": steps, "blowup": 18}.get(exit, 8)
    if exit == "blowup":
        cfg = RunConfig(n=n, dt=0.05, nu=1e-4, t_final=30 * 0.05)
    omega0 = v.shear_layer_init(Grid(n), spec)
    zero = ScalarField.from_physical(Grid(n), np.zeros((n, n)))
    bad = {"forcing_grid": ScalarField.from_physical(Grid(8),
                                                     np.zeros((8, 8))),
           "forcing_array": np.zeros((n, n)),
           "forcing_nan": filled(n, np.nan)}
    kept, records = [], []

    def forcing(t):
        if exit == "forcing" and t == last * dt:
            raise _Stop
        return bad.get(exit, zero) if t == last * dt else zero

    def observe(k, flow):
        if keep and k == last - 1:
            kept.append(flow)
        if exit == "observer" and k == last:
            raise _Stop

    def sink(record):
        records.append(record)
        if exit == "sink" and len(records) == last + 1:
            raise _Stop

    tracemalloc.start()
    try:
        try:
            outcome = run(omega0, cfg, observer=observe, series_sink=sink,
                          forcing=forcing if "forcing" in exit else None)
        except (BlowUpError, ConfigError, _Stop) as exc:
            outcome = exc
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] / (n * (n // 2 + 1) * 16)
    finally:
        tracemalloc.stop()
    if exit == "return":
        assert outcome.steps == steps
    else:
        raised = (BlowUpError if exit == "blowup" else ConfigError
                  if exit in bad else _Stop)
        assert isinstance(outcome, raised)
        assert outcome.__traceback__ is not None
    assert getattr(outcome, "step", last) == last
    assert len(kept) == keep
    assert len(records) == last + (exit in ("return", "sink"))
    assert held < bound


def _counting_detach(monkeypatch):
    """Count the copies run() gives the fields it handed out."""
    calls = []
    detach = integrators._detach

    def counted(field):
        calls.append(field)
        detach(field)

    monkeypatch.setattr(integrators, "_detach", counted)
    return calls


def test_kept_levels_keep_their_bits_through_ring_reuse(monkeypatch, noise):
    """An observer that keeps every third flow state over 30 BDF3 steps
    finds each kept omega, after the run, equal bit for bit to a copy taken
    when it was observed. Each kept level whose ring row a later step
    reused was copied once, and only then: 10 of the 11 kept by the last
    observer call. The last, the final state's omega, is copied once when
    the run returns. Handed-out omegas are read-only."""
    calls = _counting_detach(monkeypatch)
    kept, copies = [], []

    def observe(k, flow):
        assert not flow.omega._half.flags.writeable
        copies.append(len(calls))
        if k % 3 == 0:
            kept.append((k, flow.omega, flow.omega._half.tobytes()))

    g = Grid(16)
    summary = run(noise(g), RunConfig(n=16, dt=1e-3, nu=NU, t_final=0.03),
                  observer=observe)
    assert summary.steps == 30 and len(kept) == 11 and copies[-1] == 10
    for k, omega, bits in kept:
        assert omega._half.tobytes() == bits, k
    assert [id(f) for f in calls] == [id(w) for _, w, _ in kept]
    assert kept[-1][1] is summary.final_state.omega


@pytest.mark.parametrize("scheme", list(SchemeId))
def test_a_run_that_keeps_nothing_copies_nothing(monkeypatch, noise, scheme):
    """With no observer or sink holding a level, no row is copied out
    while the run steps: every reused row's field is gone by then. At
    return the final state's omega, which the summary holds, is copied
    once, and nothing else."""
    calls = _counting_detach(monkeypatch)
    copies = []
    g = Grid(16)
    summary = run(noise(g), RunConfig(n=16, dt=1e-3, nu=NU, t_final=0.02,
                                      scheme=scheme, snapshot_every=3),
                  series_sink=lambda record: None,
                  snapshot_sink=lambda k, flow: None,
                  observer=lambda k, flow: copies.append(len(calls)))
    assert copies == [0] * 21
    assert [id(f) for f in calls] == [id(summary.final_state.omega)]


def test_flow_states_build_psi_and_velocity_only_when_asked():
    """Neither the step, a record, a snapshot sink nor an observer that
    reads only omega builds a handed-out state's psi or velocity; asked
    for after the run, they are perp_gradient(solve_poisson(omega)) bit
    for bit."""
    g = Grid(16)
    spec = v.ShearLayerSpec(rho=30.0, delta=0.05, nu=1e-4)
    observed, snapped, records = [], [], []
    summary = run(v.shear_layer_init(g, spec),
                  RunConfig(n=16, dt=8e-4, nu=1e-4, t_final=8 * 8e-4,
                            snapshot_every=2),
                  series_sink=records.append,
                  snapshot_sink=lambda k, flow: snapped.append(flow),
                  observer=lambda k, flow: observed.append((flow,
                                                            flow.omega)))
    kept = [flow for flow, _ in observed] + snapped + [summary.final_state]
    assert len(observed) == len(records) == 9 and len(snapped) == 5
    assert all("psi" not in vars(f) and "vel" not in vars(f) for f in kept)
    for flow in kept:
        psi = solve_poisson(flow.omega)
        vel = perp_gradient(psi)
        assert flow.psi._half.tobytes() == psi._half.tobytes()
        for got, want in zip(flow.vel, vel):
            assert got._half.tobytes() == want._half.tobytes()


def test_node_values_asked_for_late_are_the_same_bits():
    """No state an observer keeps caches node values; every view asked for
    after the run is the irfft2 of its half spectrum, bit for bit, and
    each omega's cached max|omega| is taken from those bits. Grid.nodes()
    makes fresh coordinate arrays on each call."""
    g = Grid(32)
    spec = v.ShearLayerSpec(rho=30.0, delta=0.05, nu=1e-4)
    kept = []
    run(v.shear_layer_init(g, spec),
        RunConfig(n=32, dt=8e-4, nu=1e-4, t_final=12 * 8e-4),
        observer=lambda k, flow: kept.append(flow))
    assert len(kept) == 13
    cached = [[f._phys is not None for f in (flow.omega, *flow.vel)]
              for flow in kept]
    assert cached == [[False] * 3] * 13
    for flow in kept:
        p = _half_to_physical(g, flow.omega._half)
        assert _sup_norm(flow.omega) == max(p.max(), -p.min())
        for f in (flow.omega, flow.psi, *flow.vel):
            assert (f.physical.tobytes()
                    == _half_to_physical(g, f._half).tobytes())
    first, second = g.nodes(), g.nodes()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
        assert not np.shares_memory(a, b)


@pytest.mark.parametrize("name, value", [
    ("scheme", "imex_bdf3"), ("scheme", None), ("scheme", 3),
    ("dealias", "no"), ("dealias", 1), ("dealias", None)])
def test_run_config_refuses_a_scheme_or_dealias_of_the_wrong_type(name,
                                                                   value):
    """scheme must be a SchemeId and dealias a bool (a numpy bool too):
    a scheme's name once raised AttributeError and dealias="no" turned
    dealiasing on."""
    kw = dict(n=8, dt=1e-3, nu=1e-3, t_final=0.01)
    with pytest.raises(ConfigError, match=f"^{name} must be a "):
        RunConfig(**kw, **{name: value})
    assert RunConfig(**kw, dealias=np.True_).dealias
