"""Diagnostics: telescope coefficients, norms, functionals, records."""

import tracemalloc

import numpy as np
import pytest

from vorspec import diagnostics, integrators, spectral
from vorspec import (
    Grid,
    GridMismatchError,
    RunConfig,
    ScalarField,
    SchemeId,
    SeriesRecord,
    SHEAR_LAYER_CASES,
    TaylorGreenSpec,
    bdf3_stencil,
    div_error,
    energy,
    enstrophy,
    get_telescope_coefficients,
    hm_norm,
    l2_norm,
    make_record,
    make_state,
    run,
    shear_layer_init,
    stability_F,
    stability_G1,
    taylor_green_exact,
    verify_telescope,
)
from vorspec.diagnostics import _SOLUTIONS, _telescope_residual
from vorspec.spectral import _parseval_table

from conftest import full_spectrum_sums


# --- telescope coefficients --------------------------------------------------


@pytest.fixture(scope="module")
def coeffs():
    return get_telescope_coefficients()


def test_solver_residual(coeffs):
    assert coeffs.residual < 1e-12


def test_canonical_signs(coeffs):
    a = coeffs.alpha
    assert a[0] > 0
    assert a[1] >= 0
    assert a[3] >= 0
    assert a[6] >= 0


def test_sum_constraint(coeffs):
    assert abs(sum(coeffs.alpha[6:10])) < 1e-12


def test_square_coefficient_sum(coeffs):
    # the a^2 coefficient of the decomposition must equal that of the
    # stencil product: 11/6 * 2 = 11/3
    a = coeffs.alpha
    total = a[0] ** 2 + a[1] ** 2 + a[3] ** 2 + a[6] ** 2
    assert total == pytest.approx(11.0 / 3.0, abs=1e-10)


def test_identity_on_random_tuples(coeffs, rng):
    a = np.array(coeffs.alpha)
    for _ in range(200):
        w = rng.normal(size=4) * 3.0
        lhs = bdf3_stencil(*w) * (2.0 * w[0] - w[1])

        def P(x, y, z):
            return ((a[0] * x) ** 2 + (a[1] * x + a[2] * y) ** 2
                    + (a[3] * x + a[4] * y + a[5] * z) ** 2)

        rhs = (P(w[0], w[1], w[2]) - P(w[1], w[2], w[3])
               + (a[6] * w[0] + a[7] * w[1] + a[8] * w[2] + a[9] * w[3]) ** 2)
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_verify_telescope_residual(coeffs):
    assert verify_telescope(coeffs, trials=500) <= 1e-10


def test_verify_rejects_zero_trials(coeffs):
    with pytest.raises(ValueError):
        verify_telescope(coeffs, trials=0)


def test_verify_telescope_matches_a_per_tuple_loop(coeffs):
    """The chunked array form gives the per-tuple loop's worst residual bit
    for bit over the same draws; at this count the scalar form sets it."""
    a = np.array(coeffs.alpha)

    def P(x, y, z):
        return ((a[0] * x) ** 2 + (a[1] * x + a[2] * y) ** 2
                + (a[3] * x + a[4] * y + a[5] * z) ** 2)

    worst = 0.0
    rng = np.random.default_rng(diagnostics._VERIFY_SEED)
    for w in rng.normal(size=(1000, 4)) * 3.0:
        lhs = bdf3_stencil(*w) * (2.0 * w[0] - w[1])
        rhs = (P(w[0], w[1], w[2]) - P(w[1], w[2], w[3])
               + (a[6] * w[0] + a[7] * w[1] + a[8] * w[2] + a[9] * w[3]) ** 2)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    assert verify_telescope(coeffs, trials=1000) == worst


def test_verify_telescope_does_not_depend_on_the_chunk_size(coeffs,
                                                            monkeypatch):
    whole = verify_telescope(coeffs, trials=1000)
    assert type(whole) is float
    monkeypatch.setattr(diagnostics, "_VERIFY_CHUNK", 7)
    assert verify_telescope(coeffs, trials=1000) == whole


def test_verify_telescope_memory_stays_bounded(coeffs, monkeypatch):
    """The scalar check draws and checks its tuples a chunk at a time, so
    the traced peak stays far below the trials x 4 doubles of one draw."""
    monkeypatch.setattr(diagnostics, "_VERIFY_CHUNK", 1000)
    verify_telescope(coeffs, trials=1)  # first-call imports and tables
    trials = 200_000
    tracemalloc.start()
    try:
        residual = verify_telescope(coeffs, trials)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert residual <= 1e-10
    assert peak < trials * 32 / 10


def test_composite_constants_positive(coeffs):
    assert coeffs.alpha1_star > 0
    assert coeffs.alpha2_star > 0
    assert coeffs.alpha3_star > 0


# the alphas a multi-start Gauss-Newton search found (64 starts, seed 7381),
# printed with %.17g: an independent reference for the closed form
SEARCHED_ALPHAS = (
    0.160048343646324, 0.20737576393772242, -0.2422938134001994,
    1.3059040764247436, -0.86032780215009064, 0.24229381340019659,
    1.3757401753496983, -1.9937741640995932, 0.86032780215009141,
    -0.24229381340019646)


def test_closed_form_solves_the_system():
    for a in _SOLUTIONS:
        assert np.max(np.abs(_telescope_residual(a))) <= 1e-15
        assert a[2] == -a[5] and a[9] == -a[5]
        assert a[0] > 0 and a[1] >= 0 and a[3] >= 0 and a[6] >= 0


def test_closed_form_matches_searched_alphas(coeffs):
    assert coeffs.alpha == _SOLUTIONS[0]
    np.testing.assert_allclose(coeffs.alpha, SEARCHED_ALPHAS, rtol=1e-13,
                               atol=0)


def test_closed_form_covers_every_real_root(coeffs):
    # each real solution has a6 at a real root of 9x^4 - 9x^3 - 3x^2 - 3x + 1
    roots = np.roots([9.0, -9.0, -3.0, -3.0, 1.0])
    is_complex = np.abs(roots.imag) > 0.1
    assert np.count_nonzero(is_complex) == 2
    real = np.sort(roots[~is_complex].real)
    a6 = np.sort([sol[5] for sol in _SOLUTIONS])
    np.testing.assert_allclose(a6, real, rtol=0, atol=1e-12)
    assert coeffs.distinct_solutions == real.size


def test_distinct_canonical_solutions(coeffs):
    # the constrained system has a known finite solution set
    assert coeffs.distinct_solutions == 2


def test_bdf3_stencil_annihilates_constants():
    assert bdf3_stencil(3.0, 3.0, 3.0, 3.0) == pytest.approx(0.0, abs=1e-15)


def test_bdf3_stencil_derivative_weights():
    # exact for cubics: stencil at equal spacing reproduces f'(t) * dt
    ts = np.array([3.0, 2.0, 1.0, 0.0])
    f = ts**3 - 2 * ts**2 + 5
    got = bdf3_stencil(*f)
    want = 3 * 9.0 - 4 * 3.0  # f'(3) with dt = 1
    assert got == pytest.approx(want, rel=1e-13)


# --- norms -------------------------------------------------------------------


def test_hm_norm_orders(noise):
    g = Grid(16)
    f = noise(g)
    assert hm_norm(f, 0) == pytest.approx(l2_norm(f), rel=1e-13)
    # on a single mode, each order multiplies by 2 pi |k|
    X, _ = g.nodes()
    s = ScalarField.from_physical(g, np.sin(2 * np.pi * 3 * X))
    ratio = hm_norm(s, 1) / hm_norm(s, 0)
    assert ratio == pytest.approx(2 * np.pi * 3, rel=1e-12)
    ratio2 = hm_norm(s, 2) / hm_norm(s, 0)
    assert ratio2 == pytest.approx((2 * np.pi * 3) ** 2, rel=1e-12)


def test_hm_norm_rejects_negative_order(noise):
    with pytest.raises(ValueError):
        hm_norm(noise(Grid(8)), -1)
    with pytest.raises(ValueError, match="nonnegative integer"):
        hm_norm(noise(Grid(8)), 0.5)
    with pytest.raises(ValueError, match="nonnegative integer"):
        hm_norm(noise(Grid(8)), 1.5)


def test_taylor_green_invariants():
    g = Grid(32)
    st = taylor_green_exact(g, TaylorGreenSpec(nu=1e-3))
    assert l2_norm(st.omega) == pytest.approx(2 * np.pi, rel=1e-13)
    assert energy(st) == pytest.approx(0.25, rel=1e-13)
    assert enstrophy(st) == pytest.approx(2 * np.pi**2, rel=1e-13)
    assert div_error(st) < 1e-13


@pytest.mark.parametrize("length", [1.0, 2.0])
@pytest.mark.parametrize("n", [15, 16])
def test_energy_is_half_the_built_velocitys_squared_norm(noise, n, length):
    """energy weighs omega's squares by Parseval and builds no velocity;
    it is half the squared norm of the velocity the state builds, by node
    sums, Nyquist content included (the first-derivative symbols zero it
    on the velocity's side)."""
    g = Grid(n, length=length)
    for _ in range(3):
        st = make_state(noise(g, nyquist_free=False), 0.0)
        got = energy(st)
        assert "vel" not in vars(st)
        want = 0.5 * (l2_norm(st.vel.x) ** 2 + l2_norm(st.vel.y) ** 2)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


# --- stability functionals -----------------------------------------------------


def test_stability_f_constant_history(coeffs, noise):
    """With all levels equal the difference terms drop and F collapses to
    a computable multiple of the norms."""
    g = Grid(16)
    w = noise(g)
    nu, dt = 0.02, 0.01
    a = coeffs.alpha
    F = stability_F([w, w, w], nu=nu, dt=dt)
    l2sq = l2_norm(w) ** 2
    h1sq = hm_norm(w, 1) ** 2
    want = ((a[0] ** 2 + (a[1] + a[2]) ** 2 + (a[3] + a[4] + a[5]) ** 2) * l2sq
            + nu * dt * (7.0 / 4.0 + 15.0 / 32.0 + 13.0 / 64.0) * h1sq)
    assert F == pytest.approx(want, rel=1e-12)


def test_stability_g1_constant_history(coeffs, noise):
    g = Grid(16)
    w = noise(g)
    nu, dt = 0.02, 0.01
    a = coeffs.alpha
    G1 = stability_G1([w, w, w], nu=nu, dt=dt)
    h1sq = hm_norm(w, 1) ** 2
    h2sq = hm_norm(w, 2) ** 2
    want = ((a[0] ** 2 + (a[1] + a[2]) ** 2 + (a[3] + a[4] + a[5]) ** 2) * h1sq
            + nu * dt * (37.0 / 24.0 + 17.0 / 48.0 + 17.0 / 96.0) * h2sq)
    assert G1 == pytest.approx(want, rel=1e-12)


def test_stability_f_bounds_l2_norm(coeffs, noise):
    # F >= alpha1^2 ||w||^2 by positivity of the remaining terms
    g = Grid(16)
    for _ in range(10):
        hist = [noise(g) for _ in range(3)]
        F = stability_F(hist, nu=0.01, dt=0.01)
        assert l2_norm(hist[0]) ** 2 <= F / coeffs.alpha[0] ** 2 + 1e-12


def test_short_history_padding(coeffs, noise):
    g = Grid(16)
    w = noise(g)
    one = stability_F([w], nu=0.01, dt=0.01)
    three = stability_F([w, w, w], nu=0.01, dt=0.01)
    assert one == pytest.approx(three, rel=1e-14)
    with pytest.raises(ValueError):
        stability_F([], nu=0.01, dt=0.01)


# --- series records -------------------------------------------------------------


def test_series_record_field_order():
    assert SeriesRecord.FIELDS == ("t", "l2_omega", "h1_omega", "energy",
                                   "enstrophy", "div_error", "max_omega",
                                   "F", "G1")


def test_make_record_values(coeffs):
    g = Grid(32)
    st = taylor_green_exact(g, TaylorGreenSpec(nu=1e-3))
    rec = make_record(st, history=[st.omega], nu=1e-3, dt=0.01)
    assert rec.t == 0.0
    assert rec.l2_omega == pytest.approx(2 * np.pi, rel=1e-13)
    assert rec.energy == pytest.approx(0.25, rel=1e-13)
    assert rec.enstrophy == pytest.approx(2 * np.pi**2, rel=1e-13)
    assert rec.max_omega == pytest.approx(4 * np.pi, rel=1e-12)
    assert rec.values() == tuple(getattr(rec, k) for k in SeriesRecord.FIELDS)
    assert rec.F > 0 and rec.G1 > 0


def test_make_record_defaults_to_the_current_vorticity(noise):
    st = make_state(noise(Grid(16)), 0.3)
    assert (make_record(st, nu=1e-3, dt=0.01)
            == make_record(st, history=[st.omega], nu=1e-3, dt=0.01))


def reference_functionals(history, nu, dt, coeffs):
    """(F, G1) by the per-mode density formula on half spectra, kept here
    as the reference for the Gram-matrix form in the package."""
    a = coeffs.alpha
    hist = list(history) + [history[-1]] * (3 - len(history))
    g = hist[0].grid
    w0, w1, w2 = (f._half for f in hist)
    p0, p1, p2, c1, c2, d1, d2 = (
        x.real**2 + x.imag**2
        for x in (w0, w1, w2, a[1] * w0 + a[2] * w1,
                  a[3] * w0 + a[4] * w1 + a[5] * w2, w0 - w1, w1 - w2))
    ksq = g._ksq
    base = a[0]**2 * p0 + c1 + c2
    f_density = (base + 7.0 / 8.0 * d1 + 5.0 / 24.0 * d2
                 + nu * dt * ksq * (7.0 / 4.0 * p0 + 15.0 / 32.0 * p1
                                    + 13.0 / 64.0 * p2))
    g1_density = ksq * (base + 5.0 / 6.0 * d1 + 1.0 / 6.0 * d2
                        + nu * dt * ksq * (37.0 / 24.0 * p0
                                           + 17.0 / 48.0 * p1
                                           + 17.0 / 96.0 * p2))
    # every column but l = 0 and the even-N Nyquist column has a conjugate
    weight = np.full(g.n // 2 + 1, 2.0)
    weight[0] = 1.0
    if g.n % 2 == 0:
        weight[-1] = 1.0
    scale = g.length**2
    return (scale * float(f_density.sum(axis=0) @ weight),
            scale * float(g1_density.sum(axis=0) @ weight))


def _histories(g, noise):
    """Random histories, then nearly equal ones (w, w + e d, w + 2 e d)."""
    yield [noise(g, nyquist_free=False) for _ in range(3)]
    w, d = noise(g, nyquist_free=False), noise(g, nyquist_free=False)
    for eps in (1e-3, 1e-6, 1e-9):
        yield [w, w + eps * d, w + 2.0 * eps * d]


@pytest.mark.parametrize("n", [15, 16, 64])
def test_functionals_match_per_mode_reference(coeffs, noise, n):
    nu, dt = 0.02, 0.01
    for length in (1.0, 2.0):
        for hist in _histories(Grid(n, length=length), noise):
            for levels in (hist, hist[:2], hist[:1]):
                want = reference_functionals(levels, nu, dt, coeffs)
                got = (stability_F(levels, nu=nu, dt=dt),
                       stability_G1(levels, nu=nu, dt=dt))
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n", [15, 16])
def test_make_record_columns_match_standalone_functions(coeffs, noise, n):
    g = Grid(n, length=2.0)
    hist = [noise(g, nyquist_free=False) for _ in range(3)]
    st = make_state(hist[0], 0.5)
    hist[0] = st.omega
    nu, dt = 1e-3, 0.01
    rec = make_record(st, history=hist, nu=nu, dt=dt)
    # the norms are taken of copies, so none comes from a cache the record
    # filled; div_error is roundoff of this very state and caches nothing
    fresh = [ScalarField.from_physical(g, f.physical) for f in hist]
    fst = make_state(fresh[0], 0.5)
    want = dict(l2_omega=l2_norm(fst.omega), h1_omega=hm_norm(fst.omega, 1),
                energy=energy(fst), enstrophy=enstrophy(fst),
                div_error=div_error(st),
                F=stability_F(fresh, nu=nu, dt=dt),
                G1=stability_G1(fresh, nu=nu, dt=dt),
                max_omega=float(np.max(np.abs(st.omega.physical))))
    assert (rec.F, rec.G1) == pytest.approx(
        reference_functionals(hist, nu, dt, coeffs), rel=1e-13, abs=0.0)
    for name, value in want.items():
        assert getattr(rec, name) == pytest.approx(value, rel=1e-13,
                                                   abs=1e-300), name
    assert rec.t == 0.5


@pytest.mark.parametrize("other", [Grid(16, length=2.0), Grid(8)])
def test_functionals_reject_levels_on_another_grid(coeffs, noise, other):
    g = Grid(16)
    a, c = noise(g), noise(g)
    b = noise(other)
    for fn in (stability_F, stability_G1):
        with pytest.raises(GridMismatchError):
            fn([a, b, c], nu=1e-3, dt=1e-3)
    with pytest.raises(GridMismatchError):
        make_record(make_state(a, 0.0), history=[a, c, b], nu=1e-3, dt=1e-3)
    # the state's grid counts, not only the first level's
    with pytest.raises(GridMismatchError):
        make_record(make_state(a, 0.0), history=[b], nu=1e-3, dt=1e-3)


def test_div_error_reads_the_norm_the_step_took(noise):
    """div_error is the Parseval norm of the divergence spectrum bit for
    bit, on a fresh state and on the flow states of run(), where the
    convection's precondition left it cached on omega, the vorticity that
    induces the velocity."""
    from vorspec.spectral import _half_norm_sq

    def formula(st):
        g = st.grid
        div = (st.vel.x._half * g._d1x
               + st.vel.y._half * g._d1y)
        return float(np.sqrt(_half_norm_sq(g, div)))

    g = Grid(16)
    st = make_state(noise(g, nyquist_free=False), 0.0)
    assert "div" not in st.omega._norms
    assert div_error(st) == formula(st)
    flows = []
    run(noise(g), RunConfig(n=16, dt=1e-3, nu=1e-3, t_final=0.005),
        observer=lambda k, flow: flows.append(flow))
    assert len(flows) == 6
    for flow in flows:
        assert "div" in flow.omega._norms
        assert div_error(flow) == formula(flow)


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
@pytest.mark.parametrize("n", [16, 64])
def test_run_records_match_the_oracles(coeffs, noise, n, scheme):
    """Records made inside a run of each scheme with active convection, one
    every step, startup steps included: F and G1 match the per-mode
    reference over the run's own three newest levels, and h1_omega the
    full-spectrum sum of a fresh copy of the vorticity."""
    g = Grid(n)
    nu, dt = 1e-3, 1e-3
    omegas = []
    summary = run(noise(g), RunConfig(n=n, dt=dt, nu=nu, t_final=0.01,
                                      scheme=scheme),
                  observer=lambda k, flow: omegas.append(flow.omega))
    assert len(summary.records) == len(omegas) == 11
    for k, rec in enumerate(summary.records):
        hist = omegas[max(0, k - 2):k + 1][::-1]
        assert (rec.F, rec.G1) == pytest.approx(
            reference_functionals(hist, nu, dt, coeffs), rel=1e-13, abs=0.0)
        fresh = np.array(omegas[k]._half)
        assert rec.h1_omega == pytest.approx(
            np.sqrt(full_spectrum_sums(g, fresh, fresh)[1]), rel=1e-14,
            abs=0.0)


# observers that take norms of a step's vorticity before its record does
_NORM_TAKERS = {
    "none": None,
    "h1": lambda k, flow: hm_norm(flow.omega, 1),
    "h2": lambda k, flow: hm_norm(flow.omega, 2),
    "F": lambda k, flow: stability_F([flow.omega], nu=1e-4, dt=8e-4),
    "record": lambda k, flow: make_record(flow),
}


def test_records_do_not_depend_on_cadence_or_observers():
    """Thick layer, N = 32, 42 steps: a record at step k is the every-step,
    unobserved run's record at k bit for bit, whatever the cadence and
    whichever norms an observer took first; each norm has one producer."""
    spec, _, dt = SHEAR_LAYER_CASES["thick"]
    omega0 = shear_layer_init(Grid(32), spec)

    def records(every, observer):
        cfg = RunConfig(n=32, dt=dt, nu=spec.nu, t_final=42 * dt,
                        series_every=every)
        return run(omega0, cfg, observer=observer).records

    want = records(1, None)
    for every in (1, 3, 7, 10):
        for name, observer in _NORM_TAKERS.items():
            got = records(every, observer)
            steps = [round(r.t / dt) for r in got]
            assert steps == sorted({*range(0, 43, every), 42}), (every, name)
            for k, rec in zip(steps, got):
                assert rec == want[k], (every, name, k)


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
def test_record_history_is_the_observed_fields(monkeypatch, noise, scheme):
    """The history each record is handed holds the very ScalarFields the
    observer saw at steps k, k-1 and k-2, in every scheme: run() keeps no
    copy of its own and rebuilds no level."""
    omegas, histories = [], []

    def recording(state, history, *args, **kwargs):
        histories.append(list(history))
        return make_record(state, history, *args, **kwargs)

    monkeypatch.setattr(integrators, "make_record", recording)
    run(noise(Grid(16)), RunConfig(n=16, dt=1e-3, nu=1e-3, t_final=0.006,
                                   scheme=scheme),
        observer=lambda k, flow: omegas.append(flow.omega))
    assert len(histories) == len(omegas) == 7
    for k, hist in enumerate(histories):
        expected = omegas[max(0, k - 2):k + 1][::-1]
        assert [id(f) for f in hist] == [id(f) for f in expected]


@pytest.mark.parametrize("scheme", list(SchemeId), ids=lambda s: s.value)
@pytest.mark.parametrize("n", [15, 16])
def test_run_records_are_the_per_call_records(noise, n, scheme):
    """Every record run() makes through the passes it binds once is, bit
    for bit, the record the public per-call path makes, make_record(flow,
    levels, nu, dt), on the levels the observer saw, and on fresh copies
    of them, whose norms are not cached yet, so each pass runs again."""
    g = Grid(n)
    nu = dt = 1e-3
    flows = []
    summary = run(noise(g, nyquist_free=False), RunConfig(
        n=n, dt=dt, nu=nu, t_final=0.01, scheme=scheme),
        observer=lambda k, flow: flows.append(flow))
    omegas = [flow.omega for flow in flows]
    assert len(summary.records) == len(flows) == 11
    for k, rec in enumerate(summary.records):
        levels = omegas[max(0, k - 2):k + 1][::-1]
        fresh = [ScalarField._adopt(g, np.array(f._half)) for f in levels]
        for state, hist in ((flows[k], levels),
                            (make_state(fresh[0], flows[k].time), fresh)):
            want = make_record(state, hist, nu, dt)
            assert (np.array(rec.values()).tobytes()
                    == np.array(want.values()).tobytes()), (k, rec, want)


def _counted(monkeypatch, owner, name):
    """The calls, as argument tuples, of owner.name from here on."""
    calls, fn = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_run_binds_its_record_passes_once(monkeypatch, noise):
    """A 40-step run with a record every step binds the record's passes
    once, at its first record, through integrators.make_record: one
    _record_passes call, whose cross and norm passes are the only
    _parseval_pass binds; no record binds again."""
    binds = _counted(monkeypatch, diagnostics, "_parseval_pass")
    per_call = _counted(monkeypatch, spectral, "_parseval_pass")
    passes = _counted(monkeypatch, integrators, "_record_passes")
    records = _counted(monkeypatch, integrators, "make_record")
    bound = []  # binds seen by each step's observer, before its record
    run(noise(Grid(16)), RunConfig(n=16, dt=1e-3, nu=1e-3, t_final=0.04),
        observer=lambda k, flow: bound.append(len(passes)))
    assert len(records) == 41
    assert bound == [0] + [1] * 40
    assert [(len(table), n) for table, n, _ in binds] == [(3, 3), (4, 1)]
    assert per_call == []


# traced bytes a record may add, measured at about 2.4 kB a record and
# 2.9 kB over a run; its five product planes at N = 128 are 665 kB
_RECORD_TRACE_BOUND = 16384


def test_records_allocate_no_product_buffer(noise):
    """At N = 128 a record every step raises a run's traced peak over
    records-off by less than the bound, and each record's own traced peak
    stays below it: the products go into the run's scratch stack."""
    g = Grid(128)
    omega0 = noise(g)
    _parseval_table(g)  # built once per grid, by either run's first record

    def cfg(every=1):
        return RunConfig(n=128, dt=1e-3, nu=1e-3, t_final=0.01,
                         series_every=every)

    base, record_peaks, peaks = [], [], {}

    def observe(k, flow):
        base.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()

    def sink(rec):
        record_peaks.append(tracemalloc.get_traced_memory()[1] - base[-1])

    tracemalloc.start()
    try:
        for every in (10, 1):
            tracemalloc.reset_peak()
            run(omega0, cfg(every))
            peaks[every] = tracemalloc.get_traced_memory()[1]
        run(omega0, cfg(), observer=observe, series_sink=sink)
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[10] < _RECORD_TRACE_BOUND
    assert len(record_peaks) == 11
    assert max(record_peaks) < _RECORD_TRACE_BOUND
