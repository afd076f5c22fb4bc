"""Benchmark drivers: exact solutions, initial data, convergence tables."""

import tracemalloc

import numpy as np
import pytest

from vorspec import (
    ConfigError,
    ConvergenceRow,
    Grid,
    SHEAR_LAYER_CASES,
    ScalarField,
    ShearLayerSpec,
    TG_DT_LADDER,
    TaylorGreenSpec,
    convergence_csv,
    convergence_study,
    derivative,
    energy,
    l2_norm,
    make_state,
    mean,
    perp_gradient,
    shear_layer_init,
    solve_poisson,
    taylor_green_exact,
)
from vorspec import bench
from vorspec.bench import _ErrorAccumulator
from vorspec.integrators import RunConfig, run
from vorspec.spectral import _kinematic_error_table

from conftest import full_spectrum_sums


def test_dt_ladder_halves():
    assert TG_DT_LADDER == (0.02, 0.01, 0.005, 0.0025, 0.00125)
    for a, b in zip(TG_DT_LADDER, TG_DT_LADDER[1:]):
        assert a / b == pytest.approx(2.0)


def test_benchmark_case_table():
    thick_spec, thick_n, thick_dt = SHEAR_LAYER_CASES["thick"]
    assert (thick_spec.rho, thick_spec.nu) == (30.0, 1e-4)
    assert (thick_n, thick_dt) == (128, 8e-4)
    thin_spec, thin_n, thin_dt = SHEAR_LAYER_CASES["thin"]
    assert (thin_spec.rho, thin_spec.nu) == (100.0, 5e-5)
    assert (thin_n, thin_dt) == (256, 4e-4)


def test_taylor_green_samples_and_decay():
    g = Grid(32)
    spec = TaylorGreenSpec(nu=0.01, t=0.3)
    st = taylor_green_exact(g, spec)
    X, Y = g.nodes()
    decay = np.exp(-8 * 0.01 * np.pi**2 * 0.3)
    np.testing.assert_allclose(
        st.omega.physical,
        4 * np.pi * np.sin(2 * np.pi * X) * np.sin(2 * np.pi * Y) * decay,
        atol=1e-12)
    np.testing.assert_allclose(
        st.vel.x.physical,
        np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y) * decay, atol=1e-12)
    np.testing.assert_allclose(
        st.vel.y.physical,
        -np.cos(2 * np.pi * X) * np.sin(2 * np.pi * Y) * decay, atol=1e-12)
    assert st.time == 0.3
    assert energy(st) == pytest.approx(0.25 * decay**2, rel=1e-12)


def test_taylor_green_rejects_nonpositive_nu():
    with pytest.raises(ConfigError):
        TaylorGreenSpec(nu=0.0)
    with pytest.raises(ConfigError):
        ShearLayerSpec(rho=-1.0, delta=0.05, nu=1e-4)


@pytest.mark.parametrize("init", [
    lambda g: taylor_green_exact(g, TaylorGreenSpec(nu=1e-3)),
    lambda g: shear_layer_init(g, SHEAR_LAYER_CASES["thick"][0]),
], ids=["taylor-green", "shear-layer"])
def test_benchmarks_reject_a_non_unit_square(init):
    with pytest.raises(ConfigError, match="unit square"):
        init(Grid(16, length=2.0))


def test_shear_layer_init_matches_curl():
    g = Grid(64)
    spec = ShearLayerSpec(rho=30.0, delta=0.05, nu=1e-4)
    w = shear_layer_init(g, spec)
    assert abs(mean(w)) < 1e-15

    from vorspec import ScalarField

    X, Y = g.nodes()
    u = np.where(Y <= 0.5, np.tanh(30.0 * (Y - 0.25)),
                 np.tanh(30.0 * (0.75 - Y)))
    v = 0.05 * np.sin(2 * np.pi * X)
    want = (derivative(ScalarField.from_physical(g, v), "x")
            - derivative(ScalarField.from_physical(g, u), "y"))
    np.testing.assert_allclose(w.physical, want.physical, atol=1e-10)


def test_shear_layer_unperturbed_is_x_independent():
    g = Grid(64)
    w = shear_layer_init(g, ShearLayerSpec(rho=30.0, delta=0.0, nu=1e-4))
    phys = w.physical
    assert np.max(np.abs(phys - phys[:1, :])) < 1e-12


def test_convergence_study_rows_and_orders():
    rows = convergence_study(32, 1e-3, 1.0, dts=(0.01, 0.005, 0.0025))
    assert len(rows) == 9  # 3 step sizes x 3 variables
    by_var = {}
    for r in rows:
        assert isinstance(r, ConvergenceRow)
        assert not r.blown_up
        by_var.setdefault(r.variable, []).append(r)
    assert set(by_var) == {"omega", "psi", "u"}
    for var, per in by_var.items():
        assert per[0].order_linf is None  # no coarser row to compare with
        for r in per[1:]:
            assert 2.5 < r.order_linf < 3.5
            assert 2.5 < r.order_l2_h1 < 3.5


def test_convergence_study_propagates_blowup():
    # the coarse step sizes are unstable at this resolution; their rows must
    # carry infinite errors and orders touching them must be None
    rows = convergence_study(64, 1e-3, 1.0,
                             dts=(0.02, 0.0025, 0.00125))
    omega = [r for r in rows if r.variable == "omega"]
    assert omega[0].blown_up
    assert np.isinf(omega[0].err_linf_l2)
    assert omega[0].order_linf is None
    assert omega[1].order_linf is None  # previous level blew up
    assert not omega[1].blown_up
    assert omega[2].order_linf is not None


def test_convergence_study_marks_polluted_rows():
    # dt = 0.005 lies past the advective stability limit at N = 64 and
    # completes as noise; the rows after it are clean
    rows = convergence_study(64, 1e-3, 1.0, dts=(0.005, 0.0025, 0.00125))
    for var in ("omega", "psi", "u"):
        coarse, mid, fine = [r for r in rows if r.variable == var]
        assert (coarse.status, mid.status, fine.status) == \
            ("polluted", "ok", "ok")
        assert not coarse.blown_up and np.isfinite(coarse.err_linf_l2)
        assert mid.order_linf is None and mid.order_l2_h1 is None
        assert 2.7 <= fine.order_linf <= 3.3
        assert 2.7 <= fine.order_l2_h1 <= 3.3
    assert convergence_csv(rows).split("\n")[1].endswith(",polluted")


def test_convergence_study_needs_three_levels():
    with pytest.raises(ConfigError):
        convergence_study(32, 1e-3, 0.1, dts=(0.01, 0.005))


def test_convergence_csv_format():
    rows = [
        ConvergenceRow(dt=0.02, variable="omega", err_linf_l2=np.inf,
                       err_l2_h1=np.inf, order_linf=None, order_l2_h1=None,
                       blown_up=True),
        ConvergenceRow(dt=0.01, variable="omega", err_linf_l2=1e-3,
                       err_l2_h1=2e-3, order_linf=3.01, order_l2_h1=2.99),
    ]
    text = convergence_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "dt,variable,linf_l2,l2_h1,order_linf,order_l2h1,status"
    assert lines[1].split(",") == ["0.02", "omega", "inf", "inf", "", "",
                                   "blowup"]
    fields = lines[2].split(",")
    assert fields[:2] == ["0.01", "omega"]
    assert float(fields[2]) == 1e-3
    assert float(fields[4]) == 3.01
    assert fields[6] == "ok"


def test_repeated_step_size_rejected_before_any_run(monkeypatch):
    """Equal consecutive step sizes would give an order of 0/0; the study
    refuses them before its first run."""
    def never(*args, **kwargs):
        raise AssertionError("a rung ran before the ladder was checked")

    monkeypatch.setattr("vorspec.bench.run", never)
    with pytest.raises(ConfigError, match="consecutive step sizes must "
                                          "differ, got dt = 0.01 twice"):
        convergence_study(8, 1e-3, 0.1, dts=(0.01, 0.01, 0.005))
    with pytest.raises(ConfigError, match="dt = 0.005 twice"):
        convergence_study(8, 1e-3, 0.1, dts=(0.02, 0.01, 0.005, 0.005))


class _PerVariableErrors:
    """The convergence observation spelled out per variable, with one
    full-spectrum Parseval sum per error plane. With induced set, the psi and velocity
    errors are those omega's error induces, built by solve_poisson and
    perp_gradient; else each error is the difference of the step's field
    and the exact one, both built from their own omega."""

    def __init__(self, grid, nu, dt, induced):
        self.grid = grid
        self.exact0 = taylor_green_exact(grid, TaylorGreenSpec(nu=nu))
        self.nu, self.dt, self.induced = nu, dt, induced
        self.linf = {"omega": 0.0, "psi": 0.0, "u": 0.0}
        self.h1sq = {"omega": 0.0, "psi": 0.0, "u": 0.0}

    def _error_planes(self, flow, decay):
        ex = self.exact0
        if self.induced:
            err = ScalarField._adopt(self.grid, flow.omega._half
                                     - ex.omega._half * decay)
            psi = solve_poisson(err)
            fields = {"omega": [err], "psi": [psi], "u": perp_gradient(psi)}
            return {var: [f._half for f in fs] for var, fs in fields.items()}
        pairs = {"omega": [(flow.omega, ex.omega)],
                 "psi": [(flow.psi, ex.psi)],
                 "u": list(zip(flow.vel, ex.vel))}
        return {var: [num._half - exact._half * decay for num, exact in ps]
                for var, ps in pairs.items()}

    def observe(self, step, flow):
        decay = np.exp(-8.0 * self.nu * np.pi**2 * flow.time)
        for var, planes in self._error_planes(flow, decay).items():
            l2sq = h1sq = 0.0
            for err in planes:
                l2, h1 = full_spectrum_sums(self.grid, err, err)[:2]
                l2sq, h1sq = l2sq + l2, h1sq + h1
            self.linf[var] = max(self.linf[var], np.sqrt(l2sq))
            self.h1sq[var] += self.dt * h1sq

    def results(self):
        return {var: (self.linf[var], np.sqrt(self.h1sq[var]))
                for var in ("omega", "psi", "u")}


# 10 times the largest absolute difference measured between the
# observation and the difference-of-fields oracle over both cases below
# (2.0e-16, u's accumulated H1 error at N = 16; at N = 64 7.6e-18 for psi
# and 1.0e-16 for u): psi's and u's errors taken as differences of two
# rounded fields carry about one ulp of psi's coefficients
_DIFFERENCE_ORACLE_BOUND = 2e-15


@pytest.mark.parametrize("n, dt", [(16, 0.01), (64, 0.00125)])
def test_error_observation_matches_per_variable_oracles(n, dt):
    """One observation of omega's error plane gives the errors of the
    per-variable arithmetic on the errors it induces to 1e-13 relative,
    and those of the difference-of-fields arithmetic to roundoff, on a
    stable rung with nonzero errors."""
    nu = 1e-3
    grid = Grid(n)
    exact0 = taylor_green_exact(grid, TaylorGreenSpec(nu=nu))
    acc = _ErrorAccumulator(exact0.omega._half, _kinematic_error_table(grid),
                            nu, dt)
    induced = _PerVariableErrors(grid, nu, dt, induced=True)
    differences = _PerVariableErrors(grid, nu, dt, induced=False)

    def observe(k, flow):
        for obs in (acc, induced, differences):
            obs.observe(k, flow)

    run(exact0.omega, RunConfig(n=n, dt=dt, nu=nu, t_final=40 * dt),
        observer=observe)
    got = acc.results()
    assert set(got) == {"omega", "psi", "u"}
    for var in got:
        for g, w, d in zip(got[var], induced.results()[var],
                           differences.results()[var]):
            assert w > 0
            assert abs(g - w) <= 1e-13 * w, (var, g, w)
            assert abs(g - d) <= _DIFFERENCE_ORACLE_BOUND, (var, g, d)


@pytest.mark.parametrize("n", [16, 64])
def test_a_rung_holds_one_error_plane(n):
    """Beside what the study shares (the exact omega and the table), a
    rung's accumulator holds one (N, N//2 + 1) plane of its own, and a warm
    observation allocates no plane."""
    nu = 1e-3
    grid = Grid(n)
    exact0 = taylor_green_exact(grid, TaylorGreenSpec(nu=nu))
    shared = (exact0.omega._half, _kinematic_error_table(grid))
    first, acc = (_ErrorAccumulator(*shared, nu, dt) for dt in (0.01, 0.005))
    theirs = [a for a in vars(first).values() if isinstance(a, np.ndarray)]
    own = [a for a in vars(acc).values() if isinstance(a, np.ndarray)
           and not any(np.shares_memory(a, b) for b in theirs)]
    assert [(a.shape, a.dtype) for a in own] == [
        ((n, n // 2 + 1), np.complex128)]

    flow = make_state(exact0.omega * 0.5, 0.1)
    acc.observe(1, flow)
    tracemalloc.start()
    try:
        acc.observe(2, flow)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4096


def test_a_study_binds_one_pass_per_rung(monkeypatch):
    """convergence_study binds its error pass once per rung, when the
    rung's accumulator is made, and observes every step through it."""
    binds, observed = [], []
    bind, observe = bench._parseval_pass, _ErrorAccumulator.observe

    def counted_bind(*args):
        binds.append(args)
        return bind(*args)

    def counted_observe(self, step, flow):
        observed.append(len(binds))
        return observe(self, step, flow)

    monkeypatch.setattr(bench, "_parseval_pass", counted_bind)
    monkeypatch.setattr(_ErrorAccumulator, "observe", counted_observe)
    dts = (0.01, 0.005, 0.0025)
    convergence_study(16, 1e-3, 0.02, dts=dts)
    assert [(len(table), n) for table, n, _ in binds] == [(6, 1)] * 3
    assert observed == [rung for rung, dt in enumerate(dts, 1)
                        for _ in range(round(0.02 / dt) + 1)]


def test_convergence_observation_costs_no_transform(monkeypatch, fft_calls):
    """Inside a whole study, every main-loop interval between observations
    holds one step's four 1-D transform passes, and the error observation
    itself makes none."""
    intervals = []
    observe = _ErrorAccumulator.observe

    def counted_observe(self, step, flow):
        intervals.append((step, fft_calls.take()))
        observe(self, step, flow)
        assert fft_calls == {}, step

    monkeypatch.setattr(_ErrorAccumulator, "observe", counted_observe)
    rows = convergence_study(16, 1e-3, 0.1)
    assert {r.status for r in rows} == {"ok"}
    main_loop = [c for step, c in intervals if step >= 3]
    # five rungs of 5, 10, 20, 40 and 80 steps
    assert len(main_loop) == 3 + 8 + 18 + 38 + 78
    for c in main_loop:
        assert c == fft_calls.STEP


_VALID_SPECS = {TaylorGreenSpec: {"nu": 1e-3, "t": 0.5},
                ShearLayerSpec: {"rho": 30.0, "delta": 0.05, "nu": 1e-4}}


@pytest.mark.parametrize("spec, name, value", [
    (TaylorGreenSpec, "t", float("nan")), (TaylorGreenSpec, "t", float("inf")),
    (TaylorGreenSpec, "t", -float("inf")),
    (TaylorGreenSpec, "nu", float("nan")),
    (TaylorGreenSpec, "nu", float("inf")),
    (ShearLayerSpec, "nu", float("inf"))])
def test_specs_refuse_non_finite_values(spec, name, value):
    """TaylorGreenSpec as ShearLayerSpec does, and both for nu: t = nan
    once built an all-NaN vortex, and nu = inf passed the positivity
    check."""
    with pytest.raises(ConfigError, match=f"^{name} must be finite"):
        spec(**{**_VALID_SPECS[spec], name: value})
