"""Benchmark problems and the temporal convergence study.

Two classical doubly periodic test flows on the unit square:

* Taylor-Green vortex: u = sin(2 pi x) cos(2 pi y) exp(-8 nu pi^2 t),
  v = -cos(2 pi x) sin(2 pi y) exp(-8 nu pi^2 t). The convection term
  vanishes identically, so each Fourier mode decays exactly and the flow
  doubles as a strict correctness oracle for the time integrators.
* Double shear layer: two tanh layers of thickness 1/rho at y = 0.25 and
  y = 0.75, perturbed by v = delta sin(2 pi x); rolls up into vortices and
  stresses long-time robustness of the convection discretization.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import BlowUpError, ConfigError
from .fields import FlowState, _check_finite, make_state
from .integrators import RunConfig, SchemeId, run
from .output import format_float
from .spectral import (Grid, ScalarField, _half_norm_sq,
                       _kinematic_error_table, _parseval_pass, derivative)

__all__ = [
    "TaylorGreenSpec",
    "ShearLayerSpec",
    "SHEAR_LAYER_CASES",
    "taylor_green_exact",
    "shear_layer_init",
    "ConvergenceRow",
    "convergence_study",
    "convergence_csv",
    "TG_DT_LADDER",
    "POLLUTED_TAIL_FRACTION",
]

# the acceptance ladder for the temporal order study
TG_DT_LADDER = (0.02, 0.01, 0.005, 0.0025, 0.00125)

# a completed run whose final vorticity holds more than this share of its
# enstrophy in the band the 2/3 rule cuts is noise: on the decaying vortex
# at N = 64 clean runs hold below 1e-31 there, a run past the advective
# stability limit (dt = 0.005) 1e-3 to 0.5 (roundoff seeds it)
POLLUTED_TAIL_FRACTION = 1e-10


@dataclass(frozen=True)
class TaylorGreenSpec:
    """Viscosity and evaluation time of the exact vortex solution."""

    nu: float
    t: float = 0.0

    def __post_init__(self):
        _check_finite(self, ("nu", "t"))
        if not (self.nu > 0):
            raise ConfigError(f"nu must be positive, got {self.nu}")

    @property
    def decay(self) -> float:
        return float(np.exp(-8.0 * self.nu * np.pi**2 * self.t))


@dataclass(frozen=True)
class ShearLayerSpec:
    """Layer sharpness rho, perturbation amplitude delta, viscosity nu."""

    rho: float
    delta: float
    nu: float

    def __post_init__(self):
        _check_finite(self, ("rho", "delta", "nu"))
        if not (self.rho > 0):
            raise ConfigError(f"rho must be positive, got {self.rho}")
        if self.delta < 0:
            raise ConfigError(f"delta must be nonnegative, got {self.delta}")
        if not (self.nu > 0):
            raise ConfigError(f"nu must be positive, got {self.nu}")


# benchmark cases with their reference grid size and step
SHEAR_LAYER_CASES = {
    "thick": (ShearLayerSpec(rho=30.0, delta=0.05, nu=1e-4), 128, 8e-4),
    "thin": (ShearLayerSpec(rho=100.0, delta=0.05, nu=5e-5), 256, 4e-4),
}


def taylor_green_exact(grid: Grid, spec: TaylorGreenSpec) -> FlowState:
    """Exact vortex state at spec.t, assembled through the discrete kinematics.

    The vorticity 4 pi sin(2 pi x) sin(2 pi y) exp(-8 nu pi^2 t) is sampled
    analytically; stream function and velocity then come from the discrete
    Poisson solve, which reproduces the analytic fields to roundoff because
    the data is a single resolved Fourier mode.
    """
    if grid.length != 1.0:
        raise ConfigError("the Taylor-Green benchmark is set on the unit square")
    X, Y = grid.nodes()
    w = 4.0 * np.pi * np.sin(2.0 * np.pi * X) * np.sin(2.0 * np.pi * Y) * spec.decay
    return make_state(ScalarField.from_physical(grid, w), spec.t)


def shear_layer_init(grid: Grid, spec: ShearLayerSpec) -> ScalarField:
    """Initial vorticity of the double shear layer benchmark.

    The velocity profile u = tanh(rho (y - 1/4)) for y <= 1/2 and
    u = tanh(rho (3/4 - y)) for y > 1/2, v = delta sin(2 pi x), is sampled
    pointwise; the vorticity D_x v - D_y u is then formed spectrally and its
    mean projected to zero.
    """
    if grid.length != 1.0:
        raise ConfigError("the shear layer benchmark is set on the unit square")
    X, Y = grid.nodes()
    u = np.where(Y <= 0.5,
                 np.tanh(spec.rho * (Y - 0.25)),
                 np.tanh(spec.rho * (0.75 - Y)))
    v = spec.delta * np.sin(2.0 * np.pi * X)
    w = derivative(ScalarField.from_physical(grid, v), "x", 1) \
        - derivative(ScalarField.from_physical(grid, u), "y", 1)
    w_h = np.array(w._half)
    w_h[0, 0] = 0.0
    return ScalarField._adopt(grid, w_h)


@dataclass(frozen=True)
class ConvergenceRow:
    """One (step size, variable) entry of the temporal convergence table.

    A level whose run blows up is kept in the table with infinite errors
    and blown_up set, so one unstable step size does not hide the behavior
    of the others. A level whose run completes as noise (see
    POLLUTED_TAIL_FRACTION) keeps its errors and has polluted set. Orders
    touching a level that is not ok are None.
    """

    dt: float
    variable: str
    err_linf_l2: float
    err_l2_h1: float
    order_linf: Optional[float]
    order_l2_h1: Optional[float]
    blown_up: bool = False
    polluted: bool = False

    @property
    def status(self) -> str:
        """'blowup', 'polluted' or 'ok'."""
        if self.blown_up:
            return "blowup"
        return "polluted" if self.polluted else "ok"


class _ErrorAccumulator:
    """Per-step error tracking against the exact decaying vortex, whose
    spectrum is the initial one, ref, times exp(-8 nu pi^2 t). psi and
    (u, v) are linear in omega, so their errors are those omega's error
    induces: an observation forms that one plane and squares it in place
    in one _kinematic_error_table pass, bound once per rung, for the L2
    and H1 moments of all three errors; it makes no transform."""

    def __init__(self, ref, table, nu: float, dt: float):
        self.ref = ref
        self.err = np.empty_like(ref)
        self.sums = _parseval_pass(table, 1, self.err[None])
        self.rate = -8.0 * nu * np.pi**2
        self.dt = dt
        self.linf = [0.0, 0.0, 0.0]
        self.h1sq = [0.0, 0.0, 0.0]

    def observe(self, step: int, flow: FlowState):
        err = np.multiply(self.ref, np.exp(self.rate * flow.time), self.err)
        np.subtract(flow.omega._half, err, out=err)
        moments, = self.sums([(err, err)])
        for i, (l2sq, h1sq) in enumerate(zip(moments[:3], moments[3:])):
            self.linf[i] = max(self.linf[i], math.sqrt(l2sq))
            self.h1sq[i] += self.dt * h1sq

    def results(self):
        return {var: (self.linf[i], math.sqrt(self.h1sq[i]))
                for i, var in enumerate(("omega", "psi", "u"))}


def convergence_study(n: int, nu: float, t_final: float,
                      dts: Sequence[float] = TG_DT_LADDER,
                      scheme: SchemeId = SchemeId.IMEX_BDF3,
                      dealias: bool = False) -> list:
    """Temporal convergence table on the decaying vortex.

    Runs the scheme once per step size and measures, at every step, the
    vorticity's error against the exact one and the stream function's and
    velocity's errors it induces: max-over-steps L2 and accumulated
    (dt sum ||grad e||^2)^{1/2}. Observed orders are log ratios between
    consecutive rows, reported only when both rows are ok.
    """
    cfgs = _rung_configs(n, nu, t_final, dts, scheme, dealias)
    grid = Grid(n)
    exact0 = taylor_green_exact(grid, TaylorGreenSpec(nu=nu))
    ref, table = exact0.omega._half, _kinematic_error_table(grid)

    per_dt = []
    status = []
    for cfg in cfgs:
        acc = _ErrorAccumulator(ref, table, nu, cfg.dt)
        try:
            tail = _tail_fraction(run(exact0.omega, cfg, observer=acc.observe)
                                  .final_state.omega)
        except BlowUpError:
            per_dt.append(None)
            status.append("blowup")
        else:
            per_dt.append(acc.results())
            status.append("polluted" if tail > POLLUTED_TAIL_FRACTION
                          else "ok")

    rows = []
    for i, dt in enumerate(dts):
        for var in ("omega", "psi", "u"):
            blown = per_dt[i] is None
            e_inf, e_h1 = (np.inf, np.inf) if blown else per_dt[i][var]
            if i == 0 or status[i - 1] != "ok" or status[i] != "ok":
                o_inf = o_h1 = None
            else:
                p_inf, p_h1 = per_dt[i - 1][var]
                ratio = np.log(dts[i - 1] / dt)
                o_inf = float(np.log(p_inf / e_inf) / ratio)
                o_h1 = float(np.log(p_h1 / e_h1) / ratio)
            rows.append(ConvergenceRow(dt=dt, variable=var,
                                       err_linf_l2=e_inf, err_l2_h1=e_h1,
                                       order_linf=o_inf, order_l2_h1=o_h1,
                                       blown_up=blown,
                                       polluted=status[i] == "polluted"))
    return rows


def _rung_configs(n: int, nu: float, t_final: float, dts: Sequence[float],
                  scheme: SchemeId, dealias: bool) -> list:
    """Every rung's checked RunConfig, recording step 0 and the last."""
    if len(dts) < 3:
        raise ConfigError("a convergence study needs at least 3 step sizes")
    cfgs = [RunConfig(n=n, dt=dt, nu=nu, t_final=t_final, scheme=scheme,
                      dealias=dealias) for dt in dts]
    for prev, dt in zip(dts, dts[1:]):
        if dt == prev:
            # the observed order between the two would be 0/0
            raise ConfigError(f"consecutive step sizes must differ, got "
                              f"dt = {dt} twice")
    # series_every is derived once a config has validated its dt
    return [replace(cfg, series_every=cfg.n_steps) for cfg in cfgs]


def _tail_fraction(omega: ScalarField) -> float:
    """Share of the enstrophy of omega in the band the 2/3 rule cuts."""
    g = omega.grid
    w_h = omega._half
    total = _half_norm_sq(g, w_h)
    tail = _half_norm_sq(g, w_h * ~g.dealias_mask[:, :g.n // 2 + 1])
    return tail / total if total > 0 else 0.0


def convergence_csv(rows) -> str:
    """Render a convergence table as CSV text."""
    buf = io.StringIO()
    buf.write("dt,variable,linf_l2,l2_h1,order_linf,order_l2h1,status\n")
    for r in rows:
        o1 = "" if r.order_linf is None else format_float(r.order_linf)
        o2 = "" if r.order_l2_h1 is None else format_float(r.order_l2_h1)
        buf.write(f"{format_float(r.dt)},{r.variable},"
                  f"{format_float(r.err_linf_l2)},{format_float(r.err_l2_h1)},"
                  f"{o1},{o2},{r.status}\n")
    return buf.getvalue()
