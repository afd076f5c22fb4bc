"""IMEX time steppers: Euler, BDF2, and the third-order BDF scheme.

All schemes treat diffusion implicitly and convection explicitly, so every
step reduces to one diagonal Helmholtz solve per Fourier mode:

    euler:  (w' - w)/dt + N/2 = nu Lap w' + f',                   a = 1
    bdf2 :  (3w' - 4w + w_)/2dt + N - N_/2 = nu Lap w' + f',      a = 3/2
    bdf3 :  (11w'/6 - 3w + 3w_/2 - w__/3)/dt
                + 3N/2 - 3N_/2 + N__/2 = nu Lap w' + f',          a = 11/6

where primes mark the new level and trailing underscores older history.
The skew convection term N counts the transport twice (advective plus flux
form), so the extrapolation weights above are half the usual explicit
multistep weights; their sums are 1/2, making each scheme consistent with
the single transport term of the vorticity equation.
The startup ladder computes w^1 with one explicit-midpoint RK2 step on the
fully explicit right-hand side and w^2 with one BDF2 step, after which the
third-order recurrence runs; this preserves third-order global accuracy.

run() is the one way to advance a solution; its observer sees the flow
state of every step from step 0 on, and the domain length comes from the
initial vorticity's grid. It holds each history level as the half spectra
(rfft2 layout) of w and N, so a step costs the eight real transforms of one
convection evaluation; the flow state it hands to observers and sinks is the
one that evaluation read, with the physical omega, u and v it formed still
cached.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

from .convection import _skew_kernel
from .diagnostics import (SeriesRecord, get_telescope_coefficients,
                          make_record)
from .errors import BlowUpError, ConfigError, MeanViolationError
from .fields import MEAN_TOLERANCE, FlowState, _assemble_state, _project_mean
from .spectral import Grid, ScalarField, _half_norm_sq, _half_spectrum, mean

__all__ = [
    "SchemeId",
    "RunConfig",
    "RunSummary",
    "helmholtz_solve",
    "run",
    "BLOWUP_FACTOR",
]

# a run is declared blown up when ||w||_2 exceeds this multiple of its
# initial value, or any field value becomes non-finite
BLOWUP_FACTOR = 1e6


class SchemeId(Enum):
    """Time integrator identifier."""

    IMEX_EULER = "imex_euler"
    IMEX_BDF2 = "imex_bdf2"
    IMEX_BDF3 = "imex_bdf3"

    @property
    def history_required(self) -> int:
        return len(_WEIGHTS[self][1])


# scheme -> (a, vorticity weights c_j, convection weights e_j), newest level
# first: (a/dt - nu Lap) w' = sum_j (c_j/dt) w_j + sum_j e_j N_j + f'. The c_j
# are applied as p/(q dt): rounding them otherwise biases every step alike,
# a drift that shows on the finest rungs of the convergence ladder
_WEIGHTS = {
    SchemeId.IMEX_EULER: (Fraction(1), (Fraction(1),), (-0.5,)),
    SchemeId.IMEX_BDF2: (Fraction(3, 2), (Fraction(2), Fraction(-1, 2)),
                         (-1.0, 0.5)),
    SchemeId.IMEX_BDF3: (Fraction(11, 6),
                         (Fraction(3), Fraction(-3, 2), Fraction(1, 3)),
                         (-1.5, 1.5, -0.5)),
}


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one simulation run.

    t_final must be a whole number n_steps of steps dt, up to roundoff;
    series records are emitted every series_every steps (plus step 0 and the
    final step), snapshots every snapshot_every steps when positive.
    """

    n: int
    dt: float
    nu: float
    t_final: float
    scheme: SchemeId = SchemeId.IMEX_BDF3
    snapshot_every: int = 0
    series_every: int = 1
    dealias: bool = False

    def __post_init__(self):
        if self.n < 4:
            raise ConfigError(f"grid size must be at least 4, got {self.n}")
        for name in ("dt", "nu", "t_final"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if not (self.dt > 0):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not (self.nu > 0):
            raise ConfigError(f"nu must be positive, got {self.nu}")
        if self.t_final < self.dt:
            raise ConfigError(
                f"t_final = {self.t_final} is shorter than one step dt = {self.dt}")
        if not math.isfinite(self.t_final / self.dt):
            raise ConfigError(
                f"t_final = {self.t_final} is not a finite number of steps "
                f"dt = {self.dt}")
        if not math.isclose(self.n_steps * self.dt, self.t_final,
                            rel_tol=1e-9):
            raise ConfigError(
                f"t_final = {self.t_final} is not a whole number of steps "
                f"dt = {self.dt}")
        if self.series_every < 1:
            raise ConfigError("series_every must be a positive integer")
        if self.snapshot_every < 0:
            raise ConfigError("snapshot_every must be nonnegative")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass
class RunSummary:
    """What a completed run reports back."""

    final_state: FlowState
    steps: int
    elapsed_seconds: float
    seconds_per_step: float
    extrema: dict
    records: list = field(default_factory=list)


def _helmholtz(grid: Grid, rhs_h, a: float, dt: float, nu: float):
    """Per-mode division of a half spectrum by a/dt + nu ksq."""
    m = rhs_h[0, 0].real
    if abs(m) > MEAN_TOLERANCE:
        raise MeanViolationError(
            f"helmholtz right-hand side has mean {m:.6e} beyond tolerance")
    return rhs_h / (a / dt + nu * grid._ksq)


def helmholtz_solve(rhs: ScalarField, a: float, dt: float,
                    nu: float) -> ScalarField:
    """Solve (a/dt - nu Lap_N) w = rhs by per-mode division.

    The symbol a/dt + nu * 4 pi^2 |k|^2 / L^2 is strictly positive, so the
    solve is total; a mean-free rhs yields a mean-free solution since the
    k = 0 mode is divided by a/dt alone.
    """
    if not (a > 0 and dt > 0):
        raise ValueError("helmholtz_solve needs a > 0 and dt > 0")
    g = rhs.grid
    return ScalarField._adopt(g, half=_helmholtz(g, _half_spectrum(rhs), a,
                                                 dt, nu))


def _forcing_half(forcing, t: float, grid: Grid):
    """Half spectrum of the forcing at time t, or None."""
    if forcing is None:
        return None
    f = forcing(t)
    if f.grid != grid:
        raise ConfigError("forcing returned a field on the wrong grid")
    m = mean(f)
    if abs(m) > MEAN_TOLERANCE:
        raise MeanViolationError(
            f"forcing at t = {t} has mean {m:.6e}; it must be mean-free")
    return _half_spectrum(f)


def _convect(grid: Grid, w_h, t: float, dealias: bool):
    """Flow state at time t of a mean-free vorticity half spectrum and the
    half spectrum of its convection N: eight real transforms in all."""
    flow = _assemble_state(grid, w_h, t)
    return flow, _skew_kernel(flow.vel, flow.omega, dealias)


def _implicit_omega(grid: Grid, levels, scheme: SchemeId, dt: float,
                    nu: float, forcing, t: float):
    """Vorticity half spectrum at time t by one step of an IMEX scheme.

    levels are newest-first (omega, N) half-spectrum pairs; levels beyond
    the scheme's depth are ignored.
    """
    a, w_weights, n_weights = _WEIGHTS[scheme]
    f_h = _forcing_half(forcing, t, grid)
    rhs = np.zeros_like(levels[0][0])
    for c, (w, _) in zip(w_weights, levels):
        rhs += c.numerator / (c.denominator * dt) * w
    for c, (_, conv) in zip(n_weights, levels):
        rhs += c * conv
    if f_h is not None:
        rhs += f_h
    return _project_mean(_helmholtz(grid, rhs, float(a), dt, nu))


def _explicit_rhs(grid: Grid, w_h, conv_h, nu: float, forcing, t: float):
    """Fully explicit right-hand side -N/2 + nu Lap w + f on half spectra."""
    rhs = -0.5 * conv_h + nu * (-grid._ksq * w_h)
    f_h = _forcing_half(forcing, t, grid)
    return rhs if f_h is None else rhs + f_h


def _midpoint_omega(grid: Grid, level, cfg: RunConfig, forcing):
    """Vorticity half spectrum of step 1 by one explicit-midpoint step."""
    w0, conv0 = level
    dt, nu = cfg.dt, cfg.nu
    k1 = _explicit_rhs(grid, w0, conv0, nu, forcing, 0.0)
    w_mid = _project_mean(w0 + 0.5 * dt * k1)
    _, conv_mid = _convect(grid, w_mid, 0.5 * dt, cfg.dealias)
    k2 = _explicit_rhs(grid, w_mid, conv_mid, nu, forcing, 0.5 * dt)
    return _project_mean(w0 + dt * k2)


def _march(omega0: ScalarField, cfg: RunConfig, forcing):
    """Yield (k, levels, flow) for the steps k = 0, 1, 2, ... without end.

    levels holds up to three newest-first (omega, N) half-spectrum pairs
    ending at step k; flow is the FlowState of step k. A multistep scheme
    takes step 1 by the explicit midpoint rule and, for three levels, step
    2 by the two-level scheme.
    """
    grid = omega0.grid
    if grid.n != cfg.n:
        raise ConfigError(
            f"initial data on {grid} does not match config (n={cfg.n})")
    need = cfg.scheme.history_required
    w_h = _project_mean(np.array(_half_spectrum(omega0)))
    levels = ()
    for k in itertools.count():
        if k == 1 and need > 1:
            w_h = _midpoint_omega(grid, levels[0], cfg, forcing)
        elif k > 0:
            scheme = cfg.scheme if len(levels) >= need else SchemeId.IMEX_BDF2
            w_h = _implicit_omega(grid, levels, scheme, cfg.dt, cfg.nu,
                                  forcing, k * cfg.dt)
        flow, conv_h = _convect(grid, w_h, k * cfg.dt, cfg.dealias)
        levels = ((w_h, conv_h),) + levels[:2]
        yield k, levels, flow


def _check_blowup(w_l2: float, ref_l2: float, step: int, last_record):
    if not np.isfinite(w_l2) or (ref_l2 > 0 and w_l2 > BLOWUP_FACTOR * ref_l2):
        raise BlowUpError(
            f"solution blew up at step {step}: ||w||_2 = {w_l2:.6e} "
            f"(initial {ref_l2:.6e})", step=step, last_record=last_record)


def run(omega0: ScalarField, cfg: RunConfig, *, forcing=None,
        series_sink=None, snapshot_sink=None, observer=None) -> RunSummary:
    """Integrate from t = 0 to t_final and stream diagnostics.

    Parameters
    ----------
    omega0 : ScalarField
        Initial vorticity on a grid of cfg.n points per side; its grid
        sets the domain length.
    cfg : RunConfig
        Scheme, step size, viscosity, cadences.
    forcing : callable, optional
        t -> mean-free ScalarField source term.
    series_sink : callable, optional
        Receives each emitted SeriesRecord.
    snapshot_sink : callable, optional
        Receives (step, FlowState) every snapshot_every steps.
    observer : callable, optional
        Receives (step, FlowState) for every step including step 0
        (measurement hook; convergence studies use it).

    Returns RunSummary; raises BlowUpError when the solution leaves the
    finite range, reporting the failing step and the last good record.
    """
    n_steps = cfg.n_steps
    need = cfg.scheme.history_required
    if n_steps < need - 1:
        raise ConfigError(
            f"{cfg.scheme.value} startup needs {need - 1} steps but the run "
            f"has only {n_steps}")
    coeffs = get_telescope_coefficients()
    grid = omega0.grid

    records = []
    last_record = None
    omegas = ()  # newest-first vorticity fields of the stored levels
    t0 = time.perf_counter()
    for k, levels, flow in _march(omega0, cfg, forcing):
        w_l2 = float(np.sqrt(_half_norm_sq(grid, levels[0][0])))
        if k == 0:
            ref_l2 = w_l2
        _check_blowup(w_l2, ref_l2, k, last_record)
        omegas = (flow.omega,) + omegas[:2]
        if observer is not None:
            observer(k, flow)
        if k % cfg.series_every == 0 or k == n_steps:
            last_record = make_record(flow, history=omegas, nu=cfg.nu,
                                      dt=cfg.dt, coeffs=coeffs)
            records.append(last_record)
            if series_sink is not None:
                series_sink(last_record)
        if cfg.snapshot_every > 0 and k % cfg.snapshot_every == 0 \
                and snapshot_sink is not None:
            snapshot_sink(k, flow)
        if k == n_steps:
            break

    elapsed = time.perf_counter() - t0
    extrema = {}
    for name in SeriesRecord.FIELDS:
        vals = [getattr(r, name) for r in records]
        extrema[name] = (min(vals), max(vals))
    return RunSummary(final_state=flow, steps=n_steps,
                      elapsed_seconds=elapsed,
                      seconds_per_step=elapsed / max(n_steps, 1),
                      extrema=extrema, records=records)
