"""Kinematics: Poisson inversion, velocity recovery, zero-mean discipline.

The vorticity omega determines the stream function psi through the periodic
Poisson problem -Lap_N psi = omega (solvable and unique among mean-free
fields) and the velocity through u = (D_y psi, -D_x psi), which is
discretely divergence-free by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeanViolationError
from .spectral import (Grid, ScalarField, VectorField, _half_spectrum,
                       l2_norm, mean, perp_gradient)

__all__ = [
    "MEAN_TOLERANCE",
    "FlowState",
    "solve_poisson",
    "velocity_from_stream",
    "make_state",
    "poincare_ratio",
]

# largest |mean| silently projected away; anything bigger is a caller bug
MEAN_TOLERANCE = 1e-10


@dataclass(frozen=True)
class FlowState:
    """Vorticity with its induced stream function and velocity at one time.

    Invariants (enforced by construction through make_state): omega and psi
    are mean-free, -Lap_N psi = omega, and vel = (D_y psi, -D_x psi) so
    D_x u + D_y v vanishes to roundoff.
    """

    omega: ScalarField
    psi: ScalarField
    vel: VectorField
    time: float

    @property
    def grid(self) -> Grid:
        return self.omega.grid


def _check_mean(m: float, what: str):
    if abs(m) > MEAN_TOLERANCE:
        raise MeanViolationError(
            f"{what} must be mean-free: discrete mean is {m:.6e} "
            f"(tolerance {MEAN_TOLERANCE:.1e})")


def solve_poisson(omega: ScalarField) -> ScalarField:
    """Solve -Lap_N psi = omega for the mean-free stream function.

    Per-mode division by 4 pi^2 |k|^2 / L^2; the (0, 0) coefficient of psi
    is set to zero (the normalization that makes the problem unique).
    Raises MeanViolationError when omega carries a mean beyond tolerance.
    """
    _check_mean(mean(omega), "poisson right-hand side")
    g = omega.grid
    # the inverse table is 0 at k = 0
    return ScalarField._adopt(g, half=_half_spectrum(omega) * g._inv_ksq)


def velocity_from_stream(psi: ScalarField) -> VectorField:
    """Velocity (D_y psi, -D_x psi) induced by a stream function."""
    return perp_gradient(psi)


def make_state(omega: ScalarField, t: float) -> FlowState:
    """Assemble a FlowState from vorticity, projecting its mean to zero.

    A mean within MEAN_TOLERANCE is treated as roundoff drift and removed;
    a larger mean raises MeanViolationError.
    """
    w_h = _project_mean(np.array(_half_spectrum(omega)))  # writable copy
    return _assemble_state(omega.grid, w_h, t)


def _project_mean(w_h):
    """Check a vorticity half spectrum's mean and set it to zero in place."""
    _check_mean(w_h[0, 0].real, "vorticity")
    w_h[0, 0] = 0.0
    return w_h


def _assemble_state(grid: Grid, w_h, t: float) -> FlowState:
    """FlowState from a mean-free vorticity half spectrum; no transform."""
    psi = ScalarField._adopt(grid, half=w_h * grid._inv_ksq)
    return FlowState(omega=ScalarField._adopt(grid, half=w_h), psi=psi,
                     vel=velocity_from_stream(psi), time=float(t))


def poincare_ratio(field: ScalarField) -> float:
    """Empirical ratio ||f||_2 / ||grad_N f||_2 for a mean-free field.

    The discrete Poincare inequality bounds this by L / (2 pi) for fields
    without Nyquist content (the lowest nonzero mode is extremal). Returns
    0 for the zero field.
    """
    from .spectral import gradient  # local import to keep module load light

    gr = gradient(field)
    denom = np.hypot(l2_norm(gr.x), l2_norm(gr.y))
    if denom == 0.0:
        return 0.0
    return l2_norm(field) / denom
