"""Kinematics: Poisson inversion, velocity recovery, zero-mean discipline.

The vorticity omega determines the stream function psi through the periodic
Poisson problem -Lap_N psi = omega (solvable and unique among mean-free
fields) and the velocity through u = (D_y psi, -D_x psi), which is
discretely divergence-free by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, MeanViolationError
from .spectral import (Grid, ScalarField, VectorField, gradient, l2_norm,
                       mean, perp_gradient)

__all__ = [
    "MEAN_TOLERANCE",
    "FlowState",
    "solve_poisson",
    "make_state",
    "poincare_ratio",
]

# largest |mean| silently projected away; anything bigger is a caller bug
MEAN_TOLERANCE = 1e-10


@dataclass(frozen=True)
class FlowState:
    """Mean-free vorticity at one time, with the stream function and
    velocity it induces: -Lap_N psi = omega and vel = (D_y psi, -D_x psi),
    so D_x u + D_y v vanishes to roundoff. A state holds omega and the
    time; psi and vel are built on first access, the bits of
    spectral._kinematics, and kept.
    """

    omega: ScalarField
    time: float

    @property
    def grid(self) -> Grid:
        return self.omega.grid

    @cached_property
    def psi(self) -> ScalarField:
        return solve_poisson(self.omega)

    @cached_property
    def vel(self) -> VectorField:
        return perp_gradient(self.psi)


def _check_finite(obj, names):
    """Refuse an attribute of obj in names that is not a finite number."""
    for name in names:
        if not math.isfinite(getattr(obj, name)):
            raise ConfigError(
                f"{name} must be finite, got {getattr(obj, name)}")


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
    return ScalarField._adopt(g, omega._half * g._inv_ksq)


def make_state(omega: ScalarField, t: float) -> FlowState:
    """Assemble a FlowState from vorticity, projecting its mean to zero.

    A mean within MEAN_TOLERANCE is treated as roundoff drift and removed;
    a larger mean raises MeanViolationError.
    """
    w_h = _project_mean(np.array(omega._half))  # writable copy
    return FlowState(ScalarField._adopt(omega.grid, w_h), float(t))


def _project_mean(w_h):
    """Check a vorticity half spectrum's mean and set it to zero in place."""
    _check_mean(w_h[0, 0].real, "vorticity")
    w_h[0, 0] = 0.0
    return w_h


def poincare_ratio(field: ScalarField) -> float:
    """Empirical ratio ||f||_2 / ||grad_N f||_2 for a mean-free field.

    The discrete Poincare inequality bounds this by L / (2 pi) for fields
    without Nyquist content (the lowest nonzero mode is extremal). Returns
    0 for the zero field; a mean beyond MEAN_TOLERANCE raises
    MeanViolationError, as in solve_poisson.
    """
    _check_mean(mean(field), "poincare_ratio argument")
    gr = gradient(field)
    denom = np.hypot(l2_norm(gr.x), l2_norm(gr.y))
    if denom == 0.0:
        return 0.0
    return l2_norm(field) / denom
