"""Skew-symmetric convection term with mean correction.

The nonlinear term is evaluated in the Temam form

    N(u, omega) = u . grad_N omega + div_N(u omega) - avg(u . grad_N omega),

with products formed pointwise in physical space and derivatives taken
spectrally. The flux-divergence half is exactly mean-free (first-derivative
multipliers vanish at k = 0), so only the advective half needs its average
subtracted. For divergence-free u the sum is discretely orthogonal to
omega: summation by parts turns <omega, div_N(u omega)> into
-<u . grad_N omega, omega>, so the two halves cancel in the inner product.
This orthogonality is what controls aliasing in the analyzed scheme; no
dealiasing is applied by default.

One evaluation costs eight real transforms on half spectra (rfft2
layout): five inverse (omega, u, v, D_x omega, D_y omega) and three forward
(the advective product and the two fluxes). The physical omega, u and v
stay cached on their fields, where the time loop's records reuse them.
"""

from __future__ import annotations

import numpy as np

from .errors import NotDivergenceFreeError
from .spectral import (ScalarField, VectorField, _half_norm_sq,
                       _half_spectrum, _half_to_physical, _norm_sq)

__all__ = ["DIV_FREE_TOLERANCE", "skew_convection"]

# looser than the construction guarantee (1e-12 scaled) on purpose, so that
# accumulated roundoff over long runs never trips the precondition
DIV_FREE_TOLERANCE = 1e-8


def _skew_kernel(vel: VectorField, omega: ScalarField, dealias: bool):
    """Half spectrum (rfft2 layout) of N(u, omega).

    Checks the divergence precondition by Parseval on the half spectra
    before any transform, leaving ||omega||_2 cached on omega for run()'s
    blow-up guard, then reads the fields' physical views.
    """
    grid = omega.grid
    w_h, u_h, v_h = (_half_spectrum(f) for f in (omega, vel.x, vel.y))
    w_l2 = np.sqrt(_norm_sq(omega))
    d = np.sqrt(_half_norm_sq(grid, u_h * grid._d1x + v_h * grid._d1y))
    if d > DIV_FREE_TOLERANCE * w_l2:
        raise NotDivergenceFreeError(
            f"velocity is not discretely divergence-free: ||div u||_2 = "
            f"{d:.6e} exceeds {DIV_FREE_TOLERANCE:.1e} * ||omega||_2 = "
            f"{DIV_FREE_TOLERANCE * w_l2:.6e}")
    w, u, v = omega.physical, vel.x.physical, vel.y.physical

    def forward(p):
        return np.fft.rfft2(p, norm="forward")

    # advective half: products pointwise, derivatives spectral
    adv = forward(u * _half_to_physical(grid, w_h * grid._d1x)
                  + v * _half_to_physical(grid, w_h * grid._d1y))
    adv[0, 0] = 0.0  # mean correction applies to the advective half only
    # flux half: transform the pointwise fluxes, differentiate spectrally
    result = adv + forward(u * w) * grid._d1x + forward(v * w) * grid._d1y
    if dealias:
        result *= grid.dealias_mask[:, :grid.n // 2 + 1]
    return result


def skew_convection(vel: VectorField, omega: ScalarField,
                    dealias: bool = False) -> ScalarField:
    """Evaluate N(u, omega) for a divergence-free velocity.

    Parameters
    ----------
    vel : VectorField
        Advecting velocity; its discrete divergence must satisfy
        ||div_N vel||_2 <= DIV_FREE_TOLERANCE * ||omega||_2.
    omega : ScalarField
        Advected vorticity, expected mean-free.
    dealias : bool
        When True, apply the 2/3-rule truncation to the transforms of the
        quadratic products. Off by default; the skew form itself is the
        aliasing control in the analyzed scheme.

    Returns
    -------
    ScalarField
        Spectral-fresh field with |mean| at roundoff level.

    Raises
    ------
    NotDivergenceFreeError
        If the velocity fails the precondition check.
    """
    return ScalarField._adopt(omega.grid, half=_skew_kernel(vel, omega,
                                                            dealias))
