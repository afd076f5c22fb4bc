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
from .spectral import (ScalarField, VectorField, _div_norm_sq,
                       _half_spectrum, _half_to_physical, _norm_sq)

__all__ = ["DIV_FREE_TOLERANCE", "skew_convection"]

# looser than the construction guarantee (1e-12 scaled) on purpose, so that
# accumulated roundoff over long runs never trips the precondition
DIV_FREE_TOLERANCE = 1e-8


def _scratch(grid):
    """Two complex half-spectrum arrays for the kernel's temporaries."""
    shape = (grid.n, grid.n // 2 + 1)
    return np.empty(shape, complex), np.empty(shape, complex)


def _skew_kernel(vel: VectorField, omega: ScalarField, dealias: bool,
                 scratch):
    """Half spectrum (rfft2 layout) of N(u, omega), a fresh array.

    Checks the divergence precondition by Parseval on the half spectra
    before any transform, leaving ||omega||_2 cached on omega for run()'s
    blow-up guard and ||div u||_2 on vel for the records, then reads the
    fields' physical views. Every temporary spectrum is written into the
    two arrays of scratch (see _scratch), which a caller may reuse.
    """
    grid = omega.grid
    w_h = _half_spectrum(omega)
    w_l2 = np.sqrt(_norm_sq(omega))
    d = np.sqrt(_div_norm_sq(vel, scratch))
    if d > DIV_FREE_TOLERANCE * w_l2:
        raise NotDivergenceFreeError(
            f"velocity is not discretely divergence-free: ||div u||_2 = "
            f"{d:.6e} exceeds {DIV_FREE_TOLERANCE:.1e} * ||omega||_2 = "
            f"{DIV_FREE_TOLERANCE * w_l2:.6e}")
    w, u, v = omega.physical, vel.x.physical, vel.y.physical
    a, b = scratch

    # advective half: products pointwise, derivatives spectral
    # irfft2 ignores out= (numpy 2.4): the products reuse the arrays it returns
    adv = _half_to_physical(grid, np.multiply(w_h, grid._d1x, out=a))
    p = _half_to_physical(grid, np.multiply(w_h, grid._d1y, out=b))
    np.multiply(u, adv, out=adv)
    adv += np.multiply(v, p, out=p)
    result = np.fft.rfft2(adv, norm="forward")
    result[0, 0] = 0.0  # mean correction applies to the advective half only
    # flux half: transform the pointwise fluxes, differentiate spectrally
    for f, d1 in ((u, grid._d1x), (v, grid._d1y)):
        flux = np.fft.rfft2(np.multiply(f, w, out=p), norm="forward", out=a)
        flux *= d1
        result += flux
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
    return ScalarField._adopt(omega.grid, half=_skew_kernel(
        vel, omega, dealias, _scratch(omega.grid)))
