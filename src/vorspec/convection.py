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

One evaluation makes its eight real 2-D transforms as fourteen 1-D plane
passes in four numpy calls, in the scratch stacks: a 2-D real transform is
a complex pass along k and a real pass along l, and D_y depends on l alone,
so it commutes with the k pass. omega and D_y omega share one k pass, as
do the two y-terms of the forward side, and no pass forms a full (N, N)
spectrum. The fluxes overwrite the u and v planes; omega's stays intact
and gives the records max|omega| as a cached norm, not as node values.
"""

from __future__ import annotations

import numpy as np

from .errors import NotDivergenceFreeError
from .spectral import (ScalarField, VectorField, _div_norm_sq, _kinematics,
                       _norm_sq, _sup_norm)

__all__ = ["DIV_FREE_TOLERANCE", "skew_convection"]

# looser than the construction guarantee (1e-12 scaled) on purpose, so that
# accumulated roundoff over long runs never trips the precondition
DIV_FREE_TOLERANCE = 1e-8


def _scratch(grid):
    """The kernel's two stacks: five complex half spectra (rfft2 layout)
    and five real physical planes."""
    n = grid.n
    return np.empty((5, n, n // 2 + 1), complex), np.empty((5, n, n))


def _skew_kernel(omega: ScalarField, dealias: bool, scratch, vel=None,
                 out=None):
    """Half spectrum (rfft2 layout) of N(u, omega), into out or a fresh
    array, for the velocity omega induces (built in scratch) or for vel
    (copied in).

    Checks the divergence precondition by Parseval on the half spectra
    before any transform, leaving ||omega||_2 cached on omega for run()'s
    blow-up guard, and ||div u||_2 on vel (or omega) and max|omega| from
    its plane on omega for the records. It reads only half spectra and
    writes no node values. Every temporary lives in the two stacks of
    scratch (see _scratch), which a caller may reuse.
    """
    grid = omega.grid
    w_l2 = np.sqrt(_norm_sq(omega))
    spec, phys = scratch
    if vel is None:  # psi goes into plane 4, free until D_y omega
        _kinematics(grid, omega._half, out=(spec[4], spec[1], spec[2]))
    else:
        spec[1], spec[2] = vel.x._half, vel.y._half
    d = np.sqrt(_div_norm_sq(omega if vel is None else vel, spec[1:3],
                             spec[3:5]))
    if d > DIV_FREE_TOLERANCE * w_l2:
        raise NotDivergenceFreeError(
            f"velocity is not discretely divergence-free: ||div u||_2 = "
            f"{d:.6e} exceeds {DIV_FREE_TOLERANCE:.1e} * ||omega||_2 = "
            f"{DIV_FREE_TOLERANCE * w_l2:.6e}")
    # inverse: a pass along k, in place, over D_x omega, u, v and omega,
    # D_y omega from omega's plane, and a pass along l over all five
    np.multiply(omega._half, grid._d1x, out=spec[0])
    spec[3] = omega._half
    np.fft.ifft(spec[:4], axis=-2, norm="forward", out=spec[:4])
    np.multiply(spec[3], grid._d1y, out=spec[4])
    np.fft.irfft(spec, n=grid.n, axis=-1, norm="forward", out=phys)
    u, v, w = phys[1:4]
    _sup_norm(omega, w)

    # advective half: products pointwise, derivatives spectral
    adv = np.multiply(u, phys[0], out=phys[0])
    adv += np.multiply(v, phys[4], out=phys[4])
    # flux half: pointwise fluxes over the u and v planes, last read above
    np.multiply(u, w, out=u)
    np.multiply(v, w, out=v)
    # forward: a pass along l over the three products, the D_y flux added
    # to the advective plane, and a pass along k, in place, over two planes
    np.fft.rfft(phys[:3], axis=-1, norm="forward", out=spec[:3])
    spec[0] += np.multiply(spec[2], grid._d1y, out=spec[2])
    np.fft.fft(spec[:2], axis=-2, norm="forward", out=spec[:2])
    spec[0][0, 0] = 0.0  # the advective mean: D_y and D_x vanish there
    result = np.add(spec[0], np.multiply(spec[1], grid._d1x, out=spec[1]),
                    out=out)
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
        Field with |mean| at roundoff level.

    Raises
    ------
    NotDivergenceFreeError
        If the velocity fails the precondition check.
    """
    return ScalarField._adopt(omega.grid, _skew_kernel(
        omega, dealias, _scratch(omega.grid), vel))
