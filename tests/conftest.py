"""Shared fixtures: a seeded generator and random-field factories.

Random fields are drawn in spectral space with a power-law falloff and
realized through a physical round trip so they are exactly real. Even-N
grids zero their first-derivative Nyquist multipliers, so helpers default
to Nyquist-free spectra; tests that probe the Nyquist behavior opt out.
"""

import numpy as np
import pytest

from vorspec import ScalarField, perp_gradient

SEED = 61409


@pytest.fixture
def rng():
    return np.random.default_rng(SEED)


def _noise(grid, rng, decay=2.0, zero_mean=True, nyquist_free=True):
    n = grid.n
    coef = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    k = grid.wavenumbers.astype(float)
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    coef = coef / (1.0 + ksq) ** (decay / 2.0)
    if zero_mean:
        coef[0, 0] = 0.0
    if nyquist_free and n % 2 == 0:
        coef[n // 2, :] = 0.0
        coef[:, n // 2] = 0.0
    phys = np.fft.ifft2(coef).real * (n * n)
    return ScalarField.from_physical(grid, phys)


@pytest.fixture
def noise(rng):
    """Factory: noise(grid, decay=..., zero_mean=..., nyquist_free=...)."""

    def make(grid, **kw):
        return _noise(grid, rng, **kw)

    return make


@pytest.fixture
def divfree(rng):
    """Factory for exactly divergence-free velocities (curl of a random
    stream function; the mixed discrete derivatives commute)."""

    def make(grid, decay=3.0):
        psi = _noise(grid, rng, decay=decay)
        return perp_gradient(psi)

    return make
