"""Shared fixtures: a seeded generator and random-field factories.

Random fields are drawn in spectral space with a power-law falloff and
realized through a physical round trip so they are exactly real. Even-N
grids zero their first-derivative Nyquist multipliers, so helpers default
to Nyquist-free spectra; tests that probe the Nyquist behavior opt out.
The fft_calls fixture counts the numpy.fft calls of a test, and
step_planes measures the traced memory of a run's steps.
"""

import math
import tracemalloc

import numpy as np
import pytest

from vorspec import (Grid, RunConfig, ScalarField, ShearLayerSpec,
                     perp_gradient, run, shear_layer_init)

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


FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft",
             "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft")


class FftCalls(dict):
    """numpy.fft calls since the last take(): name -> the planes of each
    call, the product of its input's leading dimensions."""

    # the calls of one main-loop step, the convection's four 1-D passes
    STEP = {"ifft": [4], "irfft": [5], "rfft": [3], "fft": [2]}

    def take(self):
        calls = dict(self)
        self.clear()
        return calls


@pytest.fixture
def fft_calls(monkeypatch):
    """An FftCalls that records every numpy.fft call from here on."""
    calls = FftCalls()
    for name in FFT_NAMES:
        def counted(a, *args, _fn=getattr(np.fft, name), _name=name, **kw):
            calls.setdefault(_name, []).append(math.prod(np.shape(a)[:-2]))
            return _fn(a, *args, **kw)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.fixture(scope="session")
def step_planes():
    """Peak traced memory between consecutive observer calls of the thick
    layer (N = 64, 12 BDF3 steps, a record every step), in half-spectrum
    planes of N (N/2 + 1) complex numbers; entry k ends at step k's
    observer call. Tracing starts just before run(), so the grid and the
    initial vorticity are not counted. Measured once per session."""
    n, dt, steps = 64, 8e-4, 12
    omega0 = shear_layer_init(Grid(n), ShearLayerSpec(rho=30.0, delta=0.05,
                                                      nu=1e-4))
    cfg = RunConfig(n=n, dt=dt, nu=1e-4, t_final=steps * dt)
    plane = n * (n // 2 + 1) * 16
    peaks = []

    def observe(k, flow):
        peaks.append(tracemalloc.get_traced_memory()[1] / plane)
        tracemalloc.reset_peak()

    tracemalloc.start()
    try:
        run(omega0, cfg, observer=observe)
    finally:
        tracemalloc.stop()
    return peaks
