"""Shared fixtures: a seeded generator and random-field factories.

Random fields are drawn in spectral space with a power-law falloff and
realized through a physical round trip so they are exactly real. Even-N
grids zero their first-derivative Nyquist multipliers, so helpers default
to Nyquist-free spectra; tests that probe the Nyquist behavior opt out.
filled makes constant fields, non-finite ones included. The fft_calls
fixture counts the numpy.fft calls of a test, step_planes measures the
traced memory of a run's steps and records, and KEPT_PLANES bounds what a
finished run leaves behind.
"""

import math
import tracemalloc

import numpy as np
import pytest

from vorspec import (Grid, RunConfig, ScalarField, ShearLayerSpec,
                     perp_gradient, run, shear_layer_init)

SEED = 61409

# traced planes a kept summary or exception of a run at N = 64 may hold,
# read after gc.collect(): the final omega beside the grid's two-plane
# Parseval table, with room for roundoff but not for a plane more
KEPT_PLANES = 3.5


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


def filled(n, value):
    """A field on Grid(n) whose node values all equal value (nan or inf
    included, for inputs a run must refuse)."""
    with np.errstate(invalid="ignore"):
        return ScalarField.from_physical(Grid(n), np.full((n, n), value))


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


def full_spectrum_sums(grid, a, b):
    """[L2, H1, H2, velocity] sums L^2 sum Re(A conj B) s over the full
    (N, N) spectra A and B that complete the half spectra a and b by
    Hermitian symmetry, with s = 1, |k|^2, |k|^4 and (|d_x|^2 + |d_y|^2) /
    |k|^4, the first-derivative symbols zeroed at the even-N Nyquist mode:
    a Parseval oracle independent of the package's tables and weights."""
    n = grid.n
    k = 2.0 * np.pi / grid.length * grid.wavenumbers
    d1 = np.where((n % 2 == 0) & (grid.wavenumbers == -(n // 2)), 0.0, k)
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    vel = np.divide(d1[:, None] ** 2 + d1[None, :] ** 2, ksq ** 2,
                    out=np.zeros_like(ksq), where=ksq > 0)
    neg = -np.arange(n) % n

    def full(h):  # column l > N//2 is conj of column N - l at row -k
        return np.concatenate(
            [h, np.conj(h[neg][:, n - np.arange(h.shape[1], n)])], axis=1)

    prod = (full(a) * np.conj(full(b))).real
    return [grid.length ** 2 * float(np.sum(prod * s))
            for s in (1.0, ksq, ksq ** 2, vel)]


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


def traced_planes(n, run_it):
    """Peak traced memory of run_it(observer, series_sink), in half-spectrum
    planes of N (N/2 + 1) complex numbers, read and reset at every observer
    and series sink call: steps[k] ends at step k's observer call, so it
    holds step k alone, and records[k] ends at its record's sink call, so
    it holds that record alone (step 0's builds the Parseval table). The
    one-time allocations of numpy.fft and BLAS are made before tracing, so
    no reading depends on which test ran first in the process."""
    plane = n * (n // 2 + 1) * 16
    steps, records = [], []
    # numpy.fft's first import and the first BLAS product allocate once per
    # process; made here, before tracing, they count in no test's reading
    np.fft.irfft2(np.fft.rfft2(np.ones((4, 4))))
    np.ones((2, 2)) @ np.ones((2, 2))

    def reading(peaks):
        def read(*args):
            peaks.append(tracemalloc.get_traced_memory()[1] / plane)
            tracemalloc.reset_peak()
        return read

    tracemalloc.start()
    try:
        run_it(reading(steps), reading(records))
    finally:
        tracemalloc.stop()
    return steps, records


@pytest.fixture(scope="session")
def step_planes():
    """(steps, records) of traced_planes on the thick layer (N = 64, 12
    BDF3 steps, a record every step). Tracing starts just before run(), so
    the grid and the initial vorticity are not counted. Measured once per
    session."""
    n, dt, steps = 64, 8e-4, 12
    omega0 = shear_layer_init(Grid(n), ShearLayerSpec(rho=30.0, delta=0.05,
                                                      nu=1e-4))
    cfg = RunConfig(n=n, dt=dt, nu=1e-4, t_final=steps * dt)
    return traced_planes(n, lambda observe, sink: run(
        omega0, cfg, observer=observe, series_sink=sink))
