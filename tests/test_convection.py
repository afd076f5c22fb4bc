"""Skew-form convection operator: orthogonality, mean, preconditions."""

import tracemalloc

import numpy as np
import pytest

from vorspec import (
    Grid,
    NotDivergenceFreeError,
    ScalarField,
    TaylorGreenSpec,
    VectorField,
    inner_product,
    l2_norm,
    make_state,
    mean,
    perp_gradient,
    skew_convection,
    taylor_green_exact,
)
from vorspec.convection import _scratch, _skew_kernel
from vorspec.spectral import _div_norm_sq, _half_to_physical, _sup_norm


def reference_skew_convection(vel, omega, dealias=False):
    """The complex-FFT evaluation of N(u, omega) on full (n, n) spectra,
    taking the real part after every inverse transform: nine complex
    transforms where the package uses eight real ones."""
    g = omega.grid
    u = vel.x.physical
    v = vel.y.physical
    w = omega.physical
    n2 = g.n * g.n
    # full first-derivative tables, even-N Nyquist mode zeroed
    d1 = 1j * (2.0 * np.pi / g.length) * g.wavenumbers
    if g.n % 2 == 0:
        d1[g.n // 2] = 0.0
    d1x, d1y = d1[:, None], d1[None, :]
    wspec = omega.spectral
    wx = np.fft.ifft2(wspec * d1x).real * n2
    wy = np.fft.ifft2(wspec * d1y).real * n2
    adv = u * wx + v * wy
    flux_x_spec = np.fft.fft2(u * w) / n2
    flux_y_spec = np.fft.fft2(v * w) / n2
    adv_spec = np.fft.fft2(adv) / n2
    adv_spec[0, 0] = 0.0
    result = adv_spec + flux_x_spec * d1x + flux_y_spec * d1y
    if dealias:
        result = np.where(g.dealias_mask, result, 0.0)
    return result


def per_plane_skew_kernel(vel, omega, dealias):
    """The kernel with one numpy call per 1-D pass of one plane: the same
    passes, symbol products and sums in the same order as the batched
    kernel, which passes stacked planes. The physical omega, u and v are
    the fields' own views."""
    grid = omega.grid
    w_h = omega._half
    w, u, v = omega.physical, vel.x.physical, vel.y.physical

    def inverse(h):  # complex pass along k, real pass along l
        return np.fft.irfft(h, n=grid.n, axis=-1, norm="forward")

    adv = inverse(np.fft.ifft(w_h * grid._d1x, axis=-2, norm="forward"))
    p = inverse(np.fft.ifft(w_h, axis=-2, norm="forward") * grid._d1y)
    np.multiply(u, adv, out=adv)
    adv += np.multiply(v, p, out=p)
    result = np.fft.rfft(adv, axis=-1, norm="forward")
    flux_x = np.fft.rfft(u * w, axis=-1, norm="forward")
    flux_y = np.fft.rfft(v * w, axis=-1, norm="forward")
    result += flux_y * grid._d1y
    result = np.fft.fft(result, axis=-2, norm="forward")
    flux_x = np.fft.fft(flux_x, axis=-2, norm="forward")
    result[0, 0] = 0.0
    result += flux_x * grid._d1x
    if dealias:
        result *= grid.dealias_mask[:, :grid.n // 2 + 1]
    return result


@pytest.mark.parametrize("n", [15, 16])
@pytest.mark.parametrize("dealias", [False, True])
def test_batched_kernel_matches_per_plane_bit_for_bit(noise, n, dealias):
    """Batched transforms give bit for bit the per-plane kernel's result,
    which reads the fields' own irfft2 views. The kernel gives no field a
    physical view: each forms its own when asked, the irfft2 of its half
    spectrum, in an array of its own."""
    g = Grid(n)

    def spectral_only(f):  # a copy whose physical view is not yet formed
        return ScalarField._adopt(g, half=f._half)

    for nyquist_free in (True, False):
        psi = noise(g, nyquist_free=nyquist_free)
        omega = noise(g, nyquist_free=nyquist_free)
        vel, w = perp_gradient(spectral_only(psi)), spectral_only(omega)
        scratch = _scratch(g)
        got = _skew_kernel(w, dealias, scratch, vel)
        want = per_plane_skew_kernel(perp_gradient(spectral_only(psi)),
                                     spectral_only(omega), dealias)
        assert np.array_equal(got, want)
        assert all(f._phys is None for f in (w, vel.x, vel.y))
        for f in (w, vel.x, vel.y):
            assert np.array_equal(
                f.physical, _half_to_physical(g, f._half))
            assert not any(np.shares_memory(f.physical, a) for a in scratch)


def test_kernel_keeps_physical_views_it_is_given(divfree, noise):
    """Fields built from node values keep their own physical arrays, which
    the kernel never reads or writes; it forms omega, u and v from their
    half spectra."""
    g = Grid(16)
    for _ in range(3):
        u, v = divfree(g)
        vel = VectorField(ScalarField.from_physical(g, u.physical),
                          ScalarField.from_physical(g, v.physical))
        omega = noise(g)
        views = [f.physical for f in (omega, vel.x, vel.y)]
        copies = [a.copy() for a in views]
        got = skew_convection(vel, omega).spectral
        want = reference_skew_convection(vel, omega)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        for f, view, copy in zip((omega, vel.x, vel.y), views, copies):
            assert f.physical is view
            assert np.array_equal(view, copy)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_convection_depends_only_on_omegas_value(divfree, noise, n):
    """omega built from node values and a spectral-only copy of its half
    spectrum are one value, so they give the same bits. max|omega| is
    cached from the node values a field holds, else from the kernel's
    plane, its irfft2 bit for bit."""
    g = Grid(n)
    for _ in range(5):
        vel = divfree(g)
        p = noise(g).physical
        given = ScalarField.from_physical(g, p)
        copy = ScalarField._adopt(g, given._half)
        got, want = (skew_convection(vel, w)._half for w in (given, copy))
        assert np.array_equal(got, want)
        assert _sup_norm(given) == max(p.max(), -p.min())
        q = _half_to_physical(g, given._half)
        assert copy._phys is None
        assert _sup_norm(copy) == max(q.max(), -q.min())


@pytest.mark.parametrize("n", [15, 16])
@pytest.mark.parametrize("dealias", [False, True])
def test_matches_complex_fft_reference(noise, n, dealias):
    g = Grid(n)
    for nyquist_free in (True, False):
        for _ in range(5):
            vel = perp_gradient(noise(g, nyquist_free=nyquist_free))
            omega = noise(g, nyquist_free=nyquist_free)
            want = reference_skew_convection(vel, omega, dealias)
            got = skew_convection(vel, omega, dealias=dealias).spectral
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_skew_symmetry_random_pairs(divfree, noise):
    """<omega, N(u, omega)> vanishes for every divergence-free velocity."""
    for n in (16, 32):
        g = Grid(n)
        for _ in range(10):
            vel = divfree(g)
            omega = noise(g)
            conv = skew_convection(vel, omega)
            scale = max(1.0, l2_norm(omega) ** 2)
            assert abs(inner_product(omega, conv)) <= 1e-10 * scale


def test_output_mean_is_exactly_zero(divfree, noise):
    g = Grid(16)
    conv = skew_convection(divfree(g), noise(g))
    assert conv.spectral[0, 0] == 0.0
    assert abs(mean(conv)) < 1e-15


def test_rejects_divergent_velocity(noise):
    g = Grid(16)
    X, _ = g.nodes()
    # a gradient field, maximally divergent
    u = ScalarField.from_physical(g, np.sin(2 * np.pi * X))
    v = ScalarField.zeros(g)
    with pytest.raises(NotDivergenceFreeError):
        skew_convection(VectorField(u, v), noise(g))


def test_taylor_green_convection_vanishes():
    # omega is a function of psi for this flow, so u.grad omega = 0
    g = Grid(32)
    st = taylor_green_exact(g, TaylorGreenSpec(nu=1e-3))
    conv = skew_convection(st.vel, st.omega)
    assert np.max(np.abs(conv.physical)) < 1e-10


def test_matches_advective_form_for_smooth_fields(divfree, noise):
    """On well-resolved fields the skew form equals twice the advective
    form up to the subtracted mean (div(u w) = u.grad w discretely only up
    to aliasing, absent when the product spectrum fits)."""
    from vorspec import derivative

    g = Grid(64)
    vel = divfree(g, decay=8.0)
    omega = noise(g, decay=8.0)
    conv = skew_convection(vel, omega)

    adv_phys = (vel.x.physical * derivative(omega, "x").physical
                + vel.y.physical * derivative(omega, "y").physical)
    two_adv = 2.0 * (adv_phys - np.mean(adv_phys))
    rel = np.max(np.abs(conv.physical - two_adv)) / max(
        1.0, np.max(np.abs(two_adv)))
    assert rel < 1e-5


def test_dealias_flag_truncates_high_modes(divfree, noise):
    g = Grid(16)
    vel = divfree(g, decay=1.0)
    omega = noise(g, decay=1.0)
    conv = skew_convection(vel, omega, dealias=True)
    assert np.all(conv.spectral[~g.dealias_mask] == 0.0)


def test_dealias_keeps_skew_symmetry_on_truncated_fields(divfree, noise):
    # when omega itself lives inside the mask, <omega, P N> = <omega, N> = 0
    g = Grid(16)
    omega = noise(g, decay=1.0)
    omega = ScalarField.from_spectral(
        g, np.where(g.dealias_mask, omega.spectral, 0.0))
    vel = divfree(g, decay=1.0)
    conv = skew_convection(vel, omega, dealias=True)
    scale = max(1.0, l2_norm(omega) ** 2)
    assert abs(inner_product(omega, conv)) <= 1e-10 * scale


@pytest.mark.parametrize("n", [15, 16])
@pytest.mark.parametrize("dealias", [False, True])
def test_kernel_reuses_scratch_without_stale_reads(noise, n, dealias):
    """Two evaluations through one scratch pair, prefilled with NaN, give
    bit for bit what fresh scratch gives, and the first result survives
    the second evaluation."""
    g = Grid(n)
    psis = [noise(g, nyquist_free=False) for _ in range(2)]
    omegas = [noise(g, nyquist_free=False) for _ in range(2)]
    scratch = _scratch(g)
    for a in scratch:
        a.fill(np.nan)
    got = [_skew_kernel(w, dealias, scratch, perp_gradient(psi))
           for psi, w in zip(psis, omegas)]
    for psi, w, res in zip(psis, omegas, got):
        vel = perp_gradient(psi)
        assert np.array_equal(res, _skew_kernel(w, dealias, _scratch(g), vel))
        want = reference_skew_convection(vel, w, dealias)[:, :n // 2 + 1]
        assert np.max(np.abs(res - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [64, 128])
def test_kernel_allocates_no_transform_temporary(noise, n):
    """A warm evaluation allocates its result alone, with a given velocity
    or with the one omega induces: no physical view, no transform
    temporary and no psi, u or v, since the passes run in the scratch
    stacks and the induced velocity is built there. Measured slack over
    the result: 1072 B at N = 64 and 1008 B at N = 128 (a cached omega
    view added N^2 8 B; a batched irfftn's five-plane complex temporary,
    169 kB at N = 64, far more)."""
    g = Grid(n)
    psi, omega = noise(g), noise(g)
    scratch = _scratch(g)

    def spectral_only(f):  # a copy whose physical view is not yet formed
        return ScalarField._adopt(g, half=f._half)

    _skew_kernel(spectral_only(omega), False, scratch,
                 perp_gradient(spectral_only(psi)))
    for vel in (perp_gradient(spectral_only(psi)), None):
        w = spectral_only(omega)
        tracemalloc.start()
        try:
            result = _skew_kernel(w, False, scratch, vel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= result.nbytes + 4096


@pytest.mark.parametrize("n", [15, 16])
@pytest.mark.parametrize("dealias", [False, True])
def test_one_kernel_with_two_loaders(noise, n, dealias):
    """The public function, given the velocity make_state builds, and the
    run's kernel, which builds the velocity omega induces in its scratch,
    give the same result bit for bit, and the same divergence norm, cached
    on the given velocity or on omega."""
    g = Grid(n)
    for nyquist_free in (True, False):
        w = noise(g, nyquist_free=nyquist_free)
        vel = make_state(w, 0.0).vel
        given = skew_convection(vel, w, dealias=dealias)
        induced = _skew_kernel(ScalarField._adopt(g, w._half), dealias,
                               _scratch(g))
        assert np.array_equal(given._half, induced)
        assert vel._norms["div"] == _div_norm_sq(w)
