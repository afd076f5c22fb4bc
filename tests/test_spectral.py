"""Spectral core: grids, transforms, derivatives, inner products."""

import numpy as np
import pytest

from vorspec import (
    Grid,
    GridMismatchError,
    ScalarField,
    VectorField,
    derivative,
    divergence,
    gradient,
    inner_product,
    l2_norm,
    laplacian,
    mean,
    perp_gradient,
)


def test_grid_basic_properties():
    g = Grid(16)
    assert g.n == 16
    assert g.length == 1.0
    assert g.spacing == pytest.approx(1.0 / 16)
    assert list(g.wavenumbers[:3]) == [0, 1, 2]
    assert g.wavenumbers[8] == -8
    assert g.wavenumbers[-1] == -1


def test_grid_nodes_cover_half_open_box():
    g = Grid(8, length=2.0)
    X, Y = g.nodes()
    assert X.shape == (8, 8)
    assert X[0, 0] == 0.0
    assert X[-1, 0] == pytest.approx(2.0 - 2.0 / 8)
    # ij indexing: X varies along the first axis only
    assert np.all(X[:, 0] == X[:, 3])
    assert np.all(Y[0, :] == Y[5, :])


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        Grid(0)
    with pytest.raises(ValueError):
        Grid(-4)
    with pytest.raises(ValueError):
        Grid(16, length=0.0)


def test_grid_equality_and_hash():
    assert Grid(16) == Grid(16)
    assert Grid(16) != Grid(32)
    assert Grid(16) != Grid(16, length=2.0)
    assert hash(Grid(16)) == hash(Grid(16))


def test_dealias_mask_two_thirds_rule():
    g = Grid(12)
    mask = g.dealias_mask
    cut = 12 // 3
    kept = np.abs(g.wavenumbers) <= cut
    assert np.array_equal(mask, kept[:, None] & kept[None, :])


def test_round_trip_physical_spectral(noise):
    g = Grid(16)
    f = noise(g, nyquist_free=False)
    back = ScalarField.from_spectral(g, f.spectral)
    np.testing.assert_allclose(back.physical, f.physical, atol=1e-14)


def test_forward_transform_normalization():
    # f = 1 must transform to a single unit coefficient at k = 0
    g = Grid(8)
    f = ScalarField.from_physical(g, np.ones((8, 8)))
    spec = f.spectral
    assert spec[0, 0] == pytest.approx(1.0)
    assert np.max(np.abs(spec.flatten()[1:])) < 1e-15


def test_derivative_exact_on_sines():
    g = Grid(32)
    X, Y = g.nodes()
    f = ScalarField.from_physical(g, np.sin(2 * np.pi * 3 * X))
    fx = derivative(f, "x")
    expected = 6 * np.pi * np.cos(2 * np.pi * 3 * X)
    np.testing.assert_allclose(fx.physical, expected, atol=1e-10)

    fy = derivative(f, "y")
    np.testing.assert_allclose(fy.physical, 0.0, atol=1e-12)


def test_second_derivative_and_length_scaling():
    g = Grid(32, length=2.0)
    X, _ = g.nodes()
    f = ScalarField.from_physical(g, np.cos(np.pi * X))  # one period on [0,2)
    fxx = derivative(f, "x", order=2)
    np.testing.assert_allclose(fxx.physical, -np.pi**2 * np.cos(np.pi * X),
                               atol=1e-10)


def test_derivative_rejects_unknown_axis(noise):
    f = noise(Grid(8))
    with pytest.raises(ValueError):
        derivative(f, "z")


def test_nyquist_mode_first_derivative_is_zeroed():
    # the sawtooth mode cos(pi n x) has no odd-symmetric partner on an even
    # grid; its first derivative is defined as zero
    g = Grid(8)
    X, _ = g.nodes()
    f = ScalarField.from_physical(g, np.cos(2 * np.pi * 4 * X))
    assert l2_norm(derivative(f, "x")) < 1e-13
    # the second-order symbol keeps it
    assert l2_norm(derivative(f, "x", order=2)) > 1.0


def test_half_spectrum_tables_zero_nyquist_on_both_axes():
    g = Grid(8)
    assert g._d1x.shape == g._d1y.shape == g._ksq.shape == (8, 5)
    assert np.all(g._d1x[4, :] == 0.0)  # Nyquist row of the full axis
    assert np.all(g._d1y[:, 4] == 0.0)  # Nyquist column of the halved axis
    # the first columns of the full tables, built here from the mode indices
    k = g.wavenumbers.astype(float)
    d1 = 1j * (2.0 * np.pi / g.length) * k
    ksq = (2.0 * np.pi / g.length)**2 * (k[:, None]**2 + k[None, :]**2)
    np.testing.assert_array_equal(g._d1y[:, :4],
                                  np.broadcast_to(d1[None, :4], (8, 4)))
    np.testing.assert_array_equal(g._ksq, ksq[:, :5])


@pytest.mark.parametrize("n", [15, 16])
def test_half_spectrum_round_trip_and_parseval(noise, n):
    from vorspec.spectral import (_full_spectrum, _half_norm_sq,
                                  _half_spectrum)

    g = Grid(n)
    f = noise(g, nyquist_free=False)
    full = np.fft.fft2(f.physical) / (n * n)
    half = _half_spectrum(f)  # a real transform of the physical view
    np.testing.assert_allclose(half, full[:, :n // 2 + 1], atol=1e-14)
    np.testing.assert_allclose(_full_spectrum(g, half), full, atol=1e-14)
    assert _half_norm_sq(g, half) == pytest.approx(l2_norm(f)**2, rel=1e-13)


@pytest.mark.parametrize("n", [15, 16])
def test_full_spectrum_reduces_to_its_hermitian_part(rng, n):
    g = Grid(n)
    F = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    f = ScalarField.from_spectral(g, F)
    np.testing.assert_allclose(f.physical, np.fft.ifft2(F).real * n**2,
                               rtol=0, atol=1e-13)
    mirror = np.roll(F[::-1, ::-1], 1, axis=(0, 1))  # F[-k, -l]
    np.testing.assert_array_equal(f.spectral, (F + np.conj(mirror)) / 2)


def test_laplacian_matches_div_grad_on_nyquist_free_fields(noise):
    g = Grid(16)
    f = noise(g)  # nyquist-free by default
    lhs = laplacian(f)
    rhs = divergence(gradient(f))
    np.testing.assert_allclose(lhs.physical, rhs.physical, atol=1e-10)


def test_laplacian_matches_div_grad_unconditionally_on_odd_grids(noise):
    g = Grid(17)
    f = noise(g, nyquist_free=False)
    np.testing.assert_allclose(laplacian(f).physical,
                               divergence(gradient(f)).physical, atol=1e-10)


def test_summation_by_parts_first_derivative(noise):
    # <f, D g> = -<D f, g> holds for all fields, Nyquist content included
    g = Grid(16)
    f = noise(g, nyquist_free=False)
    h = noise(g, nyquist_free=False)
    lhs = inner_product(f, derivative(h, "x"))
    rhs = -inner_product(derivative(f, "x"), h)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_parseval_inner_product(noise):
    g = Grid(16)
    f = noise(g, nyquist_free=False)
    h = noise(g, nyquist_free=False)
    phys = g.length**2 * np.mean(f.physical * h.physical)
    assert inner_product(f, h) == pytest.approx(phys, rel=1e-13, abs=1e-15)


def test_perp_gradient_is_divergence_free(noise):
    g = Grid(16)
    psi = noise(g, nyquist_free=False)
    vel = perp_gradient(psi)
    assert l2_norm(divergence(vel)) < 1e-12


def test_perp_gradient_components(noise):
    g = Grid(16)
    psi = noise(g)
    vel = perp_gradient(psi)
    np.testing.assert_allclose(vel.x.physical, derivative(psi, "y").physical,
                               atol=1e-13)
    np.testing.assert_allclose(vel.y.physical, -derivative(psi, "x").physical,
                               atol=1e-13)


def test_field_arithmetic(noise):
    g = Grid(8)
    f = noise(g)
    h = noise(g)
    s = f + h
    np.testing.assert_allclose(s.physical, f.physical + h.physical, atol=1e-13)
    d = f - h
    np.testing.assert_allclose(d.physical, f.physical - h.physical, atol=1e-13)
    np.testing.assert_allclose((2.5 * f).physical, 2.5 * f.physical, atol=1e-13)
    np.testing.assert_allclose((f / 2.0).physical, f.physical / 2.0, atol=1e-13)
    np.testing.assert_allclose((-f).physical, -f.physical, atol=1e-15)


def test_mixed_grid_arithmetic_rejected(noise):
    f = noise(Grid(8))
    h = noise(Grid(16))
    with pytest.raises(GridMismatchError):
        _ = f + h


def test_mean_and_l2_norm():
    g = Grid(16)
    X, Y = g.nodes()
    f = ScalarField.from_physical(g, 3.0 + np.sin(2 * np.pi * X))
    assert mean(f) == pytest.approx(3.0, abs=1e-14)
    # ||3 + sin||^2 = 9 + 1/2 on the unit box
    assert l2_norm(f) == pytest.approx(np.sqrt(9.5), rel=1e-13)


def test_vector_field_requires_matching_grids(noise):
    with pytest.raises(GridMismatchError):
        VectorField(noise(Grid(8)), noise(Grid(16)))
