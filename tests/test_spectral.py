"""Spectral core: grids, transforms, derivatives, inner products."""

import tracemalloc

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
from vorspec.spectral import (_kinematic_error_table, _parseval_pass,
                              _parseval_table, _vel_symbol)

from conftest import full_spectrum_sums


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
    # an infinite or nan length, or one whose spacing or wavenumber tables
    # overflow to inf or nan or underflow to zero, names the length in one
    # ValueError, without a RuntimeWarning
    for length in (float("inf"), float("nan"), 1e-310, 1e160, 1e-160,
                   1e170):
        with pytest.raises(ValueError, match="domain length"):
            Grid(8, length=length)
    for length in (1e-100, 1e150):
        g = Grid(8, length=length)
        for table in (g._d1x, g._d1y, g._ksq, g._inv_ksq):
            assert np.isfinite(table).all()


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


@pytest.mark.parametrize("order", [0, 3])
def test_derivative_rejects_unknown_order(noise, order):
    with pytest.raises(ValueError, match="order must be 1 or 2"):
        derivative(noise(Grid(8)), "x", order)


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
    from vorspec.spectral import _full_spectrum, _half_norm_sq

    g = Grid(n)
    f = noise(g, nyquist_free=False)
    full = np.fft.fft2(f.physical) / (n * n)
    half = f._half  # the transform from_physical made
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
    """Fields built from node values combine through their half spectra;
    the result agrees with plain array arithmetic to roundoff."""
    g = Grid(8)
    f = noise(g)
    h = noise(g)
    s = f + h
    np.testing.assert_allclose(s.physical, f.physical + h.physical, atol=1e-14)
    d = f - h
    np.testing.assert_allclose(d.physical, f.physical - h.physical, atol=1e-14)
    np.testing.assert_allclose((2.5 * f).physical, 2.5 * f.physical, atol=1e-14)
    np.testing.assert_allclose((f / 2.0).physical, f.physical / 2.0, atol=1e-14)
    np.testing.assert_allclose((-f).physical, -f.physical, atol=1e-15)


@pytest.mark.parametrize("n", [15, 16])
def test_every_construction_path_holds_a_read_only_half_spectrum(noise, n):
    """The half spectrum is each field's one value, present from the
    start; the physical array is only a cache."""
    from vorspec import make_state

    g = Grid(n)
    f, h = noise(g), noise(g)
    p = f.physical
    fields = {
        "from_physical": ScalarField.from_physical(g, p),
        "fortran_order": ScalarField.from_physical(g, np.asfortranarray(p)),
        "from_spectral": ScalarField.from_spectral(g, f.spectral),
        "zeros": ScalarField.zeros(g),
        "sum": f + h, "difference": f - h, "scaled": 2.5 * f,
        "divided": f / 3.0, "negated": -h,
        "derivative": derivative(f, "x"), "second": derivative(f, "y", 2),
        "laplacian": laplacian(f),
        "perp_x": perp_gradient(f).x, "perp_y": perp_gradient(f).y,
        "make_state": make_state(h, 0.0).omega,
    }
    for name, field in fields.items():
        half = field._half
        assert half is not None, name
        assert half.shape == (n, n // 2 + 1) and half.dtype == complex, name
        assert not half.flags.writeable, name


@pytest.mark.parametrize("order", ["C", "F"])
def test_from_physical_keeps_its_array_and_transforms_once(
        rng, monkeypatch, order):
    """The constructor makes the one forward transform and keeps the given
    values as the physical cache; reading the field later makes none."""
    g = Grid(12)
    p = np.array(rng.normal(size=(12, 12)), order=order)
    want = np.fft.rfft2(p, norm="forward")
    calls = []
    rfft2 = np.fft.rfft2
    monkeypatch.setattr(np.fft, "rfft2",
                        lambda *a, **k: calls.append(a) or rfft2(*a, **k))
    f = ScalarField.from_physical(g, p)
    assert len(calls) == 1
    _ = (f + f, 2.0 * f, mean(f), f.spectral, derivative(f, "x"))
    assert len(calls) == 1
    assert np.array_equal(f._half, want)
    assert np.array_equal(f.physical, p)
    assert not np.shares_memory(f.physical, p)
    assert not f.physical.flags.writeable


def test_constructor_takes_exactly_one_array(rng):
    g = Grid(8)
    p = rng.normal(size=(8, 8))
    with pytest.raises(ValueError, match="exactly one"):
        ScalarField(g, physical=p, spectral=np.zeros((8, 8)))
    with pytest.raises(ValueError, match="exactly one"):
        ScalarField(g)


@pytest.mark.parametrize("kind", ["physical", "spectral"])
def test_constructor_rejects_a_wrong_shape(kind):
    with pytest.raises(ValueError, match=f"{kind} array shape"):
        ScalarField(Grid(8), **{kind: np.zeros((8, 9))})


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


@pytest.mark.parametrize("n", [15, 16])
def test_cached_norms_match_uncached_parseval_sums(noise, n):
    from vorspec import make_state
    from vorspec.spectral import _norm_sq

    g = Grid(n, length=2.0)
    f = noise(g, nyquist_free=False)
    h = noise(g, nyquist_free=False)
    k = 2.0 * np.pi / g.length * g.wavenumbers
    ksq = k[:, None] ** 2 + k[None, :] ** 2
    # the squared first-derivative symbols, zero on the even-N Nyquist
    # row and column, over ksq^2: the velocity weight of m = -1
    d1sq = np.where((g.wavenumbers == -(n // 2)) & (n % 2 == 0), 0.0, k)**2
    vel_weight = np.divide(d1sq[:, None] + d1sq[None, :], ksq**2,
                           out=np.zeros_like(ksq), where=ksq > 0)
    orders = (-1, 0, 1, 2)
    for a in (f, h):  # fill the operands' caches before deriving fields
        taken = {m: _norm_sq(a, m) for m in orders}
        assert {m: a._norms[m] for m in orders} == taken
    fields = {
        "from_physical": ScalarField.from_physical(g, f.physical),
        "fortran_order": ScalarField.from_physical(
            g, np.asfortranarray(f.physical)),
        "from_spectral": ScalarField.from_spectral(g, f.spectral),
        "sum": f + h, "difference": f - h, "scaled": 2.5 * f,
        "divided": f / 3.0, "negated": -h,
        "make_state": make_state(h, 0.0).omega,
    }
    for name, field in fields.items():
        power = np.abs(np.fft.fft2(field.physical) / n**2) ** 2
        for m in range(3):
            want = g.length**2 * float(np.sum(power * ksq**m))
            got = _norm_sq(field, m)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), (name, m)
            assert _norm_sq(field, m) is got, (name, m)  # read from the cache
        want = g.length**2 * float(np.sum(power * vel_weight))
        assert _norm_sq(field, -1) == pytest.approx(want, rel=1e-13,
                                                    abs=0.0), name
        l2sq = g.spacing**2 * float(np.sum(field.physical ** 2))
        assert _norm_sq(field) == pytest.approx(l2sq, rel=1e-13), name


@pytest.mark.parametrize("length", [1.0, 2.0])
@pytest.mark.parametrize("n", [15, 16, 64, 256])
def test_parseval_tables_are_ieee_products(n, length):
    """Every row of the grid's and the convergence study's Parseval tables
    is, bit for bit, the IEEE product of the mode tables, the column
    weights and the velocity symbol, with no power function: real and
    read-only, of shape (rows, N (N//2 + 1))."""
    g = Grid(n, length)
    ksq, inv = g._ksq, g._inv_ksq.real
    d1x, d1y = g._d1x.imag, g._d1y.imag
    vel = _vel_symbol(g)
    np.testing.assert_array_equal(vel, (d1x * d1x + d1y * d1y) * (inv * inv))
    weight = np.full(n // 2 + 1, 2.0)
    weight[0] = 1.0
    if n % 2 == 0:
        weight[-1] = 1.0
    w = np.broadcast_to(length * length * weight, ksq.shape)
    tables = {
        "grid": (_parseval_table(g),
                 [w, ksq * w, (ksq * ksq) * w, vel * w]),
        "study": (_kinematic_error_table(g),
                  [w, (inv * inv) * w, vel * w, ksq * w,
                   ((inv * inv) * ksq) * w, (vel * ksq) * w]),
    }
    for name, (table, rows) in tables.items():
        assert table.dtype == np.float64, name
        assert table.shape == (len(rows), ksq.size), name
        assert not table.flags.writeable, name
        np.testing.assert_array_equal(table, np.reshape(rows, table.shape))


@pytest.mark.parametrize("n", [15, 16])
def test_parseval_sums_match_full_spectrum_sums(noise, n):
    """A _parseval_pass over the grid's table gives the L2, H1, H2 and
    velocity sums of Re(a conj b) over the full spectrum to 1e-13 of the
    Cauchy-Schwarz scale, Nyquist content and the mean included: for cross
    pairs, a square, and a square made in place in its own plane."""
    g = Grid(n, length=2.0)
    f, h = (noise(g, nyquist_free=False, zero_mean=False)._half
            for _ in range(2))
    table = _parseval_table(g)
    pairs = [(f, h), (h, f), (f, f)]
    got = _parseval_pass(table, 3, np.empty((5, *f.shape), complex))(pairs)
    own = np.array(f)
    got += _parseval_pass(table, 1, own[None])([(own, own)])
    square = {id(x): full_spectrum_sums(g, x, x) for x in (f, h)}
    for (a, b), sums in zip(pairs + [(f, f)], got):
        want = full_spectrum_sums(g, a, b)
        scale = np.sqrt(np.multiply(square[id(a)], square[id(b)]))
        assert len(sums) == 4
        assert np.all(np.abs(np.subtract(sums, want)) <= 1e-13 * scale), (
            sums, want)


# traced bytes a warm bound pass may allocate: its result lists and the
# product's small array, nothing of a plane's size (33 kB at N = 64)
_BOUND_PASS_TRACE_BOUND = 1024


@pytest.mark.parametrize("rows, n", [(3, 3), (4, 1)])
def test_a_warm_bound_pass_allocates_no_plane(noise, rows, n):
    """A pass bound once by _parseval_pass gives, on every call, the bits
    of a pass bound for one call on a fresh stack, and a warm call
    allocates under 1 kB at N = 64: the record's cross pass (three pairs,
    three rows) and its norm pass (one pair)."""
    g = Grid(64)
    f, h = (noise(g)._half for _ in range(2))
    pairs = [(f, h), (f, f), (h, f)][:n]
    table = _parseval_table(g)[:rows]
    stack = (2 * n - 1, *f.shape)
    sums = _parseval_pass(table, n, np.empty(stack, complex))
    want = _parseval_pass(table, n, np.empty(stack, complex))(pairs)
    assert sums(pairs) == want
    tracemalloc.start()
    try:
        got = sums(pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak < _BOUND_PASS_TRACE_BOUND
