"""Flow-state assembly: Poisson solve, velocity recovery, mean discipline."""

import numpy as np
import pytest

from vorspec import (
    Grid,
    MeanViolationError,
    ScalarField,
    divergence,
    l2_norm,
    laplacian,
    make_state,
    mean,
    poincare_ratio,
    solve_poisson,
    velocity_from_stream,
)


def test_solve_poisson_inverts_laplacian(noise):
    g = Grid(16)
    psi_true = noise(g, nyquist_free=False)
    omega = -laplacian(psi_true)
    psi = solve_poisson(omega)
    np.testing.assert_allclose(psi.physical, psi_true.physical, atol=1e-11)


def test_solve_poisson_output_is_mean_free(noise):
    g = Grid(16)
    omega = noise(g)
    assert abs(mean(solve_poisson(omega))) < 1e-15


def test_solve_poisson_rejects_nonzero_mean():
    g = Grid(8)
    f = ScalarField.from_physical(g, np.ones((8, 8)))
    with pytest.raises(MeanViolationError):
        solve_poisson(f)


def test_velocity_from_stream_is_divergence_free(noise):
    g = Grid(16)
    psi = noise(g, nyquist_free=False)
    assert l2_norm(divergence(velocity_from_stream(psi))) < 1e-12


def test_make_state_consistency(noise):
    g = Grid(16)
    omega = noise(g)
    st = make_state(omega, t=0.25)
    assert st.time == 0.25
    # -Lap psi = omega
    np.testing.assert_allclose((-laplacian(st.psi)).physical,
                               omega.physical, atol=1e-10)
    assert l2_norm(divergence(st.vel)) < 1e-12
    assert abs(mean(st.psi)) < 1e-15


def test_make_state_projects_tiny_mean():
    # means below tolerance are projected out rather than rejected
    g = Grid(8)
    X, _ = g.nodes()
    phys = np.sin(2 * np.pi * X) + 1e-13
    st = make_state(ScalarField.from_physical(g, phys), t=0.0)
    assert st.omega.spectral[0, 0] == 0.0


def test_make_state_rejects_large_mean():
    g = Grid(8)
    f = ScalarField.from_physical(g, np.full((8, 8), 0.5))
    with pytest.raises(MeanViolationError):
        make_state(f, t=0.0)


def test_poincare_ratio_on_lowest_mode():
    # ||f|| / ||grad f|| = L / (2 pi) exactly for the first mode
    g = Grid(32)
    X, _ = g.nodes()
    f = ScalarField.from_physical(g, np.sin(2 * np.pi * X))
    assert poincare_ratio(f) == pytest.approx(1.0 / (2 * np.pi), rel=1e-12)


def test_poincare_bound_random_fields(noise):
    g = Grid(16)
    bound = 1.0 / (2 * np.pi) + 1e-12
    for _ in range(20):
        f = noise(g)  # zero-mean, nyquist-free
        assert poincare_ratio(f) <= bound


def test_poincare_bound_odd_grid_unconditional(noise):
    g = Grid(15)
    bound = 1.0 / (2 * np.pi) + 1e-12
    for _ in range(20):
        f = noise(g, nyquist_free=False)
        assert poincare_ratio(f) <= bound
