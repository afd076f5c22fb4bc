"""Self-contained invariant suite behind the `check` subcommand.

Each check exercises one contract of the library on randomized or analytic
data and returns a pass/fail verdict with a measured number. The suite is
deterministic (fixed seed) and finishes in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Optional

import numpy as np

from .bench import TaylorGreenSpec, taylor_green_exact
from .convection import skew_convection
from .diagnostics import (bdf3_stencil, get_telescope_coefficients,
                          stability_F, verify_telescope)
from .fields import make_state, poincare_ratio, solve_poisson
from .integrators import RunConfig, SchemeId, helmholtz_solve, run
from .spectral import (Grid, ScalarField, derivative, divergence, gradient,
                       inner_product, l2_norm, laplacian, mean)

__all__ = ["CheckResult", "run_checks", "ALL_CHECKS"]

_SEED = 24018


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    bound: float

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"{tag}  {self.name}: measured {self.measured:.3e}"
                f" (bound {self.bound:.3e})")


def _noise(grid: Grid, rng, zero_mean=True, nyquist_free=False) -> ScalarField:
    """Random band-limited field with smooth spectral decay."""
    n = grid.n
    spec = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    k = grid.wavenumbers
    decay = 1.0 / (1.0 + k[:, None] ** 2 + k[None, :] ** 2)
    spec = spec * decay
    if zero_mean:
        spec[0, 0] = 0.0
    if nyquist_free and n % 2 == 0:
        spec[n // 2, :] = 0.0
        spec[:, n // 2] = 0.0
    # real-valued: the constructor keeps the Hermitian part
    return ScalarField.from_spectral(grid, spec)


def _check_sbp_first_derivative() -> CheckResult:
    rng = np.random.default_rng(_SEED)
    worst = 0.0
    for n in (16, 32, 33):
        grid = Grid(n)
        for _ in range(5):
            f = _noise(grid, rng)
            g = _noise(grid, rng)
            for axis in ("x", "y"):
                lhs = inner_product(f, derivative(g, axis, 1))
                rhs = -inner_product(derivative(f, axis, 1), g)
                scale = max(1.0, l2_norm(f) * l2_norm(g))
                worst = max(worst, abs(lhs - rhs) / scale)
    return CheckResult("first-derivative summation by parts", worst <= 1e-12,
                       worst, 1e-12)


def _check_div_grad_laplacian() -> CheckResult:
    rng = np.random.default_rng(_SEED + 1)
    worst = 0.0
    for n in (16, 33):
        grid = Grid(n)
        for _ in range(5):
            f = _noise(grid, rng, nyquist_free=True)
            d = divergence(gradient(f)) - laplacian(f)
            worst = max(worst, l2_norm(d) / max(1.0, l2_norm(f)))
    return CheckResult("div(grad) equals laplacian (Nyquist-free)",
                       worst <= 1e-10, worst, 1e-10)


def _check_poincare() -> CheckResult:
    rng = np.random.default_rng(_SEED + 2)
    worst = 0.0
    for _ in range(10):
        grid = Grid(32)
        f = _noise(grid, rng, zero_mean=True, nyquist_free=True)
        worst = max(worst, poincare_ratio(f))
    bound = 1.0 / (2.0 * np.pi) + 1e-12
    return CheckResult("Poincare inequality for mean-free fields",
                       worst <= bound, worst, bound)


def _check_parseval() -> CheckResult:
    rng = np.random.default_rng(_SEED + 3)
    worst = 0.0
    for _ in range(5):
        grid = Grid(24)
        f = _noise(grid, rng, zero_mean=False)
        phys_sq = inner_product(f, f)
        spec_sq = grid.length**2 * float(np.sum(np.abs(f.spectral) ** 2))
        worst = max(worst, abs(phys_sq - spec_sq) / max(1.0, phys_sq))
    return CheckResult("Parseval identity", worst <= 1e-13, worst, 1e-13)


def _check_poisson() -> CheckResult:
    rng = np.random.default_rng(_SEED + 4)
    worst = 0.0
    for _ in range(5):
        grid = Grid(32)
        w = _noise(grid, rng)
        psi = solve_poisson(w)
        res = laplacian(psi) + w
        worst = max(worst, l2_norm(res) / max(1.0, l2_norm(w)))
        worst = max(worst, abs(mean(psi)))
    return CheckResult("Poisson solve: -lap(psi) = omega, mean-free",
                       worst <= 1e-12, worst, 1e-12)


def _check_velocity_div_free() -> CheckResult:
    rng = np.random.default_rng(_SEED + 5)
    worst = 0.0
    for _ in range(5):
        grid = Grid(32)
        w = _noise(grid, rng)
        state = make_state(w, 0.0)
        worst = max(worst,
                    l2_norm(divergence(state.vel)) / max(1.0, l2_norm(w)))
    return CheckResult("velocity from stream function is divergence-free",
                       worst <= 1e-12, worst, 1e-12)


def _check_skew_symmetry() -> CheckResult:
    rng = np.random.default_rng(_SEED + 6)
    worst = 0.0
    worst_mean = 0.0
    for n in (16, 32):
        grid = Grid(n)
        for _ in range(10):
            w = _noise(grid, rng)
            carrier = make_state(_noise(grid, rng), 0.0)
            conv = skew_convection(carrier.vel, w)
            gx, gy = gradient(w)
            grad_norm = float(np.hypot(l2_norm(gx), l2_norm(gy)))
            scale = max(1e-300, l2_norm(w) * grad_norm)
            worst = max(worst, abs(inner_product(w, conv)) / scale)
            worst_mean = max(worst_mean,
                             abs(mean(conv)) / max(1e-300, l2_norm(conv)))
    passed = worst <= 1e-10 and worst_mean <= 1e-13
    return CheckResult("convection is skew-symmetric and mean-free",
                       passed, max(worst, worst_mean), 1e-10)


def _check_taylor_green_convection() -> CheckResult:
    worst = 0.0
    for n in (32, 64):
        state = taylor_green_exact(Grid(n), TaylorGreenSpec(nu=1e-3))
        conv = skew_convection(state.vel, state.omega)
        worst = max(worst, float(np.max(np.abs(conv.physical))))
    return CheckResult("convection vanishes on the decaying vortex",
                       worst <= 1e-10, worst, 1e-10)


def _check_helmholtz() -> CheckResult:
    rng = np.random.default_rng(_SEED + 7)
    grid = Grid(32)
    a, dt, nu = 11.0 / 6.0, 1e-3, 3e-4
    worst = 0.0
    for _ in range(5):
        rhs = _noise(grid, rng)
        w = helmholtz_solve(rhs, a, dt, nu)
        res = (a / dt) * w - nu * laplacian(w) - rhs
        worst = max(worst, l2_norm(res) / max(1.0, l2_norm(rhs)))
    return CheckResult("Helmholtz solve residual", worst <= 1e-9, worst, 1e-9)


def _check_telescope() -> CheckResult:
    coeffs = get_telescope_coefficients()
    res = verify_telescope(coeffs, trials=1000, seed=_SEED + 8)
    s = abs(sum(coeffs.alpha[6:10]))
    ok = (res <= 1e-10 and coeffs.alpha[0] > 0 and s <= 1e-12)
    return CheckResult("telescope coefficient identity",
                       ok, max(res, s), 1e-10)


def _check_stencil_split() -> CheckResult:
    rng = np.random.default_rng(_SEED + 9)
    worst = 0.0
    for _ in range(200):
        f3, f2, f1, f0 = rng.standard_normal(4) * 10.0
        lhs = 11.0 / 6.0 * f3 - 3.0 * f2 + 1.5 * f1 - f0 / 3.0
        rhs = (2.0 / 3.0 * (f3 - f2) + 7.0 / 6.0 * (f3 - 2.0 * f2 + f1)
               + 1.0 / 3.0 * (f1 - f0))
        worst = max(worst, abs(lhs - rhs))
    grid = Grid(12)
    fs = [_noise(grid, rng) for _ in range(4)]
    lhs_f = bdf3_stencil(*fs)
    rhs_f = (2.0 / 3.0) * (fs[0] - fs[1]) \
        + (7.0 / 6.0) * (fs[0] - 2.0 * fs[1] + fs[2]) \
        + (1.0 / 3.0) * (fs[2] - fs[3])
    worst = max(worst, l2_norm(lhs_f - rhs_f))
    return CheckResult("third-order stencil split identity", worst <= 1e-13,
                       worst, 1e-13)


def _check_functional_bounds() -> CheckResult:
    rng = np.random.default_rng(_SEED + 10)
    coeffs = get_telescope_coefficients()
    grid = Grid(16)
    worst = 0.0
    for _ in range(10):
        hist = tuple(_noise(grid, rng) for _ in range(3))
        F = stability_F(hist, nu=1e-3, dt=1e-3)
        bound = F / coeffs.alpha[0] ** 2
        wsq = l2_norm(hist[0]) ** 2
        if F < 0:
            worst = max(worst, -F)
        if wsq > bound * (1.0 + 1e-12):
            worst = max(worst, wsq - bound)
    return CheckResult("stability functional dominates the squared norm",
                       worst == 0.0, worst, 0.0)


def _scalar_trajectory(lam: float, dt: float, steps: int) -> np.ndarray:
    """Reference amplitude sequence: explicit midpoint, one two-step
    multistep advance, then the three-step recurrence."""
    y = np.empty(steps + 1)
    y[0] = 1.0
    z = lam * dt
    y[1] = y[0] * (1.0 + z + 0.5 * z * z)
    if steps >= 2:
        y[2] = (4.0 * y[1] - y[0]) / (3.0 - 2.0 * z)
    for k in range(3, steps + 1):
        y[k] = (3.0 * y[k - 1] - 1.5 * y[k - 2] + y[k - 3] / 3.0) \
            / (11.0 / 6.0 - z)
    return y


def _check_linear_recurrence() -> CheckResult:
    n, nu, dt, t_final = 32, 1e-3, 0.005, 0.2
    grid = Grid(n)
    state0 = taylor_green_exact(grid, TaylorGreenSpec(nu=nu))
    cfg = RunConfig(n=n, dt=dt, nu=nu, t_final=t_final,
                    scheme=SchemeId.IMEX_BDF3, series_every=1)
    lam = -8.0 * nu * np.pi**2
    ref = 2.0 * np.pi * _scalar_trajectory(lam, dt, cfg.n_steps)
    errs = []

    def observe(step, flow):
        errs.append(abs(l2_norm(flow.omega) - ref[step]) / ref[step])

    run(state0.omega, cfg, observer=observe)
    worst = max(errs)
    return CheckResult("single-mode run matches the scalar recurrence",
                       worst <= 1e-10, worst, 1e-10)


ALL_CHECKS: tuple = (
    _check_sbp_first_derivative,
    _check_div_grad_laplacian,
    _check_poincare,
    _check_parseval,
    _check_poisson,
    _check_velocity_div_free,
    _check_skew_symmetry,
    _check_taylor_green_convection,
    _check_helmholtz,
    _check_telescope,
    _check_stencil_split,
    _check_functional_bounds,
    _check_linear_recurrence,
)


def run_checks(stream: Optional[IO[str]] = None) -> bool:
    """Run every check, print one line each, return overall success."""
    ok = True
    for fn in ALL_CHECKS:
        result = fn()
        ok = ok and bool(result.passed)
        if stream is not None:
            stream.write(result.line() + "\n")
            stream.flush()
    return ok
