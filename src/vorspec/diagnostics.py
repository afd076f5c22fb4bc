"""Norms, flow monitors, stability functionals, telescope coefficients.

The quadratic stability functionals F and G1 rest on a telescoping
decomposition of the third-order BDF stencil: there are coefficients
alpha_1..alpha_10 with

    <(11/6) a - 3 b + (3/2) c - (1/3) d, 2 a - b>
        = P(a, b, c) - P(b, c, d) + (a7 a + a8 b + a9 c + a10 d)^2,
    P(x, y, z) = a1^2 x^2 + (a2 x + a3 y)^2 + (a4 x + a5 y + a6 z)^2,

valid per grid point and hence, summed with quadrature weights, for the
discrete inner product of fields. Matching the ten quadratic monomials in
(a, b, c, d) gives ten equations; evaluating the identity at
a = b = c = d = 1 shows a7 + a8 + a9 + a10 = 0 is implied, and that linear
relation is solved together with the ten (a residual tolerance eps on the
quadratic system alone would bound the sum only by sqrt(eps)).

The 11-by-10 system is solved in closed form. Up to the sign symmetries
a1 -> -a1, (a2, a3) -> -(a2, a3), (a4, a5, a6) -> -(a4, a5, a6) and
(a7..a10) -> -(a7..a10), every real solution has a3 = a10 = -a6,
a9 = -a5, a7 = 1/(3 a6) and a8 = a5 + a6 - a7, with a6 one of the two real
roots of 9x^4 - 9x^3 - 3x^2 - 3x + 1; the remaining alphas are radicals in
q = +-sqrt(6 + 18 sqrt(5)) (see _closed_form). The canonical signs are
a1 > 0 and a2, a4, a7 >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter, mul
import numpy as np

from .errors import GridMismatchError
from .fields import FlowState
from .spectral import (Grid, ScalarField, _div_norm_sq, _norm_sq,
                       _parseval_pass, _parseval_table, _sup_norm,
                       inner_product, l2_norm)

__all__ = [
    "TelescopeCoeffs",
    "SeriesRecord",
    "get_telescope_coefficients",
    "verify_telescope",
    "bdf3_stencil",
    "stability_F",
    "stability_G1",
    "energy",
    "enstrophy",
    "div_error",
    "hm_norm",
    "make_record",
]

_VERIFY_SEED = 9217
# tuples per chunk of verify_telescope's scalar check (a few MB of arrays)
_VERIFY_CHUNK = 65536


def bdf3_stencil(f3, f2, f1, f0):
    """Apply the third-order BDF combination (11/6, -3, 3/2, -1/3)."""
    return 11.0 / 6.0 * f3 - 3.0 * f2 + 1.5 * f1 - f0 / 3.0


def _telescope_residual(al):
    """Residuals of the 10 monomial-matching equations plus the implied
    linear relation a7 + a8 + a9 + a10 = 0 (monomial order: a^2, b^2, c^2,
    d^2, ab, ac, ad, bc, bd, cd)."""
    a1, a2, a3, a4, a5, a6, a7, a8, a9, a10 = al
    return np.array([
        a1**2 + a2**2 + a4**2 + a7**2 - 11.0 / 3.0,
        a3**2 + a5**2 + a8**2 - (a1**2 + a2**2 + a4**2) - 3.0,
        a6**2 + a9**2 - (a3**2 + a5**2),
        a10**2 - a6**2,
        2.0 * (a2 * a3 + a4 * a5) + 2.0 * a7 * a8 + 47.0 / 6.0,
        2.0 * a4 * a6 + 2.0 * a7 * a9 - 3.0,
        2.0 * a7 * a10 + 2.0 / 3.0,
        -2.0 * (a2 * a3 + a4 * a5) + 2.0 * a5 * a6 + 2.0 * a8 * a9 + 1.5,
        -2.0 * a4 * a6 + 2.0 * a8 * a10 - 1.0 / 3.0,
        -2.0 * a5 * a6 + 2.0 * a9 * a10,
        a7 + a8 + a9 + a10,
    ])


@dataclass(frozen=True)
class TelescopeCoeffs:
    """Decomposition coefficients alpha_1..alpha_10.

    residual is the largest residual of the 11 equations at alpha.
    distinct_solutions counts the real solutions up to the four sign
    symmetries (the solution set is finite only together with the implied
    sum constraint; without it the solutions form a one-parameter family).
    """

    alpha: tuple
    residual: float
    distinct_solutions: int

    @property
    def alpha1_star(self):
        a = self.alpha
        return a[0]**2 + 2.0 * a[1]**2 + 3.0 * a[3]**2

    @property
    def alpha2_star(self):
        a = self.alpha
        return 2.0 * a[2]**2 + 3.0 * a[4]**2

    @property
    def alpha3_star(self):
        return 3.0 * self.alpha[5]**2


def _closed_form(s):
    """The canonical solution on the branch q = s sqrt(6 + 18 sqrt(5)),
    s = +1 or -1; a6 is then a real root of 9x^4 - 9x^3 - 3x^2 - 3x + 1."""
    r5 = math.sqrt(5.0)
    q = s * math.sqrt(6.0 + 18.0 * r5)
    a6 = (1.0 + r5) / 4.0 - q / 12.0
    a5 = (1.0 - 3.0 * r5) / 4.0 + q / 12.0
    a4 = (5.0 * r5 - 3.0) / 8.0 + q / 24.0
    a2 = (7.0 * r5 - 1.0) / 16.0 - 5.0 * q / 48.0
    a1 = math.sqrt(23.0 / 192.0 + 3.0 * r5 / 64.0 - 3.0 * q / 128.0
                   - r5 * q / 384.0)
    a7 = 1.0 / (3.0 * a6)
    return (a1, a2, -a6, a4, a5, a6, a7, a5 + a6 - a7, -a5, -a6)


# every real solution up to the sign symmetries, one per branch; the
# quartic's other two roots carry sqrt(6 - 18 sqrt(5)) and are complex
_SOLUTIONS = (_closed_form(1.0), _closed_form(-1.0))

_CANONICAL = TelescopeCoeffs(
    alpha=_SOLUTIONS[0],
    residual=float(np.max(np.abs(_telescope_residual(_SOLUTIONS[0])))),
    distinct_solutions=len(_SOLUTIONS))


def get_telescope_coefficients() -> TelescopeCoeffs:
    """The canonical coefficients of the s = +1 branch."""
    return _CANONICAL


def _decomposition_rhs(al, a, b, c, d, sq):
    """P(a, b, c) - P(b, c, d) + (a7 a + a8 b + a9 c + a10 d)^2, the right
    side of the decomposition identity, with sq the square: np.square on
    arrays of numbers, the squared l2_norm on fields."""
    a1, a2, a3, a4, a5, a6, a7, a8, a9, a10 = al
    p = [sq(a1 * x) + sq(a2 * x + a3 * y) + sq(a4 * x + a5 * y + a6 * z)
         for x, y, z in ((a, b, c), (b, c, d))]
    return p[0] - p[1] + sq(a7 * a + a8 * b + a9 * c + a10 * d)


def _l2_sq(f):
    return l2_norm(f) ** 2


def verify_telescope(coeffs: TelescopeCoeffs, trials: int,
                     seed: int = _VERIFY_SEED) -> float:
    """Largest relative residual |lhs - rhs| / max(1, |lhs|) of the
    decomposition identity, lhs = <bdf3_stencil(a, b, c, d), 2 a - b>.

    It checks the scalar identity on `trials` random 4-tuples, drawn and
    evaluated as arrays _VERIFY_CHUNK at a time, so memory stays bounded
    whatever the trial count, then the inner-product form on min(trials,
    32) random quadruples of fields on a 12 x 12 grid. The stencil split
    is checked by checks._check_stencil_split.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    al = coeffs.alpha
    worst = 0.0
    for start in range(0, trials, _VERIFY_CHUNK):
        size = (min(_VERIFY_CHUNK, trials - start), 4)
        a, b, c, d = rng.normal(size=size).T * 3.0
        lhs = bdf3_stencil(a, b, c, d) * (2.0 * a - b)
        rhs = _decomposition_rhs(al, a, b, c, d, np.square)
        worst = max(worst, float(np.max(np.abs(lhs - rhs)
                                        / np.maximum(1.0, np.abs(lhs)))))
    grid = Grid(12)
    for _ in range(min(trials, 32)):
        f3, f2, f1, f0 = [ScalarField.from_physical(grid, rng.normal(
            size=(12, 12))) for _ in range(4)]
        lhs = inner_product(bdf3_stencil(f3, f2, f1, f0), 2.0 * f3 - f2)
        rhs = _decomposition_rhs(al, f3, f2, f1, f0, _l2_sq)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return worst


# --- norms and monitors ----------------------------------------------------

def hm_norm(f: ScalarField, m: int) -> float:
    """Spectral H^m seminorm (sum over modes of |k|-symbol^m weighted power).

    hm_norm(f, 0) coincides with the L2 norm; hm_norm(f, 1) is the gradient
    seminorm taken with the full second-order symbol (even-N Nyquist modes
    included, consistent with the discrete Laplacian).
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise ValueError("m must be a nonnegative integer")
    return math.sqrt(_norm_sq(f, m))


def energy(state: FlowState) -> float:
    """Kinetic energy, half the squared L2 norm of the velocity, by one
    Parseval row of the vorticity (_norm_sq with m = -1)."""
    return 0.5 * _norm_sq(state.omega, -1)


def enstrophy(state: FlowState) -> float:
    """Half the squared L2 norm of the vorticity."""
    return 0.5 * _norm_sq(state.omega)


def div_error(state: FlowState) -> float:
    """L2 norm of the discrete velocity divergence, cached on omega: in
    run() by the convection's divergence precondition."""
    return math.sqrt(_div_norm_sq(state.omega))


# the vorticity levels F and G1 read: the depth of every run's history
_DEPTH = 3

# the order of a Gram matrix's distinct entries in _functionals
_GRAM_ORDER = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))


def _quadratic_forms(alpha):
    """((q0, e0), (q1, e1)) of _functionals in Python floats: q, the 3x3
    matrix of F or G1 as a quadratic form in (w0, w1, w2), as its entries in
    _GRAM_ORDER with the off-diagonal ones doubled, and e, the weights of
    its nu dt terms."""
    a = alpha
    rows = np.array([[a[0], 0.0, 0.0], [a[1], a[2], 0.0], [a[3], a[4], a[5]]])
    diffs = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])  # w0-w1, w1-w2
    # einsum, not a BLAS matmul, whose library code would page in for 3x3
    base = np.einsum("ri,rj->ij", rows, rows)
    q0, q1 = (base + np.einsum("ri,r,rj->ij", diffs, r, diffs)
              for r in ((7.0 / 8.0, 5.0 / 24.0), (5.0 / 6.0, 1.0 / 6.0)))
    entries = [tuple(float(q[i, j]) * (1.0 if i == j else 2.0)
                     for i, j in _GRAM_ORDER) for q in (q0, q1)]
    return ((entries[0], (7.0 / 4.0, 15.0 / 32.0, 13.0 / 64.0)),
            (entries[1], (37.0 / 24.0, 17.0 / 48.0, 17.0 / 96.0)))


# the forms of the canonical coefficients, the only ones F and G1 use
_FORMS = _quadratic_forms(_CANONICAL.alpha)


def _record_passes(grid: Grid, work):
    """A record's Parseval passes bound into work, a stack of five complex
    planes: three levels' cross moments (3 table rows), a level's norms."""
    table = _parseval_table(grid)
    return _parseval_pass(table[:3], 3, work), _parseval_pass(table, 1, work)


def _functionals(history, nu: float, dt: float, grid=None, passes=None):
    """(F, G1) over the newest-first history, from its Gram matrices.

    With |.|_m the H^m seminorm (|.|_0 the L2 norm), F and G1 are

        G(m) = a1^2 |w0|_m^2 + |a2 w0 + a3 w1|_m^2
               + |a4 w0 + a5 w1 + a6 w2|_m^2 + r1 |w0 - w1|_m^2
               + r2 |w1 - w2|_m^2 + nu dt sum_j e_j |w_j|_{m+1}^2

    at m = 0, (r1, r2) = (7/8, 5/24), e = (7/4, 15/32, 13/64) and at
    m = 1, (r1, r2) = (5/6, 1/6), e = (37/24, 17/48, 17/96): quadratic
    forms in the levels, read off their H^m Gram matrices. The cross
    products take their moments from the cross pass of passes, the grid's
    _record_passes (bound here if None); the diagonals are the levels'
    norms, read through _norm_sq, their one producer, with its norm pass,
    so a record's digits do not depend on what took a norm first. Every
    level must be on grid (default: the first level's).
    """
    hist = list(history)[:_DEPTH]
    if not hist:
        raise ValueError("history must contain at least one field")
    hist += hist[-1:] * (_DEPTH - len(hist))  # pre-start: the oldest again
    grid = hist[0].grid if grid is None else grid
    if any(f.grid != grid for f in hist):
        raise GridMismatchError(f"history levels on {[f.grid for f in hist]}"
                                f", expected all on {grid}")
    w0, w1, w2 = (f._half for f in hist)
    cross, norm = passes or _record_passes(
        grid, np.empty((2 * _DEPTH - 1, *w0.shape), complex))
    sums = cross([(w0, w1), (w0, w2), (w1, w2)])
    # [m] = the Gram entries in _GRAM_ORDER
    gram = [[_norm_sq(f, m, norm) for f in hist] + [c[m] for c in sums]
            for m in range(3)]
    return tuple(sum(map(mul, qs, gram[m]))
                 + nu * dt * sum(map(mul, es, gram[m + 1]))
                 for m, (qs, es) in enumerate(_FORMS))


def stability_F(history, nu: float, dt: float) -> float:
    """Quadratic stability functional over (w^n, w^{n-1}, w^{n-2}).

    history is newest-first; fewer than three levels are padded with the
    oldest one (the difference terms then vanish). Norms are evaluated
    spectrally (Parseval-equivalent to the physical quadrature). A level on
    another grid than the first raises GridMismatchError.
    """
    return _functionals(history, nu, dt)[0]


def stability_G1(history, nu: float, dt: float) -> float:
    """Gradient-level companion of stability_F (H1 combos, Laplacian decay)."""
    return _functionals(history, nu, dt)[1]


@dataclass(frozen=True)
class SeriesRecord:
    """One row of the diagnostics time series; its annotations are the one
    list of its columns, in order: FIELDS names them, values() reads them."""

    t: float
    l2_omega: float
    h1_omega: float
    energy: float
    enstrophy: float
    div_error: float
    max_omega: float
    F: float
    G1: float

    def values(self):
        return _COLUMNS(self)


SeriesRecord.FIELDS = tuple(f.name for f in fields(SeriesRecord))
_COLUMNS = attrgetter(*SeriesRecord.FIELDS)


def make_record(state: FlowState, history=None, nu: float = 0.0,
                dt: float = 1.0, *, _passes=None) -> SeriesRecord:
    """Assemble the full diagnostics row for one flow state.

    history carries the vorticity levels (newest-first) for the stability
    functionals; when omitted only the current vorticity is used. Columns
    come by Parseval from the spectral views, or for max_omega from the
    norm that run()'s convection caches, so a record in a run costs no
    transform. Columns l2_omega to div_error are the public functions of
    their names (l2_omega, h1_omega: hm_norm at m = 0, 1). _passes is the
    grid's _record_passes, bound once per run by run(), else per call.
    """
    omega = state.omega
    F, G1 = _functionals([omega] if history is None else history, nu, dt,
                         state.grid, _passes)
    return SeriesRecord(state.time, hm_norm(omega, 0), hm_norm(omega, 1),
                        energy(state), enstrophy(state), div_error(state),
                        _sup_norm(omega), F, G1)
