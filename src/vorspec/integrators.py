"""IMEX time steppers: Euler, BDF2, and the third-order BDF scheme.

All schemes treat diffusion implicitly and convection explicitly, so every
step reduces to one diagonal Helmholtz solve per Fourier mode:

    euler:  (w' - w)/dt + N/2 = nu Lap w' + f',                   a = 1
    bdf2 :  (3w' - 4w + w_)/2dt + N - N_/2 = nu Lap w' + f',      a = 3/2
    bdf3 :  (11w'/6 - 3w + 3w_/2 - w__/3)/dt
                + 3N/2 - 3N_/2 + N__/2 = nu Lap w' + f',          a = 11/6

where primes mark the new level and trailing underscores older history.
The skew convection term N counts the transport twice (advective plus flux
form), so the extrapolation weights above are half the usual explicit
multistep weights; their sums are 1/2, making each scheme consistent with
the single transport term of the vorticity equation.
The startup takes w^1 by one explicit-midpoint RK2 step and, for BDF3,
w^2 by one BDF2 step, whose table is dropped after it; this preserves
third-order global accuracy. Step 1 thus treats
diffusion explicitly: it multiplies a diffusing mode by 1 + z + z^2/2,
z = -nu (2 pi / L)^2 |k|^2 dt, which damps the mode only while z >= -2.

run() is the one way to advance a solution and holds the only step loop;
its observer sees the flow state of every step from step 0 on, and the
domain length comes from the initial vorticity's grid. It is the only frame
that calls user code (forcing, observer, sinks): the step helpers take the
forcing's half spectra as arrays. Its one history, read by steps and
records, is a ring of the three newest levels' omega and N half spectra
(rfft2 layout), allocated once per run: a step's right-hand side is one
product of a weight row with the ring, and its solve and convection write
the new level into the rows of the oldest and no others, so a row a step
weighs by 0 holds zeros or an earlier level. A step costs one convection
evaluation of omega, fourteen 1-D plane passes in four numpy calls, and
hands observers and sinks a flow state holding omega, a read-only view of
its ring row that is copied out only if someone still holds it when the row
is reused or the run ends; psi and the velocity are built only if asked,
and every step but the last drops the state. Besides it a run holds only
the ring, the scratch stacks and its tables, and what it returns or raises
views none of them.
"""

from __future__ import annotations

import math
import time
import weakref
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .convection import _scratch, _skew_kernel
from .diagnostics import _DEPTH, SeriesRecord, _record_passes, make_record
from .errors import BlowUpError, ConfigError
from .fields import FlowState, _check_finite, _check_mean, _project_mean
from .spectral import Grid, ScalarField, _detach, _norm_sq, mean

__all__ = [
    "SchemeId",
    "RunConfig",
    "RunSummary",
    "helmholtz_solve",
    "run",
    "BLOWUP_FACTOR",
]

# a run is declared blown up when ||w||_2 exceeds this multiple of its
# initial value, or any field value becomes non-finite
BLOWUP_FACTOR = 1e6


class SchemeId(Enum):
    """Time integrator identifier."""

    IMEX_EULER = "imex_euler"
    IMEX_BDF2 = "imex_bdf2"
    IMEX_BDF3 = "imex_bdf3"

    @property
    def history_required(self) -> int:
        return len(_WEIGHTS[self][1])


# scheme -> (a, vorticity weights c_j, convection weights e_j), newest level
# first: (a/dt - nu Lap) w' = sum_j (c_j/dt) w_j + sum_j e_j N_j + f'. _solver
# lays them out as one weight row per ring slot, the c_j still as p/(q dt):
# rounding them otherwise biases every step alike, a drift that shows on the
# finest rungs of the convergence ladder
_WEIGHTS = {
    SchemeId.IMEX_EULER: (Fraction(1), (Fraction(1),), (-0.5,)),
    SchemeId.IMEX_BDF2: (Fraction(3, 2), (Fraction(2), Fraction(-1, 2)),
                         (-1.0, 0.5)),
    SchemeId.IMEX_BDF3: (Fraction(11, 6),
                         (Fraction(3), Fraction(-3, 2), Fraction(1, 3)),
                         (-1.5, 1.5, -0.5)),
}


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one simulation run.

    t_final must be a whole number n_steps of steps dt, up to roundoff, and
    at least the steps the scheme's startup takes; series records are
    emitted every series_every steps (plus step 0 and the final step),
    snapshots every snapshot_every steps when positive. n and both cadences
    must be Python or numpy integers, scheme a SchemeId, dealias a bool.
    """

    n: int
    dt: float
    nu: float
    t_final: float
    scheme: SchemeId = SchemeId.IMEX_BDF3
    snapshot_every: int = 0
    series_every: int = 1
    dealias: bool = False

    def __post_init__(self):
        for name in ("n", "series_every", "snapshot_every"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.scheme, SchemeId):
            raise ConfigError(f"scheme must be a SchemeId, got {self.scheme!r}")
        if not isinstance(self.dealias, (bool, np.bool_)):
            raise ConfigError(f"dealias must be a bool, got {self.dealias!r}")
        if self.n < 4:
            raise ConfigError(f"grid size must be at least 4, got {self.n}")
        _check_finite(self, ("dt", "nu", "t_final"))
        if not (self.dt > 0):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not (self.nu > 0):
            raise ConfigError(f"nu must be positive, got {self.nu}")
        if self.t_final < self.dt:
            raise ConfigError(
                f"t_final = {self.t_final} is shorter than one step dt = {self.dt}")
        if not math.isfinite(self.t_final / self.dt):
            raise ConfigError(
                f"t_final = {self.t_final} is not a finite number of steps "
                f"dt = {self.dt}")
        if not math.isclose(self.n_steps * self.dt, self.t_final,
                            rel_tol=1e-9):
            raise ConfigError(
                f"t_final = {self.t_final} is not a whole number of steps "
                f"dt = {self.dt}")
        if self.series_every < 1:
            raise ConfigError("series_every must be a positive integer")
        if self.snapshot_every < 0:
            raise ConfigError("snapshot_every must be nonnegative")
        need = self.scheme.history_required - 1
        if self.n_steps < need:
            raise ConfigError(f"{self.scheme.value} startup needs {need} "
                              f"steps but the run has only {self.n_steps}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


@dataclass
class RunSummary:
    """What a completed run reports back."""

    final_state: FlowState
    steps: int
    elapsed_seconds: float
    seconds_per_step: float
    extrema: dict
    records: list


def _inverse_symbol(grid: Grid, a: float, dt: float, nu: float):
    """The complex table 1/(a/dt + nu ksq) that _helmholtz multiplies by.

    A complex table spares numpy its real-to-complex casting buffer. The
    product equals the division by a/dt + nu ksq bit for bit: numpy divides
    a complex array by a real one as (x + y 0) (1/c), and multiplies by
    the table as (x r - y 0, x 0 + y r) with r = 1/c.
    """
    return (1.0 / (a / dt + nu * grid._ksq)).astype(np.complex128)


def _helmholtz(rhs_h, inverse, out=None):
    """Per-mode solve of a half spectrum, a product with the rounded
    reciprocal table of _inverse_symbol, into out or a fresh array."""
    _check_mean(rhs_h[0, 0].real, "helmholtz right-hand side")
    return np.multiply(rhs_h, inverse, out=out)


def helmholtz_solve(rhs: ScalarField, a: float, dt: float,
                    nu: float) -> ScalarField:
    """Solve (a/dt - nu Lap_N) w = rhs per mode, by the product with the
    rounded reciprocal of the symbol (bit-equal to dividing by it).

    a, dt and nu must be finite with a > 0, dt > 0, a/dt > 0 and nu >= 0;
    then the symbol a/dt + nu * 4 pi^2 |k|^2 / L^2 is strictly positive, so
    the solve is total; a mean-free rhs yields a mean-free solution since
    the k = 0 mode is scaled by dt/a alone. Raises ValueError otherwise.
    """
    if not (all(math.isfinite(x) for x in (a, dt, nu))
            and a > 0 and dt > 0 and a / dt > 0 and nu >= 0):
        raise ValueError(f"helmholtz_solve needs finite a > 0 and dt > 0 "
                         f"with a/dt > 0 and nu >= 0, got a = {a}, "
                         f"dt = {dt}, nu = {nu}")
    g = rhs.grid
    return ScalarField._adopt(g, _helmholtz(
        rhs._half, _inverse_symbol(g, float(a), dt, nu)))


def _forcing_half(forcing, t: float, grid: Grid):
    """Half spectrum of the forcing at time t, or None."""
    if forcing is None:
        return None
    f, what = forcing(t), f"forcing at t = {t}"
    if not isinstance(f, ScalarField):
        raise ConfigError(f"{what} is of type {type(f).__name__}, not a "
                          "ScalarField")
    if f.grid != grid:
        raise ConfigError(f"{what} is a field on the wrong grid, {f.grid}")
    _check_norm(f, what)
    _check_mean(mean(f), what)
    return f._half


def _solver(grid: Grid, scheme: SchemeId, dt: float, nu: float):
    """(rows, 1/(a/dt + nu ksq)) of one scheme, built once per run.

    rows[s] weighs the history ring's rows (see run()) for the step whose
    new level goes into slot s: the vorticity weights as p/(q dt) (see
    _WEIGHTS) and the convection weights, each on the slot of its level.
    The slots of levels the scheme does not read get weight 0.
    """
    a, w_weights, n_weights = _WEIGHTS[scheme]
    rows = np.zeros((_DEPTH, 2 * _DEPTH))
    for s in range(_DEPTH):
        for j, (c, e) in enumerate(zip(w_weights, n_weights)):
            slot = (s - 1 - j) % _DEPTH
            rows[s, slot] = c.numerator / (c.denominator * dt)
            rows[s, _DEPTH + slot] = e
    return rows, _inverse_symbol(grid, float(a), dt, nu)


def _implicit_omega(ring, k: int, solver, f_h, scratch):
    """Vorticity of step k by one step of an IMEX scheme, into its ring
    row k % _DEPTH; solver is the scheme's _solver, f_h the forcing's half
    spectrum at k dt or None.

    The right-hand side is one product of the slot's weight row with the
    ring's float view, into the first plane of scratch's complex stack. A
    row with weight 0 adds an exact 0: since no step writes outside its
    own slot, it holds the ring's initial zeros, a vorticity whose finite
    norm passed the blow-up guard, or a convection an earlier step read
    with a nonzero weight into a level that passed it, so finite in every
    mode but the mean, which each step projects away.
    """
    rows, inverse = solver
    rhs, slot = scratch[0][0], k % _DEPTH
    np.dot(rows[slot], ring.view(np.float64).reshape(len(ring), -1),
           out=rhs.view(np.float64).reshape(-1))
    if f_h is not None:
        rhs += f_h
    return _project_mean(_helmholtz(rhs, inverse, out=ring[slot]))


def _midpoint_omega(grid: Grid, ring, cfg: RunConfig, f_h, scratch):
    """Vorticity of step 1 by one explicit-midpoint step, into ring row 1;
    f_h holds the forcing's half spectra at 0 and dt/2, each or None.

    Each stage's fully explicit right-hand side -N/2 + nu Lap w + f is
    formed in the order of the expression -0.5 * N + nu * (-ksq * w) + f,
    so its bits are those of that expression; no half-step flow state is
    built. Like every step, it writes only its slot's rows: the half-step
    omega and its convection sit there until w^1 and the loop's N(w^1)
    replace them, the first stage and the Laplacian in scratch.
    """
    w0, conv0 = ring[0], ring[_DEPTH]
    w_mid, stage, (rhs, lap) = ring[1], ring[_DEPTH + 1], scratch[0][:2]
    dt, nu = cfg.dt, cfg.nu

    def explicit_rhs(w_h, conv_h, f_h, out):
        """-N/2 + nu Lap w + f into out (which may be conv_h)."""
        np.multiply(-0.5, conv_h, out=out)
        np.negative(grid._ksq, out=lap.real)
        lap.imag = 0.0
        out += np.multiply(nu, np.multiply(lap, w_h, out=lap), out=lap)
        if f_h is not None:
            out += f_h

    explicit_rhs(w0, conv0, f_h[0], rhs)
    _project_mean(np.add(w0, np.multiply(0.5 * dt, rhs, out=w_mid),
                         out=w_mid))
    # a fresh view to adopt: _adopt makes the array it is given read-only
    _skew_kernel(ScalarField._adopt(grid, ring[1]), cfg.dealias, scratch,
                 out=stage)
    explicit_rhs(w_mid, stage, f_h[1], stage)
    return _project_mean(np.add(w0, np.multiply(dt, stage, out=stage),
                                out=w_mid))


def _check_blowup(w_l2: float, ref_l2: float, step: int, last_record):
    if not math.isfinite(w_l2) or (ref_l2 > 0
                                   and w_l2 > BLOWUP_FACTOR * ref_l2):
        raise BlowUpError(
            f"solution blew up at step {step}: ||w||_2 = {w_l2:.6e} "
            f"(initial {ref_l2:.6e})", step=step, last_record=last_record)


def _check_norm(field: ScalarField, what: str):
    """Refuse a field whose L2 norm is not finite, a bad input rather than
    a blow-up: the initial vorticity (run() and the CLI, before step 0) or
    a forcing's value; what names it."""
    with np.errstate(over="ignore", invalid="ignore"):
        l2 = math.sqrt(_norm_sq(field))
    if not math.isfinite(l2):
        raise ConfigError(f"{what} has no finite L2 norm ({l2:.6e})")


def run(omega0: ScalarField, cfg: RunConfig, *, forcing=None,
        series_sink=None, snapshot_sink=None, observer=None) -> RunSummary:
    """Integrate from t = 0 to t_final and stream diagnostics.

    Parameters
    ----------
    omega0 : ScalarField
        Initial vorticity on a grid of cfg.n points per side; its grid
        sets the domain length.
    cfg : RunConfig
        Scheme, step size, viscosity, cadences.
    forcing : callable, optional
        t -> mean-free ScalarField source term.
    series_sink : callable, optional
        Receives each emitted SeriesRecord.
    snapshot_sink : callable, optional
        Receives (step, FlowState) every snapshot_every steps.
    observer : callable, optional
        Receives (step, FlowState) for every step including step 0
        (measurement hook; convergence studies use it).

    The history is one zeroed (2 _DEPTH, N, N//2 + 1) complex ring: the
    vorticity rows, then the convection rows, step k in slot k % _DEPTH.
    Each step writes the new vorticity and its convection into its slot's
    two rows under an errstate that leaves overflow to the blow-up guard;
    the guard, observer, record and snapshot run under the caller's.
    Every omega the run hands out (to observers, sinks and records) is a
    read-only view of its row. Before a row is reused, and at the loop's
    one exit (a return or any raise) after the workspace goes, a field
    still held outside the run (the final state's omega always) gets its
    own copy of the same bits (spectral._detach); one nobody holds costs
    nothing. Every step but the last ends by dropping its flow state;
    nothing in the loop writes or clears a node cache.

    Returns RunSummary; raises ConfigError before step 0 when omega0's L2
    norm is not finite or at a step whose forcing is no finite field on
    its grid, and BlowUpError when the solution leaves the finite range,
    reporting the failing step and the last good record.
    What a forcing, observer or sink raises leaves as is.
    """
    grid = omega0.grid
    if grid.n != cfg.n:
        raise ConfigError(
            f"initial data on {grid} does not match config (n={cfg.n})")
    _check_norm(omega0, "initial vorticity")
    n_steps, dt, need = cfg.n_steps, cfg.dt, cfg.scheme.history_required
    records, last_record, passes = [], None, None
    scratch = _scratch(grid)
    ring = np.zeros((2 * _DEPTH, grid.n, grid.n // 2 + 1), complex)
    t0 = time.perf_counter()
    # the startup as data: step 1 by the explicit midpoint if the scheme
    # reads more levels, then one _solver table a step, then the rule
    startup = [_solver(grid, s, dt, cfg.nu) for s in SchemeId
               if 1 < s.history_required < need]
    rule = _solver(grid, cfg.scheme, dt, cfg.nu)
    levels, w_h = (), None  # levels: the ring's omega fields, newest first
    try:  # a return and a raise let go of the workspace alike
        for k in range(n_steps + 1):
            if len(levels) == _DEPTH:  # the oldest level's row is reused
                oldest = weakref.ref(levels[-1])
                levels = levels[:-1]
                if oldest() is not None:
                    _detach(oldest())
            # an overflowing step leaves inf or nan for the blow-up guard to
            # report; observers and sinks run outside, under their own errstate
            with np.errstate(over="ignore", invalid="ignore"):
                if k == 0:
                    ring[0] = omega0._half
                    w_h = _project_mean(ring[0])
                else:  # the forcing at the times the step's rule reads it
                    midpoint = k == 1 and need > 1
                    f_h = [_forcing_half(forcing, c * dt, grid)
                           for c in ((0.0, 0.5) if midpoint else (k,))]
                    w_h = (_midpoint_omega(grid, ring, cfg, f_h, scratch)
                           if midpoint else _implicit_omega(
                               ring, k, startup.pop(0) if startup else rule,
                               f_h[0], scratch))
                    del f_h  # no later raise keeps the forcing's planes
                flow = FlowState(ScalarField._adopt(grid, w_h), k * dt)
                _skew_kernel(flow.omega, cfg.dealias, scratch,
                             out=ring[_DEPTH + k % _DEPTH])
            levels = (flow.omega,) + levels
            # the convection's divergence precondition cached ||w||_2 on omega
            w_l2 = math.sqrt(_norm_sq(flow.omega))
            if k == 0:
                ref_l2 = w_l2
            _check_blowup(w_l2, ref_l2, k, last_record)
            if observer is not None:
                observer(k, flow)
            if k % cfg.series_every == 0 or k == n_steps:
                passes = passes or _record_passes(grid, scratch[0])  # once
                last_record = make_record(flow, levels, cfg.nu, dt,
                                          _passes=passes)
                records.append(last_record)
                if series_sink is not None:
                    series_sink(last_record)
            if cfg.snapshot_every > 0 and k % cfg.snapshot_every == 0 \
                    and snapshot_sink is not None:
                snapshot_sink(k, flow)
            if k < n_steps:  # no step reads the flow state
                del flow
    finally:
        elapsed = time.perf_counter() - t0
        # the workspace goes, then every level still held gets its own copy
        held = [weakref.ref(level) for level in levels]
        del ring, scratch, passes, startup, rule, levels, w_h
        for level in [ref() for ref in held if ref() is not None]:
            _detach(level)
    extrema = {name: (min(col), max(col)) for name, col in
               zip(SeriesRecord.FIELDS, zip(*(r.values() for r in records)))}
    return RunSummary(final_state=flow, steps=n_steps,
                      elapsed_seconds=elapsed,
                      seconds_per_step=elapsed / max(n_steps, 1),
                      extrema=extrema, records=records)
