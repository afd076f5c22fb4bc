"""Periodic grid, Fourier transforms, spectral derivatives, inner products.

The domain is the square [0, L)^2 sampled on a uniform N x N mesh with
spacing h = L/N and node (i, j) at (i*h, j*h). The forward transform divides
by N^2 so coefficients match the finite Fourier expansion

    f(x, y) = sum_{k,l} fhat[k, l] * exp(2 pi i (k x + l y) / L),

and Parseval reads  <f, g> = h^2 sum f g = L^2 sum fhat * conj(ghat).
Signed mode indices run over {-floor(N/2), ..., ceil(N/2) - 1} in FFT
storage order; for odd N = 2K + 1 the range is the symmetric {-K, ..., K}.

Derivative convention for even N: the first-derivative multiplier
(2 pi i k / L) zeroes the unmatched Nyquist mode k = -N/2, which keeps real
fields real and first derivatives skew-adjoint. Second-order multipliers
keep the full -4 pi^2 k^2 / L^2 symbol at Nyquist. Consequently
divergence(gradient(f)) equals laplacian(f) exactly only on fields without
Nyquist content; on odd grids the identity is unconditional.

Every field is real, so the package holds only half spectra in rfft2
layout, shape (N, N//2 + 1): columns l = 0 .. N//2, the rest following from
Hermitian symmetry fhat[-k, -l] = conj(fhat[k, l]). The mode and Parseval
tables (real rows L^2 w_l s, w_l = 2 where a column also stands for its
conjugate, else 1), the operators and the time loop all work on this
layout, which only _parseval_pass reads as (real, imaginary) float pairs.
At even N column N//2 is the Nyquist column, whose first-derivative symbol
is zeroed like the Nyquist row. A ScalarField's one value is its half
spectrum, and its node values are only a cache; the full (N, N) array
exists only at the API edge, in ScalarField.spectral.
"""

from __future__ import annotations

import numpy as np

from .errors import GridMismatchError

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "derivative",
    "gradient",
    "divergence",
    "laplacian",
    "perp_gradient",
    "inner_product",
    "l2_norm",
    "mean",
]


class Grid:
    """Uniform N x N periodic grid on [0, L)^2 with cached mode tables.

    Parameters
    ----------
    n : int
        Points per axis, at least 1.
    length : float
        Domain edge length L, default 1.
    """

    __slots__ = ("n", "length", "spacing", "wavenumbers", "_d1x", "_d1y",
                 "_ksq", "_inv_ksq", "_neg_rows", "_dealias_mask", "_parseval")

    def __init__(self, n: int, length: float = 1.0):
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"grid size must be a positive integer, got {n!r}")
        if not (length > 0):
            raise ValueError(f"domain length must be positive, got {length!r}")
        self.n = int(n)
        self.length = float(length)
        self.spacing = self.length / self.n
        # signed mode indices in FFT storage order: 0..ceil(N/2)-1, then
        # -floor(N/2)..-1; bijective onto the signed range with 0 at index 0
        self.wavenumbers = np.rint(np.fft.fftfreq(self.n, d=1.0 / self.n)).astype(int)
        self.wavenumbers.setflags(write=False)

        # half-spectrum tables: rows run over all k, columns over l = 0..N//2
        m = self.n // 2 + 1
        k = self.wavenumbers.astype(float)
        kx = k[:, None]
        ky = k[None, :m]
        # numpy scalars and arrays, so that an extreme length leaves an inf
        # or nan in a table rather than raising; checked below
        with np.errstate(all="ignore"):
            two_pi_over_l = 2.0 * np.pi / np.float64(self.length)
            d1 = 1j * two_pi_over_l * k
            if self.n % 2 == 0:
                d1[self.n // 2] = 0.0  # unmatched Nyquist mode: no partner
            # 4 pi^2 |k|^2 / L^2
            self._ksq = two_pi_over_l**2 * (kx * kx + ky * ky)
            # complex, so that a product with a half spectrum needs no
            # casting buffer; 0 at k = 0
            self._inv_ksq = np.where(self._ksq > 0.0, 1.0 / self._ksq,
                                     0.0).astype(np.complex128)
            # the largest ksq bounds |d1|^2; 1 over the smallest nonzero
            # ksq, (2 pi / L)^2, is the largest entry of _inv_ksq
            bounds = (self.length, self._ksq.max(), 1.0 / two_pi_over_l**2)
        if not np.isfinite(bounds).all():
            raise ValueError(f"domain length must be finite with finite mode "
                             f"tables, got {length!r}")
        self._d1x = np.ascontiguousarray(np.broadcast_to(d1[:, None], (n, m)))
        self._d1y = np.ascontiguousarray(np.broadcast_to(d1[None, :m], (n, m)))
        self._neg_rows = -np.arange(self.n) % self.n  # row index of -k
        for arr in (self._d1x, self._d1y, self._ksq, self._inv_ksq,
                    self._neg_rows):
            arr.setflags(write=False)
        self._dealias_mask = self._parseval = None

    def nodes(self):
        """Node coordinate arrays (X, Y), each of shape (n, n), ij indexing,
        made afresh on each call, so that no grid keeps them."""
        x = np.arange(self.n) * self.spacing
        return tuple(np.meshgrid(x, x, indexing="ij"))

    @property
    def dealias_mask(self):
        """Boolean mask keeping modes with |k| <= n//3 on both axes."""
        if self._dealias_mask is None:
            cut = self.n // 3
            keep = np.abs(self.wavenumbers) <= cut
            mask = keep[:, None] & keep[None, :]
            mask.setflags(write=False)
            self._dealias_mask = mask
        return self._dealias_mask

    def __eq__(self, other):
        return (isinstance(other, Grid)
                and self.n == other.n and self.length == other.length)

    def __hash__(self):
        return hash((self.n, self.length))

    def __repr__(self):
        return f"Grid(n={self.n}, length={self.length})"


def _require_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatchError(f"fields on different grids: {a.grid} vs {b.grid}")


class ScalarField:
    """Real scalar field whose one value is its half spectrum.

    The value is the half spectrum (rfft2 layout, shape (n, n//2 + 1)) of
    the finite Fourier expansion (forward transform divided by n^2); the
    real (n, n) array of node values is only a cache, kept from the
    constructor or filled by one inverse transform on first access. A field
    is value-immutable: all arrays are exposed read-only and arithmetic
    returns new fields. Its squared Parseval seminorms, max|f| and, as a
    vorticity, its velocity's squared and divergence norms are cached
    beside the value once taken. run() hands out fields that view its
    history ring; _detach gives one its own copy, the same bits, before the
    ring reuses the row. The spectral property expands the
    full (n, n) coefficients on each access; a full spectrum F given to the
    constructor keeps its Hermitian part (F + conj F[-k, -l]) / 2, the
    spectrum of ifft2(F).real.
    """

    __slots__ = ("grid", "_phys", "_half", "_norms", "__weakref__")

    def __init__(self, grid: Grid, physical=None, spectral=None):
        if (physical is None) == (spectral is None):
            raise ValueError("need exactly one of a physical and a spectral "
                             "array")
        shape = (grid.n, grid.n)
        p = None
        if physical is not None:
            p = np.array(physical, dtype=np.float64, copy=True)
            if p.shape != shape:
                raise ValueError(f"physical array shape {p.shape} != {shape}")
            p.setflags(write=False)
            h = np.fft.rfft2(p, norm="forward")
        else:
            s = np.asarray(spectral, dtype=np.complex128)
            if s.shape != shape:
                raise ValueError(f"spectral array shape {s.shape} != {shape}")
            neg = grid._neg_rows
            m = grid.n // 2 + 1
            h = 0.5 * (s[:, :m] + np.conj(s[np.ix_(neg, neg[:m])]))
        self._init(grid, h, p)

    def _init(self, grid, half, phys):
        self.grid = grid
        self._half = np.ascontiguousarray(half)  # for its float view
        self._half.setflags(write=False)
        self._phys = phys
        self._norms = {}

    @classmethod
    def from_physical(cls, grid, values):
        return cls(grid, physical=values)

    @classmethod
    def from_spectral(cls, grid, coeffs):
        return cls(grid, spectral=coeffs)

    @classmethod
    def zeros(cls, grid):
        return cls._adopt(grid, np.zeros((grid.n, grid.n // 2 + 1), complex))

    @classmethod
    def _adopt(cls, grid, half):
        """Build a field taking ownership of a freshly computed half
        spectrum."""
        f = cls.__new__(cls)
        f._init(grid, np.asarray(half, dtype=np.complex128), None)
        return f

    @property
    def physical(self):
        """Real node values; the cache, filled from the half spectrum."""
        if self._phys is None:
            p = _half_to_physical(self.grid, self._half)
            p.setflags(write=False)
            self._phys = p
        return self._phys

    @property
    def spectral(self):
        """Full (n, n) Fourier coefficients, expanded on each access."""
        s = _full_spectrum(self.grid, self._half)
        s.setflags(write=False)
        return s

    # value-like arithmetic on the half spectra
    def __add__(self, other):
        return self._combine(other, 1.0)

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def _combine(self, other, sign):
        if not isinstance(other, ScalarField):
            return NotImplemented
        _require_same_grid(self, other)
        return ScalarField._adopt(self.grid, self._half + sign * other._half)

    def __mul__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        return ScalarField._adopt(self.grid, float(c) * self._half)

    __rmul__ = __mul__

    def __truediv__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        return ScalarField._adopt(self.grid, self._half / float(c))

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        return f"ScalarField(grid={self.grid})"


class VectorField:
    """Pair of scalar components (x_comp, y_comp) on one shared grid; the
    squared L2 norm of its discrete divergence is cached once taken."""

    __slots__ = ("x", "y", "_norms")

    def __init__(self, x_comp: ScalarField, y_comp: ScalarField):
        _require_same_grid(x_comp, y_comp)
        self.x = x_comp
        self.y = y_comp
        self._norms = {}

    @property
    def grid(self):
        return self.x.grid

    def __iter__(self):
        return iter((self.x, self.y))

    def __repr__(self):
        return f"VectorField(grid={self.grid})"


def derivative(field: ScalarField, axis: str, order: int = 1) -> ScalarField:
    """Spectral partial derivative along 'x' or 'y', of order 1 or 2.

    Order 1 applies (2 pi i k / L) with the even-N Nyquist mode zeroed;
    order 2 applies the full -4 pi^2 k^2 / L^2 symbol.
    """
    g = field.grid
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    if order == 1:
        mult = g._d1x if axis == "x" else g._d1y
    elif order == 2:
        k = g.wavenumbers.astype(float)
        sym = -((2.0 * np.pi / g.length) ** 2) * k * k
        mult = sym[:, None] if axis == "x" else sym[None, :g.n // 2 + 1]
    else:
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    return ScalarField._adopt(g, field._half * mult)


def gradient(field: ScalarField) -> VectorField:
    """Discrete gradient (D_x f, D_y f)."""
    g = field.grid
    s = field._half
    return VectorField(ScalarField._adopt(g, s * g._d1x),
                       ScalarField._adopt(g, s * g._d1y))


def divergence(vf: VectorField) -> ScalarField:
    """Discrete divergence D_x u + D_y v."""
    g = vf.grid
    return ScalarField._adopt(g, vf.x._half * g._d1x + vf.y._half * g._d1y)


def laplacian(field: ScalarField) -> ScalarField:
    """Discrete Laplacian via the combined second-order symbol."""
    g = field.grid
    return ScalarField._adopt(g, -(field._half * g._ksq))


def perp_gradient(field: ScalarField) -> VectorField:
    """Rotated gradient (D_y psi, -D_x psi); discretely divergence-free."""
    g = field.grid
    return VectorField(*(ScalarField._adopt(g, h)
                         for h in _rotated_gradient(g, field._half)))


def _rotated_gradient(grid: Grid, s, out=(None, None)):
    """(D_y s, -D_x s) of a half spectrum into out; -D_x s is negated as
    floats, faster than the complex negative."""
    u = np.multiply(s, grid._d1y, out=out[0])
    v = np.multiply(s, grid._d1x, out=out[1])
    np.negative(v.view(np.float64), out=v.view(np.float64))
    return u, v


def _kinematics(grid: Grid, w_h, out=(None, None, None)):
    """Half spectra (psi, u, v) a vorticity induces, into out: psi =
    w_h inv_ksq and its rotated gradient, the same bits for every asker."""
    psi = np.multiply(w_h, grid._inv_ksq, out=out[0])
    return (psi, *_rotated_gradient(grid, psi, out[1:]))


def inner_product(f: ScalarField, g: ScalarField) -> float:
    """Discrete L2 inner product h^2 sum f_ij g_ij."""
    _require_same_grid(f, g)
    h2 = f.grid.spacing * f.grid.spacing
    return h2 * float(np.sum(f.physical * g.physical))


def l2_norm(f: ScalarField) -> float:
    """Discrete L2 norm, the square root of <f, f>."""
    h2 = f.grid.spacing * f.grid.spacing
    return float(np.sqrt(h2 * np.sum(np.square(f.physical))))


def mean(f: ScalarField) -> float:
    """Discrete average of f, the (0, 0) Fourier coefficient."""
    return float(f._half[0, 0].real)


def _half_to_physical(grid: Grid, half):
    """Real node values from a half spectrum: one inverse real transform,
    which keeps only the Hermitian part of the implied full spectrum."""
    return np.fft.irfft2(half, s=(grid.n, grid.n), norm="forward")


def _full_spectrum(grid: Grid, half):
    """Full (n, n) spectrum of a real field from its half spectrum.

    Fills the dropped columns l = N//2 + 1 .. N - 1 (that is, l < 0) by
    Hermitian symmetry; no transform is needed.
    """
    n = grid.n
    m = half.shape[1]
    full = np.empty((n, n), dtype=np.complex128)
    full[:, :m] = half
    np.conjugate(half[grid._neg_rows, n - m:0:-1], out=full[:, m:])
    return full


def _half_norm_sq(grid: Grid, half) -> float:
    """Squared discrete L2 norm from a half spectrum: every column counted
    twice, less once those with no Hermitian partner (l = 0; N/2 at even N)."""
    s = 2.0 * np.vdot(half, half).real - np.vdot(half[:, 0], half[:, 0]).real
    if grid.n % 2 == 0:
        s -= np.vdot(half[:, -1], half[:, -1]).real
    return grid.length**2 * float(s)


def _div_norm_sq(owner, planes=None, scratch=(None, None)) -> float:
    """Squared discrete L2 norm of D_x u + D_y v by Parseval, cached on
    owner, a VectorField or a vorticity for its induced velocity; planes
    holds u and v, else _kinematics builds them; div goes into scratch."""
    norms = owner._norms
    if "div" not in norms:
        g = owner.grid
        u, v = _kinematics(g, owner._half)[1:] if planes is None else planes
        div = np.multiply(u, g._d1x, out=scratch[0])
        div += np.multiply(v, g._d1y, out=scratch[1])
        norms["div"] = _half_norm_sq(g, div)
    return norms["div"]


def _vel_symbol(grid: Grid, out=None, tmp=None):
    """(|d1x|^2 + |d1y|^2) inv_ksq^2, (|u_hat|^2 + |v_hat|^2) / |w_hat|^2,
    by IEEE products, into out when given, with tmp for a partial one."""
    x, y, inv = grid._d1x.imag, grid._d1y.imag, grid._inv_ksq.real
    out = np.multiply(x, x, out=out)
    out += np.multiply(y, y, out=tmp)
    out *= np.multiply(inv, inv, out=tmp)
    return out


def _weighted(grid: Grid, rows):
    """Read-only rows L^2 w_l s, shape (len(rows), N (N//2 + 1)), from a
    fresh stack of real half-spectrum symbols s, the first 1, which takes
    the weights and scales the others in place with no numpy buffer."""
    rows[0] = grid.length * grid.length
    rows[0][:, 1:(grid.n + 1) // 2] = 2.0 * rows[0, 0, 0]
    for row in rows[1:]:
        row *= rows[0]
    table = rows.reshape(len(rows), -1)
    table.setflags(write=False)
    return table


def _parseval_table(grid: Grid):
    """The grid's Parseval table, built once: rows 1, ksq and ksq ksq for
    the L2, H1 and H2 moments, then _norm_sq's velocity row."""
    if grid._parseval is None:
        rows = np.empty((4, *grid._ksq.shape))
        _vel_symbol(grid, rows[3], rows[2])
        rows[1] = grid._ksq
        np.multiply(grid._ksq, grid._ksq, out=rows[2])
        grid._parseval = _weighted(grid, rows)
    return grid._parseval


def _kinematic_error_table(grid: Grid):
    """Rows 1, inv_ksq^2 and the velocity symbol, then each times ksq: the
    L2, then H1, moments of the omega, psi and u errors of an omega error."""
    ksq, inv = grid._ksq, grid._inv_ksq.real
    rows = np.empty((6, *ksq.shape))
    np.multiply(inv, inv, out=rows[1])
    _vel_symbol(grid, rows[2], rows[3])
    rows[3] = ksq
    np.multiply(rows[1:3], ksq, out=rows[4:])
    return _weighted(grid, rows)


def _parseval_pass(table, n, out):
    """A callable taking n pairs (a, b) of C-contiguous half spectra to
    their sums table @ Re(a conj b), a row each of a Parseval table, with
    the float views of table and out (a C-contiguous stack of 2 n - 1
    complex planes: a product per pair, then their pair sums; a lone pair,
    a plane that may be a, sums after the table product) bound once."""
    prods = out.view(np.float64)
    lanes, cols = list(prods[:n]), prods[0].reshape(-1, 2)
    real, imag = (part.reshape(-1) for part in (out[:n].real, out[:n].imag))
    sums = prods[n:].reshape(-1)[:real.size]  # 1-D: numpy adds in no buffer
    flat, rows = sums.reshape(n, -1), table.T
    res = np.empty((len(table), 2) if n == 1 else (n, len(table)))

    def pass_(pairs):
        for lane, (a, b) in zip(lanes, pairs):
            np.multiply(a.view(np.float64), b.view(np.float64), out=lane)
        if n == 1:
            np.dot(table, cols, out=res)
            return [[re + im for re, im in res.tolist()]]
        np.add(real, imag, out=sums)
        return np.dot(flat, rows, out=res).tolist()
    return pass_


def _norm_sq(field: ScalarField, m: int = 0, sums=None) -> float:
    """Squared discrete H^m seminorm (L2 for m = 0) of a field by Parseval,
    cached on the field by this one producer, so its bits never depend on
    who asks first; m = -1 is ||u||^2 + ||v||^2 of its induced velocity.
    L2 is _half_norm_sq; H1, H2 and m = -1 one table pass, sums if bound,
    else one bound here on a fresh plane."""
    norms = field._norms
    if m not in norms:
        g, h = field.grid, field._half
        if m in (-1, 1, 2):
            sums = sums or _parseval_pass(_parseval_table(g), 1,
                                          np.empty((1, *h.shape), complex))
            (_, norms[1], norms[2], norms[-1]), = sums([(h, h)])
        else:
            norms[m] = _half_norm_sq(g, h if m == 0 else h * g._ksq**(m / 2))
    return norms[m]


def _sup_norm(field: ScalarField, nodes=None) -> float:
    """max|f| over a field's node values, cached on it by this one producer,
    whoever asks first: its cached node values if any, else nodes (a
    caller's plane, its irfft2 bit for bit), else the physical property."""
    norms = field._norms
    if "sup" not in norms:
        p = field._phys
        if p is None:
            p = field.physical if nodes is None else nodes
        norms["sup"] = float(max(p.max(), -p.min()))
    return norms["sup"]


def _detach(field: ScalarField):
    """Give a field that views a reused array (a row of run()'s history
    ring) its own read-only copy of its half spectrum, the same bits; the
    one place, besides construction, where a field's memory changes."""
    half = field._half.copy()
    half.setflags(write=False)
    field._half = half
