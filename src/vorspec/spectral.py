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
Hermitian symmetry fhat[-k, -l] = conj(fhat[k, l]). The tables, the
operators below and the time loop all work on this layout; at even N column
N//2 is the Nyquist column, whose first-derivative symbol is zeroed like the
Nyquist row. The full (N, N) array exists only at the API edge, in
ScalarField.spectral.
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
                 "_ksq", "_inv_ksq", "_weight", "_neg_rows", "_nodes",
                 "_dealias_mask")

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
        two_pi_over_l = 2.0 * np.pi / self.length

        d1 = 1j * two_pi_over_l * k
        if self.n % 2 == 0:
            d1[self.n // 2] = 0.0  # unmatched Nyquist mode has no odd partner
        self._d1x = np.ascontiguousarray(np.broadcast_to(d1[:, None], (n, m)))
        self._d1y = np.ascontiguousarray(np.broadcast_to(d1[None, :m], (n, m)))
        self._ksq = two_pi_over_l**2 * (kx * kx + ky * ky)  # 4 pi^2 |k|^2 / L^2
        with np.errstate(divide="ignore"):
            self._inv_ksq = np.where(self._ksq > 0.0, 1.0 / self._ksq, 0.0)
        # Parseval weights of the columns: every column but l = 0 and the
        # even-N Nyquist column also stands for its conjugate
        self._weight = np.full(m, 2.0)
        self._weight[0] = 1.0
        if self.n % 2 == 0:
            self._weight[-1] = 1.0
        self._neg_rows = -np.arange(self.n) % self.n  # row index of -k
        for arr in (self._d1x, self._d1y, self._ksq, self._inv_ksq,
                    self._weight, self._neg_rows):
            arr.setflags(write=False)
        self._nodes = None
        self._dealias_mask = None

    def nodes(self):
        """Node coordinate arrays (X, Y), each of shape (n, n), ij indexing."""
        if self._nodes is None:
            x = np.arange(self.n) * self.spacing
            X, Y = np.meshgrid(x, x, indexing="ij")
            X.setflags(write=False)
            Y.setflags(write=False)
            self._nodes = (X, Y)
        return self._nodes

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
    """Real scalar field with lazily synchronized physical and spectral views.

    The physical view is a real (n, n) array of node values; the spectral
    view is held as the half spectrum (rfft2 layout) of the finite Fourier
    expansion (forward transform divided by n^2). Whichever view was not supplied is computed
    on first access and cached, so a field is value-immutable: all arrays
    are exposed read-only and arithmetic returns new fields. The spectral
    property expands the full (n, n) coefficients on each access; a full
    spectrum F given to the constructor keeps its Hermitian part
    (F + conj F[-k, -l]) / 2, the spectrum of ifft2(F).real.
    """

    __slots__ = ("grid", "_phys", "_half")

    def __init__(self, grid: Grid, physical=None, spectral=None):
        if physical is None and spectral is None:
            raise ValueError("need a physical or a spectral array")
        self.grid = grid
        self._phys = None
        self._half = None
        shape = (grid.n, grid.n)
        if physical is not None:
            p = np.array(physical, dtype=np.float64, copy=True)
            if p.shape != shape:
                raise ValueError(f"physical array shape {p.shape} != {shape}")
            p.setflags(write=False)
            self._phys = p
        if spectral is not None:
            s = np.asarray(spectral, dtype=np.complex128)
            if s.shape != shape:
                raise ValueError(f"spectral array shape {s.shape} != {shape}")
            neg = grid._neg_rows
            m = grid.n // 2 + 1
            h = 0.5 * (s[:, :m] + np.conj(s[np.ix_(neg, neg[:m])]))
            h.setflags(write=False)
            self._half = h

    @classmethod
    def from_physical(cls, grid, values):
        return cls(grid, physical=values)

    @classmethod
    def from_spectral(cls, grid, coeffs):
        return cls(grid, spectral=coeffs)

    @classmethod
    def zeros(cls, grid):
        return cls._adopt(grid, phys=np.zeros((grid.n, grid.n)))

    @classmethod
    def _adopt(cls, grid, phys=None, half=None):
        """Build a field taking ownership of freshly computed arrays."""
        f = cls.__new__(cls)
        f.grid = grid
        if phys is not None:
            phys = np.asarray(phys, dtype=np.float64)
            phys.setflags(write=False)
        if half is not None:
            half = np.asarray(half, dtype=np.complex128)
            half.setflags(write=False)
        f._phys = phys
        f._half = half
        if phys is None and half is None:
            raise ValueError("need a physical or a spectral array")
        return f

    @property
    def physical(self):
        """Real node values; computed from the half spectrum if stale."""
        if self._phys is None:
            p = _half_to_physical(self.grid, self._half)
            p.setflags(write=False)
            self._phys = p
        return self._phys

    @property
    def spectral(self):
        """Full (n, n) Fourier coefficients, expanded on each access."""
        s = _full_spectrum(self.grid, _half_spectrum(self))
        s.setflags(write=False)
        return s

    # value-like arithmetic; combines whichever views both operands have fresh
    def __add__(self, other):
        return self._combine(other, 1.0)

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def _combine(self, other, sign):
        if not isinstance(other, ScalarField):
            return NotImplemented
        _require_same_grid(self, other)
        if self._phys is not None and other._phys is not None:
            return ScalarField._adopt(self.grid,
                                      phys=self._phys + sign * other._phys)
        return ScalarField._adopt(
            self.grid,
            half=_half_spectrum(self) + sign * _half_spectrum(other))

    def __mul__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        c = float(c)
        phys = None if self._phys is None else c * self._phys
        half = None if self._half is None else c * self._half
        return ScalarField._adopt(self.grid, phys=phys, half=half)

    __rmul__ = __mul__

    def __truediv__(self, c):
        if not np.isscalar(c):
            return NotImplemented
        c = float(c)
        phys = None if self._phys is None else self._phys / c
        half = None if self._half is None else self._half / c
        return ScalarField._adopt(self.grid, phys=phys, half=half)

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        return f"ScalarField(grid={self.grid})"


class VectorField:
    """Pair of scalar components (x_comp, y_comp) on one shared grid."""

    __slots__ = ("x", "y")

    def __init__(self, x_comp: ScalarField, y_comp: ScalarField):
        _require_same_grid(x_comp, y_comp)
        self.x = x_comp
        self.y = y_comp

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
    return ScalarField._adopt(g, half=_half_spectrum(field) * mult)


def gradient(field: ScalarField) -> VectorField:
    """Discrete gradient (D_x f, D_y f)."""
    g = field.grid
    s = _half_spectrum(field)
    return VectorField(ScalarField._adopt(g, half=s * g._d1x),
                       ScalarField._adopt(g, half=s * g._d1y))


def divergence(vf: VectorField) -> ScalarField:
    """Discrete divergence D_x u + D_y v."""
    g = vf.grid
    return ScalarField._adopt(g, half=_half_spectrum(vf.x) * g._d1x
                              + _half_spectrum(vf.y) * g._d1y)


def laplacian(field: ScalarField) -> ScalarField:
    """Discrete Laplacian via the combined second-order symbol."""
    g = field.grid
    return ScalarField._adopt(g, half=-(_half_spectrum(field) * g._ksq))


def perp_gradient(field: ScalarField) -> VectorField:
    """Rotated gradient (D_y psi, -D_x psi); discretely divergence-free."""
    g = field.grid
    s = _half_spectrum(field)
    return VectorField(ScalarField._adopt(g, half=s * g._d1y),
                       ScalarField._adopt(g, half=-(s * g._d1x)))


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
    if f._half is not None:
        return float(f._half[0, 0].real)
    return float(np.mean(f._phys))


def _half_spectrum(field: ScalarField):
    """Half spectrum (rfft2 layout) of a real field, cached on the field:
    one real transform of the physical view when it is not yet at hand."""
    if field._half is None:
        h = np.fft.rfft2(field._phys, norm="forward")
        h.setflags(write=False)
        field._half = h
    return field._half


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


def _half_norm_sq(grid: Grid, half, m: int = 0) -> float:
    """Squared discrete H^m seminorm (L2 for m = 0) from a half spectrum.

    Parseval with the full second-order symbol to the power m, counting
    each retained column with its Hermitian partner.
    """
    power = half.real**2 + half.imag**2
    if m:
        power *= grid._ksq**m
    return grid.length**2 * float(power.sum(axis=0) @ grid._weight)
