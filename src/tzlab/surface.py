"""Discrete geometry of the unit-area flat torus.

The surface model throughout the library is the square torus [0,1)^2 with
the flat metric, sampled on a uniform n-by-n grid.  Everything here is
spectral: integrals are periodic trapezoid sums (exact for band-limited
integrands), the Laplacian multiplies Fourier modes by -|k|^2, and the
Dirichlet energy is a Parseval sum.  The FFT convention is numpy's:
forward transform unnormalized, inverse scaled by 1/n^2.

Fields are real, so transforms are the real ones (``rfft2``/``irfft2``):
the half spectrum keeps the x-modes 0..n/2 (axis 1) and every y-mode.
The dropped x-modes n/2+1..n-1 are complex conjugates of columns
1..n/2-1, so a Parseval sum over the half spectrum weights each mode by
its multiplicity: 1 for columns 0 and n/2, 2 for all others.  The grid
caches that multiplicity times |k|^2 as ``parseval_weight``, so the
Dirichlet integral (``grad_norm_sq``) forms no weight per call.  Its
transform and |f^|^2 are written into caller-owned buffers (``_dirichlet``),
so a sweep's lambda rows share one half-spectrum buffer and one power
buffer instead of allocating both per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


class GridError(ValueError):
    """Invalid grid construction parameters."""


@dataclass(frozen=True)
class TorusGrid:
    """Uniform periodic grid on the unit-area square torus [0,1)^2.

    ``n`` nodes per axis and spacing ``dx = 1/n``, so the total area
    ``n^2 * dx^2`` is exactly 1.  The grid owns one coordinate array,
    ``axis_points`` (``j / n`` for ``j = 0..n-1``), shared by both axes:
    axis 1 of a field is x (x fastest in C order), axis 0 is y.  It also
    owns its spectral wavenumbers.
    """

    n: int

    def __post_init__(self):
        if self.n % 2 != 0:
            raise GridError("n must be even")
        if self.n < 8:
            raise GridError("n must be at least 8")

    @property
    def dx(self) -> float:
        return 1.0 / self.n

    @cached_property
    def axis_points(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Per-axis angular wavenumbers 2*pi*fftfreq; index k pairs with n-k."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @cached_property
    def k2_half(self) -> np.ndarray:
        """|k|^2 on the rfft2 half spectrum, shape (n, n/2 + 1)."""
        kx = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.dx)
        return kx[None, :] ** 2 + self.wavenumbers[:, None] ** 2

    @cached_property
    def multiplicity(self) -> np.ndarray:
        """How often each half-spectrum column occurs in the full spectrum:
        1 for columns 0 and n/2, 2 for all others (shape (n/2 + 1,))."""
        m = np.full(self.n // 2 + 1, 2.0)
        m[0] = m[-1] = 1.0
        return m

    @cached_property
    def parseval_weight(self) -> np.ndarray:
        """multiplicity * |k|^2 on the half spectrum, shape (n, n/2 + 1): the
        Dirichlet integral's Parseval weight, formed once per grid."""
        return self.multiplicity * self.k2_half


def build_grid(n: int) -> TorusGrid:
    """Build the unit-area torus grid with n nodes per axis (even, >= 8)."""
    return TorusGrid(int(n))


@dataclass
class ScalarField:
    """Real scalar function sampled on a TorusGrid.

    The discrete stand-in for u in H^1(M).  Field algebra (add, subtract,
    scale, negate) returns new fields on the same grid; values are always
    finite float64.
    """

    grid: TorusGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.grid.n, self.grid.n):
            raise ValueError(f"values shape {v.shape} does not match grid n={self.grid.n}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must be finite")
        self.values = v

    def _like(self, values) -> "ScalarField":
        return ScalarField(self.grid, values)

    def _coerce(self, other):
        if isinstance(other, ScalarField):
            if other.grid is not self.grid and other.grid != self.grid:
                raise ValueError("fields live on different grids")
            return other.values
        return float(other)

    def __add__(self, other):
        return self._like(self.values + self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self._like(self.values - self._coerce(other))

    def __rsub__(self, other):
        return self._like(self._coerce(other) - self.values)

    def __mul__(self, other):
        return self._like(self.values * self._coerce(other))

    __rmul__ = __mul__

    def __neg__(self):
        return self._like(-self.values)


def constant_field(grid: TorusGrid, c: float) -> ScalarField:
    return ScalarField(grid, np.full((grid.n, grid.n), float(c)))


def field_from_function(grid: TorusGrid, fn) -> ScalarField:
    """Sample fn(x, y) onto the grid.

    fn is called once, vectorized, with x as the (1, n) row and y as the
    (n, 1) column of ``grid.axis_points``; whatever it returns (a scalar,
    a row, a column or the full array) is broadcast to a contiguous
    (n, n) float64 array.  Each node sees the same float operations as on
    full coordinate meshes.
    """
    x = grid.axis_points
    values = np.asarray(fn(x[None, :], x[:, None]), dtype=np.float64)
    return ScalarField(grid, np.broadcast_to(values, (grid.n, grid.n)).copy())


def integrate(f: ScalarField) -> float:
    """Integral over the torus: periodic trapezoid rule, sum * dx^2.  The
    area is 1, so this is also the average of f.

    Exact (to roundoff) for trigonometric polynomials below the Nyquist band.
    """
    return float(f.values.sum() * f.grid.dx**2)


def laplacian(f: ScalarField) -> ScalarField:
    """Spectral Laplacian: each Fourier mode multiplied by -|k|^2.

    The zero mode is annihilated, so the output has zero mean to roundoff.
    """
    fh = np.fft.rfft2(f.values)
    out = np.fft.irfft2(-f.grid.k2_half * fh, s=f.values.shape)
    return ScalarField(f.grid, out)


def grad_norm_sq(f: ScalarField) -> float:
    """Dirichlet integral int |grad f|^2 via Parseval.

    Equals -integrate(f * laplacian(f)) to roundoff; always >= 0 and zero
    iff f is constant.
    """
    return _dirichlet(f.values, f.grid, *_dirichlet_buffers(f.grid))


def _dirichlet_buffers(grid: TorusGrid) -> tuple[np.ndarray, np.ndarray]:
    """Uninitialized (spectrum, power) buffers for ``_dirichlet`` on grid:
    complex and float64, each the (n, n/2 + 1) half spectrum."""
    half = (grid.n, grid.n // 2 + 1)
    return np.empty(half, dtype=complex), np.empty(half)


def _dirichlet(values: np.ndarray, grid: TorusGrid, spectrum: np.ndarray,
               power: np.ndarray) -> float:
    """``grad_norm_sq`` of the (n, n) array ``values``, with its half
    spectrum written into ``spectrum`` (complex, (n, n/2 + 1)) and |f^|^2
    into ``power`` (float64, same shape); ``values`` is not touched.

    The two transforms are those ``rfft2`` runs (x-modes, then y-modes),
    and |f^|^2 is formed as re^2, plus im^2 (squared in the spectrum's own
    storage), times the weight, then one contiguous sum: the operations of
    the plain expression, so the result is the same bit for bit whatever
    the buffers held before.
    """
    np.fft.rfft(values, axis=1, out=spectrum)
    np.fft.fft(spectrum, axis=0, out=spectrum)
    np.square(spectrum.real, out=power)
    power += np.square(spectrum.imag, out=spectrum.imag)
    power *= grid.parseval_weight
    return float(power.sum() / grid.n**4)


def _axis_offsets(grid: TorusGrid, point) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis torus distances (|x_j - px|, |y_i - py|) from the n node
    coordinates to ``point``, each wrapped and folded into [0, 1/2].

    On the square torus the axes decouple: the squared distance from node
    (i, j) is dx[j]^2 + dy[i]^2.
    """
    px, py = point
    dxv = np.abs(grid.axis_points - px) % 1.0
    dyv = np.abs(grid.axis_points - py) % 1.0
    return np.minimum(dxv, 1.0 - dxv), np.minimum(dyv, 1.0 - dyv)


def distance_field(grid: TorusGrid, point) -> np.ndarray:
    """Array of torus distances from every node to ``point``.

    Equivalent to minimizing the Euclidean distance over the 9 periodic
    translates; the wrap and fold run once per axis (``_axis_offsets``) and
    one broadcast combines them.  Each node sees the same float operations
    as on full coordinate meshes, so the result is bit for bit the
    full-mesh form.
    """
    dxv, dyv = _axis_offsets(grid, point)
    return np.sqrt(dxv[None, :] ** 2 + dyv[:, None] ** 2)
