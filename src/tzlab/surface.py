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
its multiplicity: 1 for columns 0 and n/2, 2 for all others.
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
    ``n^2 * dx^2`` is exactly 1.  Node coordinates are ``j / n`` for
    ``j = 0..n-1``; the grid owns its spectral wavenumbers.
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
    def X(self) -> np.ndarray:
        """x coordinate of each node; axis 1 is x (x-fastest in C order)."""
        return np.meshgrid(self.axis_points, self.axis_points, indexing="xy")[0]

    @cached_property
    def Y(self) -> np.ndarray:
        return np.meshgrid(self.axis_points, self.axis_points, indexing="xy")[1]

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
    """Sample fn(x, y) (vectorized over coordinate meshes) onto the grid."""
    return ScalarField(grid, np.asarray(fn(grid.X, grid.Y), dtype=np.float64))


def integrate(f: ScalarField) -> float:
    """Integral over the torus: periodic trapezoid rule, sum * dx^2.

    Exact (to roundoff) for trigonometric polynomials below the Nyquist band.
    """
    return float(f.values.sum() * f.grid.dx**2)


def mean(f: ScalarField) -> float:
    """Average of f; equals integrate(f) because the area is 1."""
    return integrate(f)


def laplacian(f: ScalarField) -> ScalarField:
    """Spectral Laplacian: each Fourier mode multiplied by -|k|^2.

    The zero mode is annihilated, so the output has zero mean exactly.
    """
    fh = np.fft.rfft2(f.values)
    out = np.fft.irfft2(-f.grid.k2_half * fh, s=f.values.shape)
    return ScalarField(f.grid, out)


def grad_norm_sq(f: ScalarField) -> float:
    """Dirichlet integral int |grad f|^2 via Parseval.

    Equals -integrate(f * laplacian(f)) to roundoff; always >= 0 and zero
    iff f is constant.
    """
    grid = f.grid
    fh = np.fft.rfft2(f.values)
    return float(np.sum(grid.multiplicity * grid.k2_half * (fh.real**2 + fh.imag**2))
                 / grid.n**4)


def torus_distance(p, q) -> float:
    """Geodesic distance of the unit torus: per-axis wrapped differences."""
    d = 0.0
    for a, b in zip(p, q):
        t = abs(a - b) % 1.0
        t = min(t, 1.0 - t)
        d += t * t
    return float(np.sqrt(d))


def distance_field(grid: TorusGrid, point) -> np.ndarray:
    """Array of torus distances from every node to ``point``.

    Equivalent to minimizing the Euclidean distance over the 9 periodic
    translates; on the square torus the axes decouple.
    """
    px, py = point
    dxv = np.abs(grid.X - px) % 1.0
    dyv = np.abs(grid.Y - py) % 1.0
    dxv = np.minimum(dxv, 1.0 - dxv)
    dyv = np.minimum(dyv, 1.0 - dyv)
    return np.sqrt(dxv**2 + dyv**2)
