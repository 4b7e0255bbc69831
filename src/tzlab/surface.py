"""Discrete geometry of the unit-area flat torus.

The surface model throughout the library is the square torus [0,1)^2 with
the flat metric, sampled on a uniform n-by-n grid.  Everything here is
spectral: integrals are periodic trapezoid sums (exact for band-limited
integrands), -Lap multiplies each Fourier mode by |k|^2 (``k2_half``), and
the Dirichlet energy is a Parseval sum.  The FFT convention is numpy's:
forward transform unnormalized, inverse scaled by 1/n^2.

Fields are real, so transforms are the real ones (``rfft2``/``irfft2``):
the half spectrum keeps the x-modes 0..n/2 (axis 1) and every y-mode.
The dropped x-modes n/2+1..n-1 are complex conjugates of columns
1..n/2-1, so columns 0 and n/2 stand for one mode of the full spectrum
and every other column for two.  This module owns the library's one
Parseval convention and both directions of the transform (no other module
calls ``np.fft``): a half spectrum is carried pre-weighted by sqrt(that
multiplicity)/n^2 (``parseval_scale``; ``_half_spectrum``, inverted by
``_from_half_spectrum``), so int f g is Re sum conj(f^) g^, ``_dot``, and
the Dirichlet integral is ``_dot(f^, |k|^2 f^)``, ``_dirichlet``.
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
    owns its spectral |k|^2 and Parseval scale.
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
    def k2_half(self) -> np.ndarray:
        """|k|^2 on the rfft2 half spectrum, shape (n, n/2 + 1): angular
        wavenumbers 2*pi*rfftfreq along x (axis 1), 2*pi*fftfreq along y."""
        kx = 2.0 * np.pi * np.fft.rfftfreq(self.n, d=self.dx)
        ky = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        return kx[None, :] ** 2 + ky[:, None] ** 2

    @cached_property
    def parseval_scale(self) -> np.ndarray:
        """sqrt(multiplicity) / n^2 per half-spectrum column, shape (n/2 + 1,):
        1/n^2 for columns 0 and n/2, which stand for one mode of the full
        spectrum, and sqrt(2)/n^2 for all others, which stand for two."""
        m = np.full(self.n // 2 + 1, 2.0)
        m[0] = m[-1] = 1.0
        return np.sqrt(m) / float(self.n) ** 2


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


def grad_norm_sq(f: ScalarField) -> float:
    """Dirichlet integral int |grad f|^2 via Parseval.

    Equals int f (-Lap f) to roundoff; always >= 0 and zero iff f is
    constant.
    """
    spectrum = np.empty((f.grid.n, f.grid.n // 2 + 1), dtype=complex)
    scratch = np.empty(min(spectrum.size, _DOT_SLICE), dtype=complex)
    return _dirichlet(f.values, f.grid, spectrum, scratch)


# Longest slice ``_dot`` hands to one np.vdot: OpenBLAS runs a complex dot of
# at most 10 000 elements on one thread.  The n = 128 half spectrum (8 320
# elements) is one slice; n = 256 takes four.
_DOT_SLICE = 10_000


def _half_spectrum(values: np.ndarray, grid: TorusGrid, out=None) -> np.ndarray:
    """The pre-weighted half spectrum of the (n, n) array ``values``: the two
    transforms ``rfft2`` runs, times ``grid.parseval_scale``, written into
    ``out`` (complex, (n, n/2 + 1)) when given.  The scale row is one number
    on columns 0 and n/2 and another elsewhere, so two scalar products give
    its bits with no broadcast buffer."""
    spectrum = np.fft.rfft(values, axis=1, out=out)
    np.fft.fft(spectrum, axis=0, out=spectrum)
    scale, edges = grid.parseval_scale, spectrum[:, ::grid.n // 2]
    edge_values = edges * scale[0]
    spectrum *= scale[1]
    edges[...] = edge_values
    return spectrum


def _from_half_spectrum(spectrum: np.ndarray, grid: TorusGrid) -> np.ndarray:
    """The (n, n) array whose ``_half_spectrum`` is ``spectrum``.  The
    spectrum is multiplied by 1/``parseval_scale``: numpy divides a complex
    by a real as that product, so the bits are the quotient's."""
    return np.fft.irfft2(spectrum * (1.0 / grid.parseval_scale), s=(grid.n, grid.n))


def _dot(f: np.ndarray, g: np.ndarray) -> float:
    """Re sum conj(f) g of two pre-weighted half spectra, int f g.

    One ``np.vdot`` when f fits in one slice of ``_DOT_SLICE`` elements;
    otherwise the vdots of consecutive slices, summed in order, so each
    runs on one BLAS thread and the result does not depend on the thread
    count.
    """
    if f.size <= _DOT_SLICE:
        return float(np.vdot(f, g).real)
    f, g = f.ravel(), g.ravel()
    total = 0.0
    for i in range(0, f.size, _DOT_SLICE):
        total += np.vdot(f[i:i + _DOT_SLICE], g[i:i + _DOT_SLICE]).real
    return float(total)


def _dirichlet(values: np.ndarray, grid: TorusGrid, spectrum: np.ndarray,
               scratch: np.ndarray) -> float:
    """``grad_norm_sq`` of the (n, n) array ``values``: ``_dot(f^, |k|^2 f^)``,
    with f^ written into ``spectrum`` (complex, (n, n/2 + 1)) and |k|^2 f^
    into ``scratch`` (complex, one ``_dot`` slice long) a slice at a time,
    still in cache for its vdot.  |k|^2 is copied in complex and times f^ in
    place: the complex product ``k2_half * f^``, with no cast buffer."""
    f = _half_spectrum(values, grid, out=spectrum).ravel()
    k2, total = grid.k2_half.ravel(), 0.0
    for i in range(0, f.size, _DOT_SLICE):
        j = min(i + _DOT_SLICE, f.size)
        weighted = scratch[:j - i]
        np.copyto(weighted, k2[i:j])
        weighted *= f[i:j]
        total += np.vdot(f[i:j], weighted).real
    return float(total)


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
    translates; the wrap and fold run once per axis (``_axis_offsets``).
    The squared y column is copied into every column and the squared x row
    added in place, which costs less than a two-dimensional broadcast.
    Each node sees the same float operations as on full coordinate meshes
    (the sum commutes), so the result is bit for bit the full-mesh form.
    """
    dxv, dyv = _axis_offsets(grid, point)
    out = np.empty((grid.n, grid.n))
    np.copyto(out, (dyv**2)[:, None])
    out += dxv**2
    return np.sqrt(out, out=out)
