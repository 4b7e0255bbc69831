"""Mean-field energy functionals on the torus and their probes.

Implements the two-exponent functional

    J_rho(u) = 1/2 int |grad u|^2
               - rho1 * (log int h1 e^u  - int u)
               - rho2/2 * (log int h2 e^{-2u} + int 2u),

whose critical points solve the Tzitzeica mean-field equation

    -Lap u = rho1 (h1 e^u / int h1 e^u - 1) - rho2 (h2 e^{-2u} / int h2 e^{-2u} - 1).

I_rho is J_rho at rho2 = 0.  At h1 = h2 = 1 and rho = (a1, a2), J_rho is
the Moser-Trudinger deficit D(u) = 1/2 int |grad u|^2 - a1 log int
e^{u - ubar} - a2/2 log int e^{-2(u - ubar)}: bounded below iff a1 <= 8 pi
and a2 <= 4 pi, and up to (8 k pi, 4 l pi) for mass spread over k and l
regions.  Every exponential integral goes through ``_exp_integral``,
stabilized by the max exponent since concentrating families push u
to +-O(100); the exp terms of J_rho and their gradient g go through
``_potential``, and the residual -Lap u + g through ``_residual``, its one
formula: the descent evaluates it on its carried spectrum, ``residual_J``
(inverted by ``surface._from_half_spectrum``) and solve's check on a fresh one.
The additive constants of the inequalities are never estimated;
sharpness is probed through slopes in log(lambda), which are
constant-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .surface import ScalarField, _dot, _from_half_spectrum, _half_spectrum, grad_norm_sq


_TINY = float(np.finfo(float).tiny)
_HUGE = float(np.finfo(float).max)


class ExpUnderflow(ArithmeticError):
    """An exponential integral underflowed to zero or overflowed, or a descent met a NaN or inf."""


def _checked_integral(total):
    """An exponential integral; ExpUnderflow if it is zero or not finite."""
    if total == 0.0:
        raise ExpUnderflow("exponential integral underflowed to zero")
    if not np.isfinite(total):
        raise ExpUnderflow("exponential integral overflowed")
    return total


def _exp_integral(exponent: np.ndarray, weight, dx2: float):
    """From one exp, overwriting ``exponent``: log( sum weight * e^exponent
    * dx2 ), the unnormalized density weight * e^(exponent - max exponent)
    and its integral, by which the density divides to integrate to 1.

    The max exponent is subtracted before the exp and added back to the log.
    """
    shift = exponent.max()
    exponent -= shift
    density = np.exp(exponent, out=exponent)
    density *= weight
    total = _checked_integral(density.sum() * dx2)
    return float(shift + np.log(total)), density, total


def _j_from_parts(dirichlet, log1, log2, ubar, rho1, rho2):
    """J_rho from its parts 1/2 int |grad u|^2, log int h1 e^u,
    log int h2 e^{-2u} and ubar; elementwise on arrays of parts."""
    return dirichlet - rho1 * (log1 - ubar) - 0.5 * rho2 * (log2 + 2.0 * ubar)


def _potential(values: np.ndarray, p: Params):
    """The exp terms of J_rho at u = values and their L^2 gradient:

        -rho1 (log int h1 e^u - ubar) - rho2/2 (log int h2 e^{-2u} + 2 ubar),
        -rho1 (h1 e^u / int h1 e^u - 1) + rho2 (h2 e^{-2u} / int h2 e^{-2u} - 1).

    One fused pass per species: one exp, in place, serves both, and the
    normalization 1/int of each density is folded into its scale factor in
    the gradient, which accumulates in the first species' array.  The
    energy, the residual and the descent all evaluate through here.
    """
    dx2 = p.grid.dx**2
    ubar = float(values.sum() * dx2)
    log1, grad, total1 = _exp_integral(values.copy(), p.h1.values, dx2)
    log2, f2, total2 = _exp_integral(-2.0 * values, p.h2.values, dx2)
    value = _j_from_parts(0.0, log1, log2, ubar, p.rho1, p.rho2)
    grad *= -p.rho1 / total1
    f2 *= p.rho2 / total2
    grad += f2
    grad += p.rho1 - p.rho2
    return value, grad


@dataclass(frozen=True)
class Params:
    """Parameters (rho1, rho2, h1, h2) of the mean-field problem.

    h1, h2 are smooth positive weight fields; rho1, rho2 >= 0.
    """

    rho1: float
    rho2: float
    h1: ScalarField
    h2: ScalarField

    def __post_init__(self):
        for name in ("rho1", "rho2"):
            val = getattr(self, name)
            if not np.isfinite(val) or val < 0:
                raise ValueError(f"{name} must be finite and nonnegative")
        for name in ("h1", "h2"):
            h = getattr(self, name)
            hmin = np.min(h.values)
            if hmin <= 0:
                raise ValueError(f"{name} must be strictly positive")
            if hmin < _TINY:
                # subnormal weights lose precision in every normalized density
                raise ValueError(f"{name} must be at least the smallest normal "
                                 f"double ({_TINY:.6g})")
            if np.max(h.values) > _HUGE / h.grid.n**2:
                # the sum of weight * e^(u - max u) over the cells would overflow
                raise ValueError(f"{name} must be at most the largest double over "
                                 f"the n^2 grid cells ({_HUGE / h.grid.n**2:.6g})")
        if self.h1.grid != self.h2.grid:
            raise ValueError("h1 and h2 must share a grid")

    @property
    def grid(self):
        return self.h1.grid

    @property
    def coercive(self) -> bool:
        """rho1 < 8*pi and rho2 < 4*pi, where J_rho is bounded below."""
        return bool(self.rho1 < 8.0 * np.pi and self.rho2 < 4.0 * np.pi)


def energy_J(u: ScalarField, p: Params) -> float:
    """Two-exponent mean-field energy J_rho(u); at h1 = h2 = 1 the
    Moser-Trudinger deficit with coefficients (rho1, rho2).

    Shift invariant: constants added to u cancel between the log-integral
    and the average terms.
    """
    return 0.5 * grad_norm_sq(u) + _potential(u.values, p)[0]


def _residual(uh, g, grid):
    """The library's one residual formula, r = -Lap u + g, in ``surface``'s
    pre-weighted half spectrum: from u^ and the potential's gradient g,
    |k|^2 u^, r^ = |k|^2 u^ + g^ and the L^2 norm of r."""
    k2uh = grid.k2_half * uh
    rh = _half_spectrum(g, grid)
    rh += k2uh
    rh[0, 0] = 0.0  # r has zero mean; its zero mode is pure roundoff
    return k2uh, rh, float(np.sqrt(_dot(rh, rh)))


def _fresh_residual(u: ScalarField, p: Params):
    """``_residual`` at u, from a fresh half spectrum of u."""
    g = _potential(u.values, p)[1]
    return _residual(_half_spectrum(u.values, u.grid), g, u.grid)


def residual_J(u: ScalarField, p: Params) -> ScalarField:
    """L^2 gradient of energy_J; zero exactly at discrete mean-field solutions.

    ``_fresh_residual``'s r^, inverted by ``surface._from_half_spectrum`` as
    the descent inverts its direction; zero mean to roundoff.  At
    rho = (0, 0) the potential's gradient is exactly zero, so this is -Lap u.
    """
    return ScalarField(u.grid, _from_half_spectrum(_fresh_residual(u, p)[1], u.grid))
