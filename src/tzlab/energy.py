"""Mean-field energy functionals on the torus and their probes.

Implements the two-exponent functional

    J_rho(u) = 1/2 int |grad u|^2
               - rho1 * (log int h1 e^u  - int u)
               - rho2/2 * (log int h2 e^{-2u} + int 2u),

whose critical points solve the Tzitzeica mean-field equation

    -Lap u = rho1 (h1 e^u / int h1 e^u - 1) - rho2 (h2 e^{-2u} / int h2 e^{-2u} - 1),

together with the two-exponent Moser-Trudinger deficit (sharp constants
8*pi and 4*pi).  The single-exponent functional I_rho is J_rho at
rho2 = 0, and the improved deficit for mass spread over k and l regions
is the deficit at (8 k pi, 4 l pi).  All exponential integrals go through
one helper, ``_exp_integral``, that subtracts the max exponent before its
single ``np.exp`` (concentrating families push u to +-O(100), where naive
doubles overflow), sums, scales by the cell area and returns both the
log-integral and the normalized density; no scipy is needed.  The exp
terms of J_rho and their gradient live in ``_potential``, which the
energy, the residual and the descent share.  The unknown additive constants
of the inequalities are never estimated; sharpness is probed through
slopes in log(lambda), which are constant-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .surface import ScalarField, grad_norm_sq, laplacian, mean


_TINY = float(np.finfo(float).tiny)


class ExpUnderflow(ArithmeticError):
    """A stabilized exponential integral underflowed to zero."""


def _exp_integral(exponent: np.ndarray, weight, dx2: float):
    """From one exp: log( sum weight * e^exponent * dx2 ) and the density
    weight * e^exponent / int weight * e^exponent.

    The max exponent is subtracted before the exp and added back to the log.
    """
    shift = exponent.max()
    density = weight * np.exp(exponent - shift)
    total = density.sum() * dx2
    if total == 0.0 or not np.isfinite(total):
        raise ExpUnderflow("exponential integral underflowed to zero")
    density /= total
    return float(shift + np.log(total)), density


def _log_integral_exp(exponent: np.ndarray, weight, dx2: float) -> float:
    """log( sum weight * e^exponent * dx2 ), stabilized by the max exponent."""
    return _exp_integral(exponent, weight, dx2)[0]


def _potential(values: np.ndarray, p: Params, dx2: float):
    """The exp terms of J_rho at u = values and their L^2 gradient:

        -rho1 (log int h1 e^u - ubar) - rho2/2 (log int h2 e^{-2u} + 2 ubar),
        -rho1 (h1 e^u / int h1 e^u - 1) + rho2 (h2 e^{-2u} / int h2 e^{-2u} - 1).

    One exp per species serves both.
    """
    ubar = float(values.sum() * dx2)
    log1, f1 = _exp_integral(values, p.h1.values, dx2)
    log2, f2 = _exp_integral(-2.0 * values, p.h2.values, dx2)
    value = -p.rho1 * (log1 - ubar) - 0.5 * p.rho2 * (log2 + 2.0 * ubar)
    return value, -p.rho1 * (f1 - 1.0) + p.rho2 * (f2 - 1.0)


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
            hmin = np.min(getattr(self, name).values)
            if hmin <= 0:
                raise ValueError(f"{name} must be strictly positive")
            if hmin < _TINY:
                # subnormal weights lose precision in every normalized density
                raise ValueError(f"{name} must be at least the smallest normal "
                                 f"double ({_TINY:.6g})")
        if self.h1.grid != self.h2.grid:
            raise ValueError("h1 and h2 must share a grid")

    @property
    def grid(self):
        return self.h1.grid

    @property
    def coercive(self) -> bool:
        """rho1 < 8*pi and rho2 < 4*pi, where J_rho is bounded below."""
        return bool(self.rho1 < 8.0 * np.pi and self.rho2 < 4.0 * np.pi)


@dataclass(frozen=True)
class MTCoefficients:
    """Coefficients (a1, a2) of the two-exponent Moser-Trudinger deficit.

    The sharp instance is (8*pi, 4*pi): the deficit is bounded below over
    H^1 iff a1 <= 8*pi and a2 <= 4*pi.
    """

    a1: float
    a2: float

    def __post_init__(self):
        if not (np.isfinite(self.a1) and np.isfinite(self.a2)):
            raise ValueError("coefficients must be finite")
        if self.a1 < 0 or self.a2 < 0:
            raise ValueError("coefficients must be nonnegative")


def energy_J(u: ScalarField, p: Params) -> float:
    """Two-exponent mean-field energy J_rho(u).

    Shift invariant: constants added to u cancel between the log-integral
    and the average terms.
    """
    return 0.5 * grad_norm_sq(u) + _potential(u.values, p, u.grid.dx**2)[0]


def residual_J(u: ScalarField, p: Params) -> ScalarField:
    """L^2 gradient of energy_J; zero exactly at discrete mean-field solutions.

    Output has zero mean to roundoff (both normalized densities integrate
    to 1 and the Laplacian kills the zero mode).
    """
    grad = _potential(u.values, p, u.grid.dx**2)[1]
    return ScalarField(u.grid, grad - laplacian(u).values)


def mt_deficit(u: ScalarField, c: MTCoefficients) -> float:
    """Two-exponent Moser-Trudinger deficit

        D(u) = 1/2 int |grad u|^2 - a1 log int e^{u - ubar}
                                  - a2/2 log int e^{-2(u - ubar)}.

    Vanishes on constants; bounded below over H^1 iff a1 <= 8*pi and
    a2 <= 4*pi (up to the surface-dependent additive constant, which this
    function does not include).  For fields whose e^u mass is spread over
    k well-separated regions and whose e^{-2u} mass over l regions, the
    thresholds improve to 8 k pi and 4 l pi.
    """
    dx2 = u.grid.dx**2
    centered = u.values - mean(u)
    log_plus = _log_integral_exp(centered, 1.0, dx2)
    log_minus = _log_integral_exp(-2.0 * centered, 1.0, dx2)
    return 0.5 * grad_norm_sq(u) - c.a1 * log_plus - 0.5 * c.a2 * log_minus
