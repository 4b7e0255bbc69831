"""Mean-field energy functionals on the torus and their probes.

Implements the two-exponent functional

    J_rho(u) = 1/2 int |grad u|^2
               - rho1 * (log int h1 e^u  - int u)
               - rho2/2 * (log int h2 e^{-2u} + int 2u),

whose critical points solve the Tzitzeica mean-field equation

    -Lap u = rho1 (h1 e^u / int h1 e^u - 1) - rho2 (h2 e^{-2u} / int h2 e^{-2u} - 1),

together with the single-exponent functional I_rho, the two-exponent
Moser-Trudinger deficit (sharp constants 8*pi and 4*pi), and its
spread-configuration improvement.  All exponential integrals go through a
log-sum-exp with the max subtracted first: concentrating families push u
to +-O(100) where naive doubles overflow.  The unknown additive constants
of the inequalities are never estimated; sharpness is probed through
slopes in log(lambda), which are constant-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .surface import ScalarField, grad_norm_sq, laplacian, mean


class ExpUnderflow(ArithmeticError):
    """A stabilized exponential integral underflowed to zero."""


def _log_integral_exp(exponent: np.ndarray, weight, dx2: float) -> float:
    """log( sum weight * e^exponent * dx2 ), stabilized by the max exponent."""
    out = logsumexp(exponent, b=weight * dx2)
    if not np.isfinite(out):
        raise ExpUnderflow("exponential integral underflowed to zero")
    return float(out)


def _normalized_density(exponent: np.ndarray, weight, dx2: float) -> np.ndarray:
    """weight * e^exponent / int weight * e^exponent, computed shift-stably."""
    w = weight * np.exp(exponent - exponent.max())
    total = w.sum() * dx2
    if total == 0.0 or not np.isfinite(total):
        raise ExpUnderflow("normalizing mass underflowed to zero")
    return w / total


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
            if np.min(h.values) <= 0:
                raise ValueError(f"{name} must be strictly positive")
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
    dx2 = u.grid.dx**2
    ubar = mean(u)
    log1 = _log_integral_exp(u.values, p.h1.values, dx2)
    log2 = _log_integral_exp(-2.0 * u.values, p.h2.values, dx2)
    return (
        0.5 * grad_norm_sq(u)
        - p.rho1 * (log1 - ubar)
        - 0.5 * p.rho2 * (log2 + 2.0 * ubar)
    )


def residual_J(u: ScalarField, p: Params) -> ScalarField:
    """L^2 gradient of energy_J; zero exactly at discrete mean-field solutions.

    Output has zero mean to roundoff (both normalized densities integrate
    to 1 and the Laplacian kills the zero mode).
    """
    dx2 = u.grid.dx**2
    f1 = _normalized_density(u.values, p.h1.values, dx2)
    f2 = _normalized_density(-2.0 * u.values, p.h2.values, dx2)
    lap = laplacian(u).values
    res = -lap - p.rho1 * (f1 - 1.0) + p.rho2 * (f2 - 1.0)
    return ScalarField(u.grid, res)


def energy_I(u: ScalarField, rho: float, h: ScalarField) -> float:
    """Single-exponent mean-field energy I_rho(u); J_rho at rho2 = 0."""
    dx2 = u.grid.dx**2
    log1 = _log_integral_exp(u.values, h.values, dx2)
    return 0.5 * grad_norm_sq(u) - rho * (log1 - mean(u))


def mt_deficit(u: ScalarField, c: MTCoefficients) -> float:
    """Two-exponent Moser-Trudinger deficit

        D(u) = 1/2 int |grad u|^2 - a1 log int e^{u - ubar}
                                  - a2/2 log int e^{-2(u - ubar)}.

    Vanishes on constants; bounded below over H^1 iff a1 <= 8*pi and
    a2 <= 4*pi (up to the surface-dependent additive constant, which this
    function does not include).
    """
    dx2 = u.grid.dx**2
    centered = u.values - mean(u)
    log_plus = _log_integral_exp(centered, 1.0, dx2)
    log_minus = _log_integral_exp(-2.0 * centered, 1.0, dx2)
    return 0.5 * grad_norm_sq(u) - c.a1 * log_plus - 0.5 * c.a2 * log_minus


def improved_mt_deficit(u: ScalarField, k: int, l: int, eps: float = 0.05) -> float:
    """Improved deficit for mass spread over k (plus) and l (minus) regions:

        D_{k,l}(u) = (1+eps)/2 int |grad u|^2 - 8 k pi log int e^{u - ubar}
                                              - 2 l pi log int e^{-2(u - ubar)}.

    For fields whose e^u mass is theta-spread over k well-separated regions
    and whose e^{-2u} mass over l regions (see check_spread), values along
    a concentrating family stay bounded below for any eps > 0.  The
    spread hypothesis is NOT verified here.
    """
    if k < 1 or l < 1:
        raise ValueError("k and l must be positive integers")
    if eps <= 0:
        raise ValueError("eps must be positive")
    dx2 = u.grid.dx**2
    centered = u.values - mean(u)
    log_plus = _log_integral_exp(centered, 1.0, dx2)
    log_minus = _log_integral_exp(-2.0 * centered, 1.0, dx2)
    return (
        0.5 * (1.0 + eps) * grad_norm_sq(u)
        - 8.0 * k * np.pi * log_plus
        - 2.0 * l * np.pi * log_minus
    )


def check_spread(u: ScalarField, regions, which: str = "plus", theta: float = 0.25) -> bool:
    """True iff every region holds at least a theta fraction of the mass.

    ``regions`` is a list of pairwise-disjoint boolean node masks; the mass
    density is e^u for which="plus" and e^{-2u} for which="minus".  This is
    the hypothesis under which improved_mt_deficit controls the functional.
    """
    if not regions:
        raise ValueError("region list must be nonempty")
    masks = [np.asarray(m, dtype=bool) for m in regions]
    stacked = np.zeros((u.grid.n, u.grid.n), dtype=int)
    for m in masks:
        if m.shape != stacked.shape:
            raise ValueError("region mask shape does not match grid")
        stacked += m
    if stacked.max() > 1:
        raise ValueError("regions must be pairwise disjoint")
    if which == "plus":
        expo = u.values
    elif which == "minus":
        expo = -2.0 * u.values
    else:
        raise ValueError("which must be 'plus' or 'minus'")
    w = np.exp(expo - expo.max())
    total = w.sum()
    return all(w[m].sum() >= theta * total for m in masks)
