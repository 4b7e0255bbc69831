"""Lambda sweeps and slope fits turning asymptotic laws into numbers.

Each concentrating family has components whose leading behavior is linear
in log(lambda): for a join bubble with k plus points and l minus points at
join parameter s (lambda1 = (1-s) lambda, lambda2 = s lambda),

    1/2 int |grad phi|^2   ~  16 k pi log lambda1 + 4 l pi log lambda2
    log int e^phi          ~   2 log lambda2 - 2 log lambda1
    log int e^{-2 phi}     ~   8 log lambda1 - 2 log lambda2
    int phi                ~  -4 log lambda1 + 2 log lambda2

(all up to O(1), with the logs delta-shifted so the s = 0, 1 endpoints
stay finite; we fix delta = 1).  Consequently the energy of the family is

    J_rho(phi) ~ (16 k pi - 2 rho1) log lambda1 + (4 l pi - rho2) log lambda2,

and the Moser-Trudinger deficit along the single-bubble families has slope
-2 (a1 - 8 pi) (plus family) and -(a2 - 4 pi) (minus family): the sign
flips exactly at the sharp constants.  Every sweep measures its bubbles
through one primitive, ``_bubble_components``; J_rho and, with unit
weights, the deficit are one linear combination of its columns
(``_energy_sweep``).  Sweeps fit ordinary least squares of measured values
against log(lambda + 1) and compare with these predictions.

Quadrature adequacy: a bubble core spans ~1/lambda, so sweeps require
lambda * dx <= 2; above that the result is flagged skipped rather than
silently mismeasured.  Default point configurations sit at quarter-cell
offsets from the grid nodes, which cancels the leading quadrature aliases
of the sharp core (the first reciprocal-lattice shell contributes with
phase +-i and sums to zero).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .bubbles import JoinConfig, build_bubble
from .energy import Params, _log_integral_exp
from .radial import (classify_mass_pair, limit_mass_relation,
                     pohozaev_residual_profile, shoot)
from .surface import TorusGrid, grad_norm_sq, mean

DEFAULT_LAMBDAS = (25.0, 50.0, 100.0, 200.0, 400.0)

REL_SLOPE_BOUND = 0.10
ABS_SLOPE_BOUND = 0.5


def thread_count() -> int:
    """Worker cap from TZLAB_THREADS (0 or unset = auto)."""
    raw = os.environ.get("TZLAB_THREADS", "0").strip()
    try:
        val = int(raw)
    except ValueError as exc:
        raise ValueError(f"TZLAB_THREADS must be an integer, got {raw!r}") from exc
    if val < 0:
        raise ValueError("TZLAB_THREADS must be nonnegative")
    if val == 0:
        return min(4, os.cpu_count() or 1)
    return val


def parallel_map(fn, items):
    """Order-preserving map, threaded when TZLAB_THREADS allows."""
    items = list(items)
    workers = thread_count()
    if workers == 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def fit_slope(lambdas, values) -> float:
    """Least-squares slope of values against log(lambda + 1)."""
    x = np.log(np.asarray(lambdas, dtype=float) + 1.0)
    y = np.asarray(values, dtype=float)
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


def grid_adequate(grid: TorusGrid, lambdas) -> bool:
    """Bubble cores must span a few cells: max(lambda) * dx <= 2."""
    return max(lambdas) * grid.dx <= 2.0


@dataclass
class SweepResult:
    """Fitted-versus-predicted slope of one value family over lambda."""

    name: str
    lambdas: np.ndarray
    values: np.ndarray
    fitted_slope: float
    predicted_slope: float
    rel_error: float
    passed: bool
    skipped: bool = False

    @classmethod
    def from_values(cls, name, lambdas, values, predicted):
        """Fit and judge values against the slope bounds; values None marks a skipped sweep."""
        lambdas = np.asarray(lambdas, dtype=float)
        if np.any(np.diff(lambdas) <= 0):
            raise ValueError("lambdas must be strictly increasing")
        if values is None:
            return cls(name, lambdas, np.full_like(lambdas, np.nan),
                       float("nan"), float(predicted), float("nan"), False, True)
        values = np.asarray(values, dtype=float)
        fitted = fit_slope(lambdas, values)
        if predicted == 0.0:
            rel = abs(fitted)
            ok = abs(fitted) <= ABS_SLOPE_BOUND
        else:
            rel = abs(fitted - predicted) / abs(predicted)
            ok = abs(fitted - predicted) <= max(ABS_SLOPE_BOUND, REL_SLOPE_BOUND * abs(predicted))
        return cls(name, lambdas, values, fitted, float(predicted), rel, ok)


def quarter_offset_point(grid: TorusGrid, x: float, y: float) -> tuple[float, float]:
    """Snap a point to the nearest node, then shift by a quarter cell."""
    q = 0.25 * grid.dx
    n = grid.n
    return (round(x * n) % n) / n + q, (round(y * n) % n) / n + q


def default_join_config(grid: TorusGrid, k: int = 1, l: int = 1, s: float = 0.5) -> JoinConfig:
    """Symmetric well-separated k+l configuration with anti-aliased centers."""
    plus_sites = [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.5, 0.5)]
    minus_sites = [(0.75, 0.75), (0.25, 0.75), (0.75, 0.25), (0.5, 0.5)]
    if k > len(plus_sites) or l > len(minus_sites):
        raise ValueError("at most 4 points per species in the default layout")
    if k + l > 4 and s not in (0.0, 1.0):
        # the two site lists start overlapping beyond 2+2
        raise ValueError("default layout supports at most 2 plus and 2 minus points together")
    plus = tuple((1.0 / k, quarter_offset_point(grid, *plus_sites[i])) for i in range(k))
    minus = tuple((1.0 / l, quarter_offset_point(grid, *minus_sites[j])) for j in range(l))
    return JoinConfig(plus, minus, s)


def _predicted_weights(s: float) -> tuple[float, float]:
    """Asymptotic d log(lambda_i + 1) / d log(lambda + 1): 1 for a live side, 0 for a dead one."""
    return (1.0 if s < 1.0 else 0.0), (1.0 if s > 0.0 else 0.0)


def _bubble_components(zeta: JoinConfig, grid: TorusGrid, lambdas,
                       h1=1.0, h2=1.0) -> np.ndarray | None:
    """One row per lambda: (1/2 int |grad phi|^2, log int h1 e^phi,
    log int h2 e^{-2 phi}, mean phi) of the bubble phi; None when the grid
    cannot resolve the cores (see grid_adequate)."""
    if not grid_adequate(grid, lambdas):
        return None
    dx2 = grid.dx**2

    def row(lam):
        phi = build_bubble(zeta, lam, grid)
        return (
            0.5 * grad_norm_sq(phi),
            _log_integral_exp(phi.values, h1, dx2),
            _log_integral_exp(-2.0 * phi.values, h2, dx2),
            mean(phi),
        )

    return np.array(parallel_map(row, lambdas))


def _energy_sweep(name: str, comps, lambdas, a1: float, a2: float,
                  predicted: float) -> SweepResult:
    """J_rho at rho = (a1, a2) along a family, from its component rows;
    with unit weights this is the Moser-Trudinger deficit with
    coefficients (a1, a2).  Skipped when comps is None."""
    values = None
    if comps is not None:
        g2, lp, lm, mv = comps.T
        # centered log integrals: log int e^{u - ubar}, log int e^{-2(u - ubar)}
        values = g2 - a1 * (lp - mv) - 0.5 * a2 * (lm + 2.0 * mv)
    return SweepResult.from_values(name, lambdas, values, predicted)


def bubble_energy_sweep(zeta: JoinConfig, p: Params, lambdas=DEFAULT_LAMBDAS) -> SweepResult:
    """J_rho along the bubble family; predicted slope
    (16 k pi - 2 rho1) [s<1] + (4 l pi - rho2) [s>0]."""
    w1, w2 = _predicted_weights(zeta.s)
    predicted = (16.0 * zeta.k * np.pi - 2.0 * p.rho1) * w1 + (4.0 * zeta.l * np.pi - p.rho2) * w2
    comps = _bubble_components(zeta, p.grid, lambdas, p.h1.values, p.h2.values)
    return _energy_sweep("energy", comps, lambdas, p.rho1, p.rho2, predicted)


def component_asymptotics_sweep(zeta: JoinConfig, grid: TorusGrid,
                                lambdas=DEFAULT_LAMBDAS) -> dict[str, SweepResult]:
    """Four component sweeps: gradient, log int e^phi, log int e^{-2 phi}, mean."""
    k, l = zeta.k, zeta.l
    w1, w2 = _predicted_weights(zeta.s)
    predictions = {
        "gradient": 16.0 * k * np.pi * w1 + 4.0 * l * np.pi * w2,
        "log_int_plus": -2.0 * w1 + 2.0 * w2,
        "log_int_minus": 8.0 * w1 - 2.0 * w2,
        "mean": -4.0 * w1 + 2.0 * w2,
    }
    comps = _bubble_components(zeta, grid, lambdas)
    columns = [None] * len(predictions) if comps is None else comps.T
    return {name: SweepResult.from_values(name, lambdas, column, pred)
            for (name, pred), column in zip(predictions.items(), columns)}


@dataclass
class ThresholdScan:
    """Deficit slopes of both single-bubble families over a coefficient lattice.

    ``plus[i][j]`` is the plus-family sweep at (a1_list[i], a2_list[j]);
    ``minus[i][j]`` likewise.  Crossings are the interpolated coefficients
    where the fitted slope changes sign (None if no sign change).
    """

    a1_list: np.ndarray
    a2_list: np.ndarray
    plus: list = field(repr=False)
    minus: list = field(repr=False)
    plus_crossing: float | None
    minus_crossing: float | None
    skipped: bool = False


def _sign_crossing(coeffs, slopes):
    for i in range(len(coeffs) - 1):
        s0, s1 = slopes[i], slopes[i + 1]
        if s0 == 0.0:
            return float(coeffs[i])
        if s0 * s1 < 0:
            return float(coeffs[i] - s0 * (coeffs[i + 1] - coeffs[i]) / (s1 - s0))
    if slopes and slopes[-1] == 0.0:
        return float(coeffs[-1])
    return None


def mt_threshold_scan(a1_list, a2_list, grid: TorusGrid,
                      lambdas=DEFAULT_LAMBDAS) -> ThresholdScan:
    """Fit deficit slopes over the (a1, a2) lattice for both bubble families.

    Plus family: a single plus bubble (s = 0), predicted slope -2 (a1 - 8 pi).
    Minus family: a single minus bubble (s = 1), predicted slope -(a2 - 4 pi).
    The bubble components are measured once per family; deficits for every
    coefficient pair are linear combinations of them.
    """
    a1_list = np.asarray(a1_list, dtype=float)
    a2_list = np.asarray(a2_list, dtype=float)
    plus_comps = _bubble_components(default_join_config(grid, 1, 1, 0.0), grid, lambdas)
    minus_comps = _bubble_components(default_join_config(grid, 1, 1, 1.0), grid, lambdas)
    plus = [[_energy_sweep("deficit_plus", plus_comps, lambdas, a1, a2, -2.0 * (a1 - 8.0 * np.pi))
             for a2 in a2_list] for a1 in a1_list]
    minus = [[_energy_sweep("deficit_minus", minus_comps, lambdas, a1, a2, -(a2 - 4.0 * np.pi))
              for a2 in a2_list] for a1 in a1_list]

    # skipped cells have NaN slopes, which never cross
    plus_slopes = [float(np.mean([cell.fitted_slope for cell in row])) for row in plus]
    minus_slopes = [float(np.mean([minus[i][j].fitted_slope for i in range(len(a1_list))]))
                    for j in range(len(a2_list))]
    return ThresholdScan(
        a1_list, a2_list, plus, minus,
        _sign_crossing(a1_list, plus_slopes),
        _sign_crossing(a2_list, minus_slopes),
        plus_comps is None,
    )


@dataclass
class AlphaRow:
    """One row of a central-value sweep of the radial solver."""

    alpha: float
    sigma1: float = float("nan")
    sigma2: float = float("nan")
    pohozaev_max_rel: float = float("nan")
    relation: float = float("nan")
    family: str | None = None
    m: int | None = None
    distance: float = float("nan")
    error: str | None = None


def alpha_sweep(alphas, h1: float = 1.0, h2: float = 1.0,
                r_max: float = 1.0, step: float = 1e-4) -> list[AlphaRow]:
    """Shoot for each alpha and report end masses, identity checks and
    classification; per-row failures are recorded and the sweep continues."""

    def run(alpha):
        try:
            prof = shoot(alpha, h1, h2, r_max, step)
        except Exception as exc:  # noqa: BLE001 - row-level fault isolation
            return AlphaRow(alpha=float(alpha), error=f"{type(exc).__name__}: {exc}")
        res, lhs = pohozaev_residual_profile(prof)
        rel = float(np.max(np.abs(res[1:]) / (1.0 + np.abs(lhs[1:]))))
        s1, s2 = float(prof.sigma1[-1]), float(prof.sigma2[-1])
        mp = classify_mass_pair(s1, s2)
        return AlphaRow(
            alpha=float(alpha), sigma1=s1, sigma2=s2, pohozaev_max_rel=rel,
            relation=float(limit_mass_relation(s1, s2)),
            family=mp.family, m=mp.m, distance=mp.distance,
        )

    return [run(alpha) for alpha in alphas]
