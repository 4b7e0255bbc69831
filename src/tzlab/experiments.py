"""Lambda sweeps and slope fits turning asymptotic laws into numbers.

A join bubble with k plus points and l minus points at join parameter s
(lambda1 = (1-s) lambda, lambda2 = s lambda) has components linear in
log(lambda) to leading order.  Each live side of the join, plus for
s < 1 and minus for s > 0, adds one row of slopes in log lambda1 or
log lambda2:

                              plus side   minus side
    1/2 int |grad phi|^2        16 k pi       4 l pi
    log int e^phi                  -2            2
    log int e^{-2 phi}              8           -2
    int phi                        -4            2

(all up to O(1), with the logs delta-shifted so the s = 0, 1 endpoints
stay finite; we fix delta = 1).  Every prediction comes from this table,
``_side_slopes``: a component's slope is its column summed over the live
sides, and J_rho's is J's formula (``energy._j_from_parts``) on each live
row, summed.  A row's J slope changes sign at rho = (8 k pi, 4 l pi); at
unit weights, where J_rho is the Moser-Trudinger deficit, the single
bubbles locate the sharp constants 8 pi and 4 pi.  Every sweep measures
its bubbles through one primitive, ``_bubble_components``;
``_energy_sweep`` assembles J_rho from its columns.  The primitive reads
e^phi and e^{-2 phi} off the bubble's rational mixtures (see ``bubbles``),
so a lambda row takes one log and no exp, and the rows run one after
another in one three-buffer workspace and share one half-spectrum buffer
and one power buffer for the Dirichlet integral.  Sweeps fit ordinary
least squares of measured values against log(lambda + 1) and compare
with these predictions.

Quadrature adequacy: a bubble core spans ~1/lambda, so sweeps require
lambda * dx <= 2; above that the result is flagged skipped rather than
silently mismeasured.  Default point configurations sit at quarter-cell
offsets from the grid nodes, which cancels the leading quadrature aliases
of the sharp core (the first reciprocal-lattice shell contributes with
phase +-i and sums to zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bubbles import JoinConfig, _bubble_exps
from .energy import Params, _checked_integral, _j_from_parts
from .surface import ScalarField, TorusGrid, _dirichlet, _dirichlet_buffers, integrate

DEFAULT_LAMBDAS = (25.0, 50.0, 100.0, 200.0, 400.0)

REL_SLOPE_BOUND = 0.10
ABS_SLOPE_BOUND = 0.5

_MAX_LAMBDA_DX = 2.0


def fit_slope(lambdas, values) -> float:
    """Least-squares slope of values against log(lambda + 1)."""
    x = np.log(np.asarray(lambdas, dtype=float) + 1.0)
    y = np.asarray(values, dtype=float)
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


def grid_adequate(grid: TorusGrid, lambdas) -> bool:
    """Bubble cores must span a few cells: max(lambda) * dx <= 2."""
    return max(lambdas) * grid.dx <= _MAX_LAMBDA_DX


@dataclass
class SweepResult:
    """Fitted-versus-predicted slope of one value family over lambda.

    ``bound`` is the tolerance on |fitted - predicted|:
    max(ABS_SLOPE_BOUND, REL_SLOPE_BOUND * |predicted|).
    """

    name: str
    lambdas: np.ndarray
    values: np.ndarray
    fitted_slope: float
    predicted_slope: float
    rel_error: float
    bound: float
    passed: bool
    skipped: bool = False

    @classmethod
    def from_values(cls, name, lambdas, values, predicted):
        """Fit and judge values against the slope bound; values None marks a
        skipped sweep.  A sweep passes only with both slopes finite: an
        overflowed prediction has an infinite bound that any fit would meet."""
        lambdas = np.asarray(lambdas, dtype=float)
        # one lambda would fit 0/0
        if lambdas.size < 2 or np.any(np.diff(lambdas) <= 0):
            raise ValueError("lambdas must be at least two, strictly increasing")
        bound = max(ABS_SLOPE_BOUND, REL_SLOPE_BOUND * abs(float(predicted)))
        if values is None:
            return cls(name, lambdas, np.full_like(lambdas, np.nan),
                       float("nan"), float(predicted), float("nan"), bound, False, True)
        values = np.asarray(values, dtype=float)
        fitted = fit_slope(lambdas, values)
        rel = abs(fitted - predicted) / abs(predicted) if predicted != 0.0 else abs(fitted)
        ok = bool(np.isfinite(fitted) and np.isfinite(predicted)
                  and abs(fitted - predicted) <= bound)
        return cls(name, lambdas, values, fitted, float(predicted), rel, bound, ok)


def quarter_offset_point(grid: TorusGrid, x: float, y: float) -> tuple[float, float]:
    """Snap a point to the nearest node, then shift by a quarter cell."""
    q = 0.25 * grid.dx
    n = grid.n
    return (round(x * n) % n) / n + q, (round(y * n) % n) / n + q


def default_join_config(grid: TorusGrid, k: int = 1, l: int = 1, s: float = 0.5) -> JoinConfig:
    """Symmetric well-separated k+l configuration with anti-aliased centers.

    Raises ValueError, its message opening with the parameter at fault,
    unless 1 <= k, l <= 4, k + l <= 4 when 0 < s < 1, and (JoinConfig's
    rule) 0 <= s <= 1.
    """
    plus_sites = [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.5, 0.5)]
    minus_sites = [(0.75, 0.75), (0.25, 0.75), (0.75, 0.25), (0.5, 0.5)]
    for name, count, sites in (("k", k, plus_sites), ("l", l, minus_sites)):
        if not 1 <= count <= len(sites):
            raise ValueError(f"{name} = {count!r}: at least 1 and at most {len(sites)} "
                             f"points per species in the default layout")
    if k + l > 4 and s not in (0.0, 1.0):
        # the two site lists start overlapping beyond 2+2
        raise ValueError(f"k + l = {k + l}: the default layout supports at most 2 plus "
                         f"and 2 minus points together unless s is 0 or 1")
    plus = tuple((1.0 / k, quarter_offset_point(grid, *plus_sites[i])) for i in range(k))
    minus = tuple((1.0 / l, quarter_offset_point(grid, *minus_sites[j])) for j in range(l))
    return JoinConfig(plus, minus, s)


def _side_slopes(zeta: JoinConfig) -> list[tuple[float, float, float, float]]:
    """The slope table: one row of component slopes per live side of zeta."""
    sides = ((zeta.s < 1.0, (16.0 * zeta.k * np.pi, -2.0, 8.0, -4.0)),
             (zeta.s > 0.0, (4.0 * zeta.l * np.pi, 2.0, -2.0, 2.0)))
    return [row for live, row in sides if live]


def _bubble_components(zeta: JoinConfig, grid: TorusGrid, lambdas,
                       h1=1.0, h2=1.0) -> np.ndarray | None:
    """One row per lambda: (1/2 int |grad phi|^2, log int h1 e^phi,
    log int h2 e^{-2 phi}, mean phi) of the bubble phi; None when the grid
    cannot resolve the cores (see grid_adequate)."""
    if not grid_adequate(grid, lambdas):
        return None
    dx2 = grid.dx**2
    work = np.empty((3, grid.n, grid.n))
    spectrum, power = _dirichlet_buffers(grid)
    rows = []
    for lam in lambdas:
        e_phi, e_minus_2phi = _bubble_exps(zeta, lam, grid, work)
        log_plus = _log_weighted_integral(e_phi, h1, dx2)
        log_minus = _log_weighted_integral(e_minus_2phi, h2, dx2)
        phi = ScalarField(grid, np.log(e_phi, out=e_phi))
        gradient = 0.5 * _dirichlet(phi.values, grid, spectrum, power)
        rows.append((gradient, log_plus, log_minus, integrate(phi)))
    return np.array(rows)


def _log_weighted_integral(density: np.ndarray, weight, dx2: float) -> float:
    """log int weight * density: a sum of products with a weight field, a
    plain sum times a constant weight.  The sum of products is numpy's own
    einsum loop, not a BLAS dot, whose thread split (and so whose last
    digits) would follow the machine's core count."""
    if np.ndim(weight):
        total = np.einsum("ij,ij->", weight, density) * dx2
    else:
        total = weight * density.sum() * dx2
    return float(np.log(_checked_integral(total)))


def _energy_sweep(name: str, zeta: JoinConfig, comps, lambdas, a1: float,
                  a2: float) -> SweepResult:
    """J_rho at rho = (a1, a2) along zeta's family from its component rows
    (at unit weights the deficit); skipped when comps is None.  The
    predicted slope is J's formula on each live row of the slope table."""
    predicted = sum(_j_from_parts(*row, a1, a2) for row in _side_slopes(zeta))
    values = None
    if comps is not None:
        values = _j_from_parts(*comps.T, a1, a2)
    return SweepResult.from_values(name, lambdas, values, predicted)


def bubble_energy_sweep(zeta: JoinConfig, p: Params, lambdas=DEFAULT_LAMBDAS) -> SweepResult:
    """J_rho along the bubble family of zeta."""
    comps = _bubble_components(zeta, p.grid, lambdas, p.h1.values, p.h2.values)
    return _energy_sweep("energy", zeta, comps, lambdas, p.rho1, p.rho2)


def component_asymptotics_sweep(zeta: JoinConfig, grid: TorusGrid,
                                lambdas=DEFAULT_LAMBDAS) -> dict[str, SweepResult]:
    """Four component sweeps: gradient, log int e^phi, log int e^{-2 phi}, mean."""
    names = ("gradient", "log_int_plus", "log_int_minus", "mean")
    predictions = [sum(column) for column in zip(*_side_slopes(zeta))]
    comps = _bubble_components(zeta, grid, lambdas)
    columns = [None] * len(names) if comps is None else comps.T
    return {name: SweepResult.from_values(name, lambdas, column, pred)
            for name, pred, column in zip(names, predictions, columns)}


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
    """Fit deficit slopes over the (a1, a2) lattice for both bubble families:
    a single plus bubble (s = 0) and a single minus bubble (s = 1).  The
    bubble components are measured once per family; deficits for every
    coefficient pair are linear combinations of them.
    """
    a1_list = np.asarray(a1_list, dtype=float)
    a2_list = np.asarray(a2_list, dtype=float)
    cells = {}
    for family, s in (("plus", 0.0), ("minus", 1.0)):
        zeta = default_join_config(grid, 1, 1, s)
        comps = _bubble_components(zeta, grid, lambdas)
        cells[family] = [[_energy_sweep(f"deficit_{family}", zeta, comps, lambdas, a1, a2)
                          for a2 in a2_list] for a1 in a1_list]
    plus, minus = cells["plus"], cells["minus"]

    # skipped cells have NaN slopes, which never cross
    plus_slopes = [float(np.mean([cell.fitted_slope for cell in row])) for row in plus]
    minus_slopes = [float(np.mean([minus[i][j].fitted_slope for i in range(len(a1_list))]))
                    for j in range(len(a2_list))]
    return ThresholdScan(
        a1_list, a2_list, plus, minus,
        _sign_crossing(a1_list, plus_slopes),
        _sign_crossing(a2_list, minus_slopes),
        not grid_adequate(grid, lambdas),
    )
