"""Independent output oracles for the benchmark's operations.

Every check here recomputes its verdict from the emitted files (or the
returned values) with its own numpy/scipy code; nothing calls back into
tzlab.  An operation ends in one of three states:

* ``pass``  -- the program reports success and the oracle agrees;
* ``miss``  -- the program reports a failed check and the oracle agrees
  that the law it checks does not hold (a real numerical miss);
* ``error`` -- the program raised, exited with a usage error, or left no
  readable output.

Separately, ``truthful`` is false when the program's own verdict
contradicts the oracle, e.g. a PASS on a field whose recomputed residual
is too large.  A run is correct only if every operation is truthful.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.fft import fft2, fftfreq, ifft2
from scipy.integrate import solve_ivp

# verify-all's bound on the coercive residual, recomputed from solution.csv
SOLVE_RESIDUAL_BOUND = 1e-7
# slope rule of the paper's sweeps: |fit - pred| <= max(0.5, 10% |pred|)
SLOPE_REL, SLOPE_ABS = 0.10, 0.5
POHOZAEV_BOUND = 1e-6
# RK4 at step 1e-4 reproduces the masses to ~5e-8 at alpha = 12
MASS_TOL = 1e-6
# |alpha - 2 log(1 + h1 e^alpha / 8)| for the Liouville Dirichlet problem
LIOUVILLE_ALPHA_TOL = 1e-8
# |u(1)| of an independent adaptive integration started at the returned alpha
BOUNDARY_TOL = 1e-6
# a flag is only called a contradiction when the recomputed margin is clear
_AMBIGUOUS = 1e-9

WEIGHT_FUNCTIONS = {
    "1": lambda x, y: np.ones_like(x),
    "1+0.5*cos(2*pi*x)": lambda x, y: 1.0 + 0.5 * np.cos(2.0 * np.pi * x),
    "1+0.5*sin(2*pi*y)": lambda x, y: 1.0 + 0.5 * np.sin(2.0 * np.pi * y),
}


@dataclass
class Verdict:
    status: str                     # "pass" | "miss" | "error"
    truthful: bool
    checks: dict = field(default_factory=dict)   # oracle name -> independent result
    note: str = ""

    def __post_init__(self):
        self.truthful = bool(self.truthful)
        self.checks = {name: bool(ok) for name, ok in self.checks.items()}


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _slope_ok(fit: float, pred: float):
    """(verdict, margin) of the paper's slope rule."""
    bound = SLOPE_ABS if pred == 0.0 else max(SLOPE_ABS, SLOPE_REL * abs(pred))
    margin = bound - abs(fit - pred)
    return margin >= 0.0, margin


def _ols_slope(lambdas, values) -> float:
    x = np.log(np.asarray(lambdas, dtype=float) + 1.0)
    y = np.asarray(values, dtype=float)
    xc = x - x.mean()
    return float(np.dot(xc, y - y.mean()) / np.dot(xc, xc))


def _agree(program: bool, independent: bool, margin: float) -> bool:
    return program == independent or abs(margin) <= _AMBIGUOUS * (1.0 + abs(margin))


def _combine(rc: int, independent: dict, agreements: list) -> Verdict:
    """Exit 0 claims every check passed; exit 2 claims at least one failed."""
    passed = all(independent.values())
    truthful = all(agreements) and (passed or rc != 0)
    return Verdict("pass" if rc == 0 and passed else "miss", truthful, independent)


# ------------------------------------------------------------ torus commands


def torus_residual_norm(u, x, y, rho1, rho2, h1, h2) -> float:
    """L2 norm of the mean-field residual, computed from scratch."""
    n = u.shape[0]
    dx2 = 1.0 / (n * n)
    k = 2.0 * np.pi * fftfreq(n, d=1.0 / n)
    k2 = k[None, :] ** 2 + k[:, None] ** 2
    lap = ifft2(-k2 * fft2(u)).real

    def density(expo, w):
        e = w * np.exp(expo - expo.max())
        return e / (e.sum() * dx2)

    w1 = WEIGHT_FUNCTIONS[h1](x, y)
    w2 = WEIGHT_FUNCTIONS[h2](x, y)
    res = -lap - rho1 * (density(u, w1) - 1.0) + rho2 * (density(-2.0 * u, w2) - 1.0)
    return float(np.sqrt(np.sum(res * res) * dx2))


def check_solve(p: dict, outdir: Path, rc: int, summary: dict) -> Verdict:
    n = p["n"]
    path = outdir / "solution.csv"
    with open(path) as fh:
        header = fh.readline().strip()
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if header != "x,y,u" or data.shape != (n * n, 3):
        return Verdict("error", False, note="solution.csv has the wrong shape")
    x, y, u = (data[:, i].reshape(n, n) for i in range(3))
    nodes = np.arange(n) / n
    if not (np.allclose(x, nodes[None, :], atol=1e-12) and np.allclose(y, nodes[:, None], atol=1e-12)):
        return Verdict("error", False, note="solution.csv is not on the grid nodes")
    resid = torus_residual_norm(u, x, y, p["rho1"], p["rho2"], p["h1"], p["h2"])
    ok = resid <= SOLVE_RESIDUAL_BOUND
    indep = {"solve.residual_le_1e-7": ok}
    return _combine(rc, indep, [ok or not summary["passed"]])


def check_asymptotics(p: dict, outdir: Path, rc: int, summary: dict) -> Verdict:
    k, l, s = p["k"], p["l"], p["s"]
    w1, w2 = (1.0 if s < 1.0 else 0.0), (1.0 if s > 0.0 else 0.0)
    predictions = {
        "gradient": 16.0 * k * np.pi * w1 + 4.0 * l * np.pi * w2,
        "log_int_plus": -2.0 * w1 + 2.0 * w2,
        "log_int_minus": 8.0 * w1 - 2.0 * w2,
        "mean": -4.0 * w1 + 2.0 * w2,
    }
    _, rows = _read_csv(outdir / "asymptotics.csv")
    series: dict[str, list] = {}
    for name, lam, val in rows:
        series.setdefault(name, []).append((float(lam), float(val)))
    if set(series) != set(predictions):
        return Verdict("error", False, note="asymptotics.csv misses a component")
    indep, agree = {}, []
    for name, pred in predictions.items():
        lams, vals = zip(*series[name])
        ok, margin = _slope_ok(_ols_slope(lams, vals), pred)
        indep[f"asymptotics.{name}_slope"] = ok
        agree.append(_agree(summary["checks"][f"{name}_slope"], ok, margin))
    return _combine(rc, indep, agree)


def check_bubble_sweep(p: dict, outdir: Path, rc: int, summary: dict) -> Verdict:
    k, l, s = p["k"], p["l"], p["s"]
    w1, w2 = (1.0 if s < 1.0 else 0.0), (1.0 if s > 0.0 else 0.0)
    pred = (16.0 * k * np.pi - 2.0 * p["rho1"]) * w1 + (4.0 * l * np.pi - p["rho2"]) * w2
    _, rows = _read_csv(outdir / "bubble-sweep.csv")
    lams, vals = zip(*((float(a), float(b)) for a, b in rows))
    ok, margin = _slope_ok(_ols_slope(lams, vals), pred)
    indep = {"bubble_sweep.slope": ok}
    return _combine(rc, indep,
                    [_agree(summary["checks"]["slope_matches"], ok, margin)])


def _crossing(coeffs, slopes):
    for i in range(len(coeffs) - 1):
        s0, s1 = slopes[i], slopes[i + 1]
        if s0 == 0.0:
            return coeffs[i]
        if s0 * s1 < 0:
            return coeffs[i] - s0 * (coeffs[i + 1] - coeffs[i]) / (s1 - s0)
    return coeffs[-1] if slopes and slopes[-1] == 0.0 else None


def check_mt_scan(p: dict, outdir: Path, rc: int, summary: dict) -> Verdict:
    header, rows = _read_csv(outdir / "mt-scan.csv")
    col = {name: i for i, name in enumerate(header)}
    cells_ok, agree = True, []
    plus: dict[float, list] = {}
    minus: dict[float, list] = {}
    for row in rows:
        a1, a2 = float(row[col["a1"]]), float(row[col["a2"]])
        fit = float(row[col["fitted_slope"]])
        if row[col["family"]] == "plus":
            pred = -2.0 * (a1 - 8.0 * np.pi)
            plus.setdefault(a1, []).append(fit)
        else:
            pred = -(a2 - 4.0 * np.pi)
            minus.setdefault(a2, []).append(fit)
        if not math.isclose(float(row[col["predicted_slope"]]), pred, rel_tol=1e-12, abs_tol=1e-12):
            return Verdict("error", False, note="mt-scan.csv predicted slope disagrees with the law")
        ok, margin = _slope_ok(fit, pred)
        agree.append(_agree(row[col["pass"]] == "true", ok, margin))
        cells_ok &= ok
    indep = {"mt_scan.all_cells": cells_ok}
    for name, fam, sharp in (("plus", plus, 8.0 * np.pi), ("minus", minus, 4.0 * np.pi)):
        coeffs = sorted(fam)
        cross = _crossing(coeffs, [float(np.mean(fam[c])) for c in coeffs])
        cell = max(np.diff(coeffs)) if len(coeffs) > 1 else 1.0
        ok = cross is not None and abs(cross - sharp) <= cell
        indep[f"mt_scan.{name}_crossing"] = ok
        agree.append(summary["checks"][f"{name}_crossing_at_sharp"] == ok)
    agree.append(summary["checks"]["all_cells_pass"] == cells_ok)
    return _combine(rc, indep, agree)


# ------------------------------------------------------------ radial problems


def radial_reference(alpha: float, h1: float, h2: float, r_max: float = 1.0):
    """(u, u', sigma1, sigma2) at r_max by adaptive DOP853 from a series start."""
    ea, ema = math.exp(alpha), math.exp(-2.0 * alpha)
    c = h1 * ea - h2 * ema
    b = h1 * ea + 2.0 * h2 * ema
    r0 = 1e-4
    y0 = [alpha - c * r0**2 / 4.0 + b * c * r0**4 / 64.0,
          -c * r0 / 2.0 + b * c * r0**3 / 16.0,
          h1 * ea * r0**2 / 2.0, h2 * ema * r0**2 / 2.0]

    def rhs(r, y):
        eu, em = math.exp(y[0]), math.exp(-2.0 * y[0])
        return [y[1], -y[1] / r - h1 * eu + h2 * em, h1 * eu * r, h2 * em * r]

    sol = solve_ivp(rhs, (r0, r_max), y0, method="DOP853", rtol=1e-11, atol=1e-12)
    return sol.y[:, -1]


def liouville_mass(alpha: float, h1: float) -> float:
    """sigma1(1) of u'' + u'/r + h1 e^u = 0: 4 mu^2 / (1 + mu^2), mu^2 = h1 e^alpha / 8."""
    mu2 = h1 * math.exp(alpha) / 8.0
    return 4.0 * mu2 / (1.0 + mu2)


def check_radial_sweep(p: dict, outdir: Path, rc: int, summary: dict) -> Verdict:
    header, rows = _read_csv(outdir / "radial-sweep.csv")
    col = {name: i for i, name in enumerate(header)}
    if [float(r[col["alpha"]]) for r in rows] != list(p["alphas"]):
        return Verdict("error", False, note="radial-sweep.csv rows do not match the alphas")
    h1, h2 = p["h1"], p["h2"]
    masses_ok, poho_ok, computed = True, True, True
    for row in rows:
        if row[col["error"]]:
            computed = False
            continue
        alpha = float(row[col["alpha"]])
        s1, s2 = float(row[col["sigma1"]]), float(row[col["sigma2"]])
        if h2 == 0.0:
            masses_ok &= abs(s1 - liouville_mass(alpha, h1)) <= MASS_TOL and s2 == 0.0
        else:
            _, _, r1, r2 = radial_reference(alpha, h1, h2)
            masses_ok &= abs(s1 - r1) <= MASS_TOL and abs(s2 - r2) <= MASS_TOL
        poho_ok &= float(row[col["pohozaev_max_rel"]]) < POHOZAEV_BOUND
    name = "radial.liouville_mass" if h2 == 0.0 else "radial.reference_mass"
    indep = {name: masses_ok and computed, "radial.pohozaev_small": poho_ok and computed}
    agree = [summary["checks"]["all_rows_computed"] == computed,
             summary["checks"]["pohozaev_small"] == (poho_ok and computed)]
    return _combine(rc, indep, agree)


def check_dirichlet(p: dict, alpha: float) -> Verdict:
    h1, h2 = p["h1"], p["h2"]
    if h2 == 0.0:
        ok = abs(alpha - 2.0 * math.log1p(h1 * math.exp(alpha) / 8.0)) <= LIOUVILLE_ALPHA_TOL
        name = "dirichlet.liouville_alpha"
    else:
        ok = abs(radial_reference(alpha, h1, h2)[0]) <= BOUNDARY_TOL
        name = "dirichlet.reference_boundary"
    # dirichlet_alpha returning at all is its claim of a solution
    return Verdict("pass" if ok else "miss", ok, {name: ok})


CLI_CHECKS = {
    "solve": check_solve,
    "asymptotics": check_asymptotics,
    "bubble-sweep": check_bubble_sweep,
    "mt-scan": check_mt_scan,
    "radial-sweep": check_radial_sweep,
}


def check_cli(kind: str, params: dict, outdir: Path, rc: int) -> Verdict:
    """Verdict of one CLI operation from its exit code and emitted files."""
    if rc not in (0, 2):
        return Verdict("error", True, note=f"exit code {rc}")
    try:
        summary = json.loads((outdir / "summary.json").read_text())
        return CLI_CHECKS[kind](params, outdir, rc, summary)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return Verdict("error", False, note=f"unreadable output: {type(exc).__name__}: {exc}")
