"""Concentrating test functions (bubbles) on the torus.

The two-species family is parametrized by a point of the topological join
of weighted point configurations: plus points {(t_i, x_i)}, minus points
{(s_j, y_j)} and a join parameter s in [0, 1].  With lambda1 = (1-s)*lambda
and lambda2 = s*lambda the field is

    phi(x) =      log sum_i t_i (1 + lambda1^2 d(x, x_i)^2)^-2
           - 1/2 log sum_j s_j (1 + lambda2^2 d(x, y_j)^2)^-2,

d being the flat-torus distance.  At s = 0 the minus term is identically
zero (so the field does not depend on the minus points), and symmetrically
at s = 1: the join equivalence is built into the formula.

Also provides the explicit entire Liouville profile solving
u'' + u'/r + e^u = 0, used as an exact oracle by the radial solver and the
sharp-constant probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .surface import ScalarField, TorusGrid, distance_field

_WEIGHT_TOL = 1e-12


def _validate_points(points, label):
    pts = tuple((float(w), (float(p[0]), float(p[1]))) for w, p in points)
    if not pts:
        raise ValueError(f"{label} must contain at least one weighted point")
    weights = np.array([w for w, _ in pts])
    if np.any(weights < 0):
        raise ValueError(f"{label} weights must be nonnegative")
    if abs(weights.sum() - 1.0) > _WEIGHT_TOL:
        raise ValueError(f"{label} weights must sum to 1")
    return pts


@dataclass(frozen=True, eq=False)
class JoinConfig:
    """A join point: weighted plus/minus point sets and the join parameter.

    Equality respects the join relation: two configs with s = 0 compare
    equal whenever their plus sides agree (the minus side is quotiented
    out), and symmetrically at s = 1.
    """

    plus_points: tuple = field()
    minus_points: tuple = field()
    s: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "plus_points", _validate_points(self.plus_points, "plus_points"))
        object.__setattr__(self, "minus_points", _validate_points(self.minus_points, "minus_points"))
        object.__setattr__(self, "s", float(self.s))
        if not 0.0 <= self.s <= 1.0:
            raise ValueError("join parameter s must lie in [0, 1]")

    @property
    def k(self) -> int:
        return len(self.plus_points)

    @property
    def l(self) -> int:
        return len(self.minus_points)

    def __eq__(self, other):
        if not isinstance(other, JoinConfig):
            return NotImplemented
        if self.s != other.s:
            return False
        if self.s == 0.0:
            return self.plus_points == other.plus_points
        if self.s == 1.0:
            return self.minus_points == other.minus_points
        return (
            self.plus_points == other.plus_points
            and self.minus_points == other.minus_points
        )


def lambda_split(s: float, lam: float) -> tuple[float, float]:
    """Split the concentration parameter: ((1-s)*lambda, s*lambda)."""
    if not 0.0 <= s <= 1.0:
        raise ValueError("join parameter s must lie in [0, 1]")
    return (1.0 - s) * lam, s * lam


def _log_mixture(grid: TorusGrid, lam_s: float, points) -> np.ndarray:
    """log sum_i w_i (1 + lam_s^2 d(x, p_i)^2)^-2, numerically via logsumexp.

    Only points of nonzero weight contribute a term.  With one such point
    its log term is the result: the logsumexp would add log(1) = 0.0 to it,
    which is exact.  With several, dropping the zero-weight terms drops only
    + 0.0 from the sum, so the result is the same to the bit.
    """
    if lam_s == 0.0:
        # dead side of the join: the mixture is identically sum w_i = 1
        return np.zeros((grid.n, grid.n))
    rows = [np.log(w) - 2.0 * np.log1p((lam_s * distance_field(grid, p)) ** 2)
            for w, p in points if w != 0.0]
    if len(rows) == 1:
        return rows[0]
    logs = np.stack(rows)
    peak = logs.max(axis=0)
    return peak + np.log(np.exp(logs - peak).sum(axis=0))


def build_bubble(zeta: JoinConfig, lam: float, grid: TorusGrid) -> ScalarField:
    """Sample the two-species bubble phi_{lambda, zeta} on the grid."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    lam1, lam2 = lambda_split(zeta.s, lam)
    plus = _log_mixture(grid, lam1, zeta.plus_points)
    minus = _log_mixture(grid, lam2, zeta.minus_points)
    return ScalarField(grid, plus - 0.5 * minus)


def liouville_bubble(alpha: float, where, center=(0.5, 0.5)):
    """Explicit radial Liouville profile u(r) = alpha - 2 log(1 + (e^alpha/8) r^2).

    Solves u'' + u'/r + e^u = 0 exactly with u(0) = alpha, u'(0) = 0.
    ``where`` is either an array of radii (returns an array) or a TorusGrid
    (returns the profile as a field of the torus distance to ``center``).
    """
    mu2 = np.exp(alpha) / 8.0
    if isinstance(where, TorusGrid):
        r = distance_field(where, center)
        return ScalarField(where, alpha - 2.0 * np.log1p(mu2 * r**2))
    r = np.asarray(where, dtype=np.float64)
    return alpha - 2.0 * np.log1p(mu2 * r**2)


def liouville_mass(alpha: float, r: float) -> float:
    """Accumulated mass of the Liouville profile: int_0^r e^u s ds = 4 mu^2 r^2 / (1 + mu^2 r^2).

    Tends to 4 as r -> infinity or alpha -> infinity: one quantum of the
    blow-up mass lattice.
    """
    mu2 = np.exp(alpha) / 8.0
    return float(4.0 * mu2 * r**2 / (1.0 + mu2 * r**2))
