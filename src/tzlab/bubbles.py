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

Each mixture M = sum_i w_i q_i^-2, q_i = 1 + lambda_s^2 d(x, p_i)^2, is
sampled as a rational sum: d^2 splits into per-axis squares, so q_i is a
row plus a column and no point costs a square root, log or exp.  With M+
and M- the plus and minus mixtures, e^phi = M+ / sqrt(M-) and
e^{-2 phi} = M- / M+^2 come straight off them, and phi is one log of
e^phi.

Also provides the explicit entire Liouville profile solving
u'' + u'/r + e^u = 0, used as an exact oracle by the radial solver and the
sharp-constant probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .surface import ScalarField, TorusGrid, _axis_offsets, distance_field

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
            raise ValueError(f"s = {self.s!r}: the join parameter must lie in [0, 1]")

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


def _mixture(grid: TorusGrid, lam_s: float, points, out: np.ndarray,
             scratch: np.ndarray) -> np.ndarray | None:
    """Write sum_i w_i / q_i^2, q_i = 1 + lam_s^2 d(x, p_i)^2, into ``out``.

    q_i is (1 + (lam_s dx_i)^2)[None, :] + ((lam_s dy_i)^2)[:, None] from
    the per-axis torus distances, so no square root is taken.  Points of
    zero weight are skipped; ``scratch`` is overwritten.  Returns ``out``,
    or None on a dead side (lam_s = 0), where the mixture is identically
    sum w_i = 1.
    """
    if lam_s == 0.0:
        return None
    first = True
    for w, p in points:
        if w == 0.0:
            continue
        dxv, dyv = _axis_offsets(grid, p)
        np.add(1.0 + (lam_s * dxv) ** 2, ((lam_s * dyv) ** 2)[:, None], out=scratch)
        np.square(scratch, out=scratch)
        if first:
            np.divide(w, scratch, out=out)
            first = False
        else:
            out += np.divide(w, scratch, out=scratch)
    return out


def _bubble_exps(zeta: JoinConfig, lam: float, grid: TorusGrid, work: np.ndarray):
    """(e^phi, e^{-2 phi}) of the bubble phi_{lambda, zeta}, written into two
    of the three n-by-n buffers of ``work``.

    e^phi = M+ / sqrt(M-) and e^{-2 phi} = M- / M+^2, where a dead side's
    mixture is 1 and drops out.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    lam1, lam2 = (1.0 - zeta.s) * lam, zeta.s * lam
    a, b, c = work
    plus = _mixture(grid, lam1, zeta.plus_points, a, c)
    minus = _mixture(grid, lam2, zeta.minus_points, b, c)
    if minus is None:
        return plus, np.divide(1.0, np.square(plus, out=b), out=b)
    np.sqrt(minus, out=c)
    if plus is None:
        return np.divide(1.0, c, out=c), minus
    np.divide(plus, c, out=c)
    return c, np.divide(minus, np.square(plus, out=a), out=b)


def build_bubble(zeta: JoinConfig, lam: float, grid: TorusGrid) -> ScalarField:
    """Sample the two-species bubble phi_{lambda, zeta} on the grid."""
    e_phi, _ = _bubble_exps(zeta, lam, grid, np.empty((3, grid.n, grid.n)))
    return ScalarField(grid, np.log(e_phi))


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
