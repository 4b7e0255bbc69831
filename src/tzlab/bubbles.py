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
row plus a column and no point costs a square root, log or exp.  The
per-axis distances depend on the points alone (``_join_sides``), so a
lambda sweep computes them once.  With M+ and M- the plus and minus
mixtures, e^phi = M+ / sqrt(M-); a side of one point of weight 1 enters
through its q alone (M+ = q+^-2, M-^{-1/2} = q-), with no square root.
e^{-2 phi} = (e^phi)^-2 on every join, and phi is one log of e^phi.

Also provides the explicit entire Liouville profile solving
u'' + u'/r + e^u = 0 at given radii, the exact oracle of the radial
solver.  The sharp-constant probes sample it on the torus with
``build_bubble`` (see ``liouville_bubble``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .surface import ScalarField, TorusGrid, _axis_offsets

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


def _join_sides(zeta: JoinConfig, grid: TorusGrid):
    """Both sides of zeta, plus then minus, as (lambda factor, points): the
    factor is 1 - s or s, and each point of nonzero weight is (w, dx, dy)
    with its per-axis torus distances from the nodes (``_axis_offsets``),
    so a sweep wraps and folds them once, not once per lambda."""
    return tuple(
        (factor, tuple((w, *_axis_offsets(grid, p)) for w, p in points if w != 0.0))
        for factor, points in ((1.0 - zeta.s, zeta.plus_points), (zeta.s, zeta.minus_points))
    )


def _q(lam_s: float, dxv: np.ndarray, dyv: np.ndarray, out: np.ndarray) -> np.ndarray:
    """q = (1 + (lam_s dx)^2) + (lam_s dy)^2 into ``out``: the column
    (lam_s dy)^2 copied into every column, then the row added in place,
    which costs less than a two-dimensional broadcast and, the sum
    commuting, gives its bits."""
    np.copyto(out, ((lam_s * dyv) ** 2)[:, None])
    out += 1.0 + (lam_s * dxv) ** 2
    return out


def _mixture(lam_s: float, points, out: np.ndarray, scratch: np.ndarray) -> np.ndarray | None:
    """Write sum_i w_i / q_i^2, q_i = 1 + lam_s^2 d(x, p_i)^2, into ``out``.

    ``points`` are one side of ``_join_sides``, (w, dx, dy) of nonzero
    weight; q_i is a row plus a column (``_q``), so no square root is
    taken.  ``scratch`` is overwritten.  Returns ``out``, or None on a dead
    side (lam_s = 0), where the mixture is identically sum w_i = 1.
    """
    if lam_s == 0.0:
        return None
    for i, (w, dxv, dyv) in enumerate(points):
        np.square(_q(lam_s, dxv, dyv, scratch), out=scratch)
        if i == 0:
            np.divide(w, scratch, out=out)
        else:
            out += np.divide(w, scratch, out=scratch)
    return out


def _one_point(lam_s: float, points) -> bool:
    """A live side of one point of weight 1, whose mixture is q^-2."""
    return lam_s != 0.0 and len(points) == 1 and points[0][0] == 1.0


def _bubble_exps(sides, lam: float, work: np.ndarray):
    """(e^phi, e^{-2 phi}) of the bubble phi_{lambda, zeta}, zeta's sides
    given by ``_join_sides``, written into two of the three n-by-n buffers
    of ``work``.

    e^phi = M+ / sqrt(M-), where a dead side's mixture is 1 and drops out.
    A live side of one point of weight 1 enters through its q alone:
    M+ = q+^-2 and M-^{-1/2} = q-, so e^phi is q- / q+^2 or M+ q-, with no
    square root.  e^{-2 phi} = (e^phi)^-2 on every join.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    a, b, c = work
    (f1, plus_points), (f2, minus_points) = sides
    num, den = [], []  # e^phi = prod(num) / prod(den), one factor per live side
    lam1, lam2 = f1 * lam, f2 * lam
    if _one_point(lam1, plus_points):
        den.append(np.square(_q(lam1, *plus_points[0][1:], a), out=a))
    elif (plus := _mixture(lam1, plus_points, a, c)) is not None:
        num.append(plus)
    if _one_point(lam2, minus_points):
        num.append(_q(lam2, *minus_points[0][1:], b))
    elif (minus := _mixture(lam2, minus_points, b, c)) is not None:
        den.append(np.sqrt(minus, out=b))
    if not den:
        e_phi = num[0] if len(num) == 1 else np.multiply(*num, out=c)
    else:
        bottom = den[0] if len(den) == 1 else np.multiply(*den, out=c)
        e_phi = np.divide(num[0] if num else 1.0, bottom, out=c)
    spare = a if e_phi is b else b
    return e_phi, np.divide(1.0, np.square(e_phi, out=spare), out=spare)


def build_bubble(zeta: JoinConfig, lam: float, grid: TorusGrid) -> ScalarField:
    """Sample the two-species bubble phi_{lambda, zeta} on the grid."""
    e_phi, _ = _bubble_exps(_join_sides(zeta, grid), lam, np.empty((3, grid.n, grid.n)))
    return ScalarField(grid, np.log(e_phi))


def liouville_bubble(alpha: float, r):
    """Explicit radial Liouville profile u(r) = alpha - 2 log(1 + (e^alpha/8) r^2).

    Solves u'' + u'/r + e^u = 0 exactly with u(0) = alpha, u'(0) = 0, at
    the array of radii ``r``.  On the torus, about c, the same profile is
    build_bubble(JoinConfig(((1, c),), ((1, c),), 0), sqrt(e^alpha / 8), grid) + alpha.
    """
    mu2 = np.exp(alpha) / 8.0
    r = np.asarray(r, dtype=np.float64)
    return alpha - 2.0 * np.log1p(mu2 * r**2)


def liouville_mass(alpha: float, r: float) -> float:
    """Accumulated mass of the Liouville profile: int_0^r e^u s ds = 4 mu^2 r^2 / (1 + mu^2 r^2).

    Tends to 4 as r -> infinity or alpha -> infinity: one quantum of the
    blow-up mass lattice.
    """
    mu2 = np.exp(alpha) / 8.0
    return float(4.0 * mu2 * r**2 / (1.0 + mu2 * r**2))
