"""Radial shooting solver for the Tzitzeica equation on the disk.

Integrates

    u'' + u'/r + h1 e^u - h2 e^{-2u} = 0,   u(0) = alpha, u'(0) = 0,

with constant coefficients h1 > 0, h2 >= 0 (h2 = 0 is the Liouville
equation, whose solution is known in closed form).  Alongside u the local
masses

    sigma1(r) = int_0^r h1 e^{u} s ds,   sigma2(r) = int_0^r h2 e^{-2u} s ds

are accumulated with the same integrator, so the exact identities of the
continuum equation -- r u' + sigma1 - sigma2 = 0 and the constant-h
Pohozaev identity

    2 pi (2 sigma1(r) + sigma2(r))
        = pi r^2 u'(r)^2 + 2 pi r^2 (h1 e^{u(r)} + h2 e^{-2u(r)} / 2)

-- hold along computed trajectories up to integrator order and serve as
correctness oracles.  The integrator is classical RK4 with a fixed step;
the r = 0 singularity of u'/r is bypassed by a fourth-order series start
over the first few steps.  Fixed stepping keeps convergence-order
measurements clean.

Blow-up limits of such profiles have quantized masses: the admissible
pairs lie on the hyperbola (sigma1 - sigma2)^2 = 4 (sigma1 + sigma2/2) in
one of two integer families, and this module generates and classifies
against that lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Series start spans this many fixed steps; keeps the RK4 stages away from
# the coordinate singularity without hurting the h^4 error scaling.
_SERIES_STEPS = 3

_U_MIN, _U_MAX = -700.0, 350.0


class StepTooLarge(ValueError):
    """Step too coarse for the concentration scale set by alpha."""


class TrajectoryOverflow(RuntimeError):
    """u left the representable window [-700, 350] during integration."""


@dataclass
class RadialProfile:
    """Arrays (r, u, u', sigma1, sigma2) of one shooting trajectory."""

    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    alpha: float
    h1: float
    h2: float
    step: float

    @property
    def r_max(self) -> float:
        return float(self.r[-1])


def shoot(alpha: float, h1: float = 1.0, h2: float = 1.0,
          r_max: float = 1.0, step: float = 1e-4) -> RadialProfile:
    """Integrate the radial equation from the center out to r_max.

    Requires step * exp(max(alpha, -2*alpha)/2) <= 0.1 so the step
    resolves the concentration scale e^{-alpha/2} of a forming bubble.
    """
    if h1 <= 0:
        raise ValueError("h1 must be positive")
    if h2 < 0:
        raise ValueError("h2 must be nonnegative")
    if r_max <= 0 or step <= 0:
        raise ValueError("r_max and step must be positive")
    if not _U_MIN <= alpha <= _U_MAX:
        raise TrajectoryOverflow(f"alpha={alpha} outside [{_U_MIN}, {_U_MAX}]")
    if step * math.exp(max(alpha, -2.0 * alpha) / 2.0) > 0.1:
        raise StepTooLarge(
            "step too large for this alpha: need step * exp(max(alpha, -2 alpha)/2) <= 0.1"
        )
    if r_max < (_SERIES_STEPS + 1) * step:
        raise ValueError("r_max must exceed the series-start region (4 steps)")

    h = float(step)
    ea, ema = math.exp(alpha), math.exp(-2.0 * alpha)
    c = h1 * ea - h2 * ema          # forcing at the center
    b = h1 * ea + 2.0 * h2 * ema    # its derivative in u

    # series through r^4 (u) and r^6 (masses); exact identities hold term by term
    def series(r):
        u = alpha - c * r**2 / 4.0 + b * c * r**4 / 64.0
        w = -c * r / 2.0 + b * c * r**3 / 16.0
        s1 = h1 * ea * (r**2 / 2.0 - c * r**4 / 16.0 + (c * c / 32.0 + b * c / 64.0) * r**6 / 6.0)
        s2 = h2 * ema * (r**2 / 2.0 + c * r**4 / 8.0 + (c * c / 8.0 - b * c / 32.0) * r**6 / 6.0)
        return u, w, s1, s2

    n_total = int(round(r_max / h))
    rs = np.arange(n_total + 1) * h
    out = np.empty((n_total + 1, 4))
    out[0] = (alpha, 0.0, 0.0, 0.0)
    for j in range(1, _SERIES_STEPS + 1):
        out[j] = series(rs[j])

    def f(r, u, w, s1, s2):
        eu = math.exp(u)
        em = math.exp(-2.0 * u)
        return (w, -w / r - h1 * eu + h2 * em, h1 * eu * r, h2 * em * r)

    u, w, s1, s2 = out[_SERIES_STEPS]
    r = rs[_SERIES_STEPS]
    for j in range(_SERIES_STEPS + 1, n_total + 1):
        k1 = f(r, u, w, s1, s2)
        k2 = f(r + h / 2, u + h / 2 * k1[0], w + h / 2 * k1[1], s1 + h / 2 * k1[2], s2 + h / 2 * k1[3])
        k3 = f(r + h / 2, u + h / 2 * k2[0], w + h / 2 * k2[1], s1 + h / 2 * k2[2], s2 + h / 2 * k2[3])
        k4 = f(r + h, u + h * k3[0], w + h * k3[1], s1 + h * k3[2], s2 + h * k3[3])
        u += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        w += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        s1 += h / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        s2 += h / 6 * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
        r = rs[j]
        if not _U_MIN <= u <= _U_MAX:
            raise TrajectoryOverflow(f"u({r:.6g}) = {u:.6g} left [{_U_MIN}, {_U_MAX}]")
        out[j] = (u, w, s1, s2)

    return RadialProfile(
        r=rs, u=out[:, 0], du=out[:, 1], sigma1=out[:, 2], sigma2=out[:, 3],
        alpha=alpha, h1=h1, h2=h2, step=h,
    )


def pohozaev_residual_profile(p: RadialProfile) -> tuple[np.ndarray, np.ndarray]:
    """LHS - RHS of the Pohozaev identity, and the LHS, at every node.

    The residual is O(step^4) along RK4 trajectories.
    """
    lhs = 2.0 * np.pi * (2.0 * p.sigma1 + p.sigma2)
    rhs = np.pi * p.r**2 * p.du**2 + 2.0 * np.pi * p.r**2 * (
        p.h1 * np.exp(p.u) + 0.5 * p.h2 * np.exp(-2.0 * p.u)
    )
    return lhs - rhs, lhs


def limit_mass_relation(sigma1: float, sigma2: float) -> float:
    """(sigma1 - sigma2)^2 - 4 (sigma1 + sigma2/2); zero on the blow-up hyperbola."""
    return (sigma1 - sigma2) ** 2 - 4 * (sigma1 + sigma2 / 2)


@dataclass(frozen=True)
class MassPair:
    """A mass pair with its classification against the admissible lattice.

    ``family`` is "I" or "II" (None when unclassified), ``m`` the integer
    lattice parameter and ``distance`` the l-infinity distance to the
    nearest admissible pair.
    """

    sigma1: float
    sigma2: float
    family: str | None
    m: int | None
    distance: float

    @property
    def label(self) -> str:
        if self.family is None:
            return "none"
        return f"Type{self.family}({self.m})"


def _family_pair(family: str, m: int) -> tuple[int, int]:
    if family == "I":
        return 2 * m * (3 * m - 1), 2 * (3 * m - 1) * (m - 1)
    if family == "II":
        return 2 * (3 * m - 2) * (m - 1), 2 * (3 * m - 5) * (m - 1)
    raise ValueError(f"unknown family {family!r}")


def _lattice(m_lo: int, m_hi: int):
    """(pair, key, family, m) of both families for m_lo <= m <= m_hi, minus the origin
    and negative pairs; key = (|m|, family rank, m) breaks ties."""
    for m in range(m_lo, m_hi + 1):
        for fam_rank, family in enumerate(("I", "II")):
            pair = _family_pair(family, m)
            if pair == (0, 0) or pair[0] < 0 or pair[1] < 0:
                continue
            yield pair, (abs(m), fam_rank, m), family, m


def quantization_table(m_min: int, m_max: int) -> list[MassPair]:
    """Admissible blow-up mass pairs for lattice parameters m_min..m_max.

    Two integer families, minus the excluded origin (0, 0) and any pair
    with a negative entry; deduplicated (ties keep the smaller |m|,
    family I first) and sorted by (sigma1, sigma2).  Every returned pair
    satisfies the hyperbola relation exactly in integer arithmetic, with
    sigma1 divisible by 4 and sigma2 by 2.
    """
    if m_min > m_max:
        raise ValueError("m_min must not exceed m_max")
    chosen: dict[tuple[int, int], tuple[tuple[int, int, int], str, int]] = {}
    for pair, key, family, m in _lattice(int(m_min), int(m_max)):
        if pair not in chosen or key < chosen[pair][0]:
            chosen[pair] = (key, family, m)
    table = [
        MassPair(pair[0], pair[1], fam, m, 0.0)
        for pair, (_, fam, m) in chosen.items()
    ]
    table.sort(key=lambda mp: (mp.sigma1, mp.sigma2))
    return table


def classify_mass_pair(sigma1: float, sigma2: float, tol: float = 0.05) -> MassPair:
    """Classify an observed pair against the admissible lattice.

    Searches a table auto-sized to cover the observed masses; returns the
    nearest admissible pair in l-infinity distance when within ``tol``,
    and family None otherwise.  Ties break toward smaller |m|, family I
    before II.  (0, 0) is not an admissible target.
    """
    top = max(abs(sigma1), abs(sigma2), 1.0)
    m_span = int(math.ceil(math.sqrt(top))) + 2
    key, family, m = min(
        ((max(abs(sigma1 - pair[0]), abs(sigma2 - pair[1])), *key), family, m)
        for pair, key, family, m in _lattice(-m_span, m_span))
    dist = key[0]
    if dist <= tol:
        return MassPair(sigma1, sigma2, family, m, dist)
    return MassPair(sigma1, sigma2, None, None, dist)


def dirichlet_alpha(h1: float, h2: float, bracket: tuple[float, float],
                    r_max: float = 1.0, step: float = 1e-3,
                    tol: float = 1e-10, max_bisect: int = 200):
    """Solve the zero-boundary problem on the disk of radius r_max.

    Bisects the central value alpha until u(r_max) = 0; the bracket must
    produce boundary values of opposite signs.  Returns (alpha, profile).
    """
    lo, hi = float(bracket[0]), float(bracket[1])

    def boundary(alpha):
        prof = shoot(alpha, h1, h2, r_max, step)
        return prof.u[-1], prof

    (f_lo, p_lo), (f_hi, p_hi) = boundary(lo), boundary(hi)
    if f_lo == 0.0:
        return lo, p_lo
    if f_hi == 0.0:
        return hi, p_hi
    if f_lo * f_hi > 0:
        raise ValueError(
            f"bracket {bracket} does not straddle u(r_max)=0: "
            f"u({lo})={f_lo:.4g}, u({hi})={f_hi:.4g}"
        )
    for _ in range(max_bisect):
        mid = 0.5 * (lo + hi)
        f_mid, p_mid = boundary(mid)
        if abs(f_mid) < tol or hi - lo < tol:
            return mid, p_mid
        if f_lo * f_mid <= 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    mid = 0.5 * (lo + hi)
    return mid, shoot(mid, h1, h2, r_max, step)
