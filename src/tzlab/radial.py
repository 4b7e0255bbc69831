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
correctness oracles.  The integrator is classical RK4 with a fixed step
that divides r_max, so the last node is r_max; the r = 0 singularity of
u'/r is bypassed by a fourth-order series start over the first few steps.
Fixed stepping keeps convergence-order measurements clean.  The RK4 loop
is written out on float locals in the operation order of its vector form
k = f(r, y), so trajectories are bit for bit those of the vector form.

dirichlet_alpha solves the zero-boundary problem on the unit disk by
Illinois regula falsi on the central value alpha.

Blow-up limits of such profiles have quantized masses: the admissible
pairs lie on the hyperbola (sigma1 - sigma2)^2 = 4 (sigma1 + sigma2/2) in
one of two integer families, and this module generates and classifies
against that lattice.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

# Series start spans this many fixed steps; keeps the RK4 stages away from
# the coordinate singularity without hurting the h^4 error scaling.
_SERIES_STEPS = 3

_U_MIN, _U_MAX = -700.0, 350.0

# dirichlet_alpha: shooting step, stopping tolerance and the cap on shots
# inside the bracket.
_DIRICHLET_STEP = 1e-3
_DIRICHLET_TOL = 1e-10
_MAX_SHOOTS = 200


class StepTooLarge(ValueError):
    """Step too coarse for the concentration scale set by alpha."""


class TrajectoryOverflow(RuntimeError):
    """u left the representable window [-700, 350] during integration, or
    e^u or e^{-2u} overflowed on the way (e^{-2u} already does below u = -354.9)."""


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


def step_count(r_max: float, step: float) -> int:
    """Number of fixed steps of size ``step`` from the center to ``r_max``.

    Raises ValueError unless 0 < step <= r_max, both finite, and the steps
    end at r_max: |n step - r_max| <= 1e-9 r_max.
    """
    if not (0 < step <= r_max and math.isfinite(r_max / step)):
        raise ValueError(f"need finite r_max and step with 0 < step <= r_max, "
                         f"got r_max={r_max:g}, step={step:g}")
    n = round(r_max / step)
    if abs(n * step - r_max) > 1e-9 * r_max:
        raise ValueError(f"step {step:g} does not divide r_max {r_max:g}: "
                         f"{n} steps end at r = {n * step:.10g}")
    return n


def _left_window(r: float, u: float) -> TrajectoryOverflow:
    return TrajectoryOverflow(f"u({r:.6g}) = {u:.6g} left [{_U_MIN}, {_U_MAX}]")


def shoot(alpha: float, h1: float = 1.0, h2: float = 1.0,
          r_max: float = 1.0, step: float = 1e-4) -> RadialProfile:
    """Integrate the radial equation from the center out to r_max.

    ``step`` must divide ``r_max`` (see step_count), and
    step * exp(max(alpha, -2*alpha)/2) <= 0.1 so the step resolves the
    concentration scale e^{-alpha/2} of a forming bubble.
    """
    if h1 <= 0:
        raise ValueError("h1 must be positive")
    if h2 < 0:
        raise ValueError("h2 must be nonnegative")
    n_total = step_count(r_max, step)
    if not _U_MIN <= alpha <= _U_MAX:
        raise TrajectoryOverflow(f"alpha={alpha} outside [{_U_MIN}, {_U_MAX}]")
    if step * math.exp(max(alpha, -2.0 * alpha) / 2.0) > 0.1:
        raise StepTooLarge(
            "step too large for this alpha: need step * exp(max(alpha, -2 alpha)/2) <= 0.1"
        )
    if r_max < (_SERIES_STEPS + 1) * step:
        raise ValueError("r_max must exceed the series-start region (4 steps)")

    h = float(step)
    r, u = 0.0, alpha  # start of the step an exp overflow is reported from
    try:
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

        cols = [array("d", (alpha,)), array("d", (0.0,)), array("d", (0.0,)), array("d", (0.0,))]
        for j in range(1, _SERIES_STEPS + 1):
            r = j * h
            u, w, s1, s2 = series(r)
            if not _U_MIN <= u <= _U_MAX:
                raise _left_window(r, u)
            for col, v in zip(cols, (u, w, s1, s2)):
                col.append(v)
        put_u, put_w, put_s1, put_s2 = (col.append for col in cols)

        # Classical RK4 for (u, u', sigma1, sigma2) written out stage by stage,
        # with the operation order of the vector form k = f(r, y):
        # f = (w, -w/r - h1 e^u + h2 e^{-2u}, h1 e^u r, h2 e^{-2u} r), stage
        # arguments y + h/2 k and y + h k, update y += h/6 (k1 + 2 k2 + 2 k3 + k4).
        # f does not read sigma1, sigma2, so their stage arguments are not formed.
        exp = math.exp
        h_2, h_6 = h / 2, h / 6
        for j in range(_SERIES_STEPS + 1, n_total + 1):
            eu = exp(u)
            em = exp(-2.0 * u)
            k1w = -w / r - h1 * eu + h2 * em
            k1a = h1 * eu * r
            k1b = h2 * em * r
            rm = r + h_2
            u2 = u + h_2 * w
            w2 = w + h_2 * k1w
            eu = exp(u2)
            em = exp(-2.0 * u2)
            k2w = -w2 / rm - h1 * eu + h2 * em
            k2a = h1 * eu * rm
            k2b = h2 * em * rm
            u3 = u + h_2 * w2
            w3 = w + h_2 * k2w
            eu = exp(u3)
            em = exp(-2.0 * u3)
            k3w = -w3 / rm - h1 * eu + h2 * em
            k3a = h1 * eu * rm
            k3b = h2 * em * rm
            re = r + h
            u4 = u + h * w3
            w4 = w + h * k3w
            eu = exp(u4)
            em = exp(-2.0 * u4)
            k4w = -w4 / re - h1 * eu + h2 * em
            k4a = h1 * eu * re
            k4b = h2 * em * re
            u += h_6 * (w + 2 * w2 + 2 * w3 + w4)
            w += h_6 * (k1w + 2 * k2w + 2 * k3w + k4w)
            s1 += h_6 * (k1a + 2 * k2a + 2 * k3a + k4a)
            s2 += h_6 * (k1b + 2 * k2b + 2 * k3b + k4b)
            r = j * h
            if not _U_MIN <= u <= _U_MAX:
                raise _left_window(r, u)
            put_u(u)
            put_w(w)
            put_s1(s1)
            put_s2(s2)
    except OverflowError:
        # math.exp of alpha, of u or of an RK4 stage left the float range: a
        # value beyond the window, or e^{-2u} with u < -354.9 inside it
        raise TrajectoryOverflow(f"exp overflowed in the step from u({r:.6g}) = {u:.6g}") from None

    u, du, sigma1, sigma2 = (np.frombuffer(col, dtype=np.float64) for col in cols)
    return RadialProfile(
        r=np.arange(n_total + 1) * h, u=u, du=du, sigma1=sigma1, sigma2=sigma2,
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
    """(pair, key, family, m) of both families for m_lo <= m <= m_hi, minus the origin;
    key = (|m|, family rank, m) breaks ties.  No integer m gives a negative
    entry: family I has sigma2 < 0 only for 1/3 < m < 1, family II has
    sigma1 < 0 only for 2/3 < m < 1 and sigma2 < 0 only for 1 < m < 5/3."""
    for m in range(m_lo, m_hi + 1):
        for fam_rank, family in enumerate(("I", "II")):
            pair = _family_pair(family, m)
            if pair != (0, 0):
                yield pair, (abs(m), fam_rank, m), family, m


def quantization_table(m_min: int, m_max: int) -> list[MassPair]:
    """Admissible blow-up mass pairs for lattice parameters m_min..m_max.

    Two integer families, minus the excluded origin (0, 0); no entry is
    negative, since no integer m lies where one would be (see _lattice).
    Deduplicated (ties keep the smaller |m|, family I first) and sorted by
    (sigma1, sigma2).  Every returned pair satisfies the hyperbola relation
    exactly in integer arithmetic, with sigma1 divisible by 4 and sigma2 by 2.
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


def dirichlet_alpha(h1: float, h2: float, bracket: tuple[float, float]):
    """Solve the zero-boundary problem on the unit disk.

    Finds the central value alpha with u(1) = 0 by Illinois regula falsi
    on ``bracket``, whose ends must give boundary values of opposite signs:
    each shot replaces the bracket end of its own sign, and when the same
    end is kept twice in a row its boundary value is halved, so both ends
    converge.  Stops when |u(1)| < 1e-10 or the bracket is narrower than
    that; after _MAX_SHOOTS shots without either, returns the bracket
    midpoint.  Returns (alpha, profile) with alpha a float and profile the
    shot that decided it.
    """
    lo, hi = float(bracket[0]), float(bracket[1])

    def boundary(alpha):
        prof = shoot(alpha, h1, h2, 1.0, _DIRICHLET_STEP)
        return float(prof.u[-1]), prof

    (f_lo, p_lo), (f_hi, p_hi) = boundary(lo), boundary(hi)
    if f_lo == 0.0:
        return lo, p_lo
    if f_hi == 0.0:
        return hi, p_hi
    if f_lo * f_hi > 0:
        raise ValueError(
            f"bracket {bracket} does not straddle u(1)=0: "
            f"u({lo})={f_lo:.4g}, u({hi})={f_hi:.4g}"
        )
    kept = 0  # -1 after lo was kept, +1 after hi was kept
    for _ in range(_MAX_SHOOTS):
        mid = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        f_mid, p_mid = boundary(mid)
        if abs(f_mid) < _DIRICHLET_TOL or hi - lo < _DIRICHLET_TOL:
            return mid, p_mid
        if f_lo * f_mid <= 0:
            hi, f_hi = mid, f_mid
            if kept == -1:
                f_lo *= 0.5
            kept = -1
        else:
            lo, f_lo = mid, f_mid
            if kept == 1:
                f_hi *= 0.5
            kept = 1
    mid = 0.5 * (lo + hi)
    return mid, shoot(mid, h1, h2, 1.0, _DIRICHLET_STEP)
