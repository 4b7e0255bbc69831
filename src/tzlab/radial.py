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
that divides r_max, so the last node is r_max, in at most _MAX_STEPS
steps; the r = 0 singularity of u'/r is bypassed by a fourth-order
series start over the first few steps.
Fixed stepping keeps convergence-order measurements clean.  The RK4 loop
is written out on float locals in the operation order of its vector form
k = f(r, y), so trajectories are bit for bit those of the vector form.
The step is chosen by h2: at h2 = 0 a Liouville step leaves out the
e^{-2u} terms, which the vector form adds as signed zeros, and sigma2
keeps its series-start value; for h2 > 0 the step carries all four
equations.

dirichlet_alpha solves the zero-boundary problem on the unit disk by
Illinois regula falsi on the central value alpha.

Blow-up limits of such profiles have quantized masses: the admissible
pairs lie on the hyperbola (sigma1 - sigma2)^2 = 4 (sigma1 + sigma2/2),
where the one integer d = sigma1 - sigma2 fixes the pair:
sigma1 = d(d+2)/6, sigma2 = d(d-4)/6.  Family I(m) is d = 6m - 2 and
family II(m) is d = 6m - 6, minus the origin d = 0; this module generates
and classifies against that lattice.
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

# Each step appends 32 bytes to shoot's buffers: 10^7 steps keep 320 MB.
_MAX_STEPS = 10**7


class StepTooLarge(ValueError):
    """Step too coarse for the concentration scale set by alpha, h1 and h2."""


class TrajectoryOverflow(RuntimeError):
    """u left the representable window [-700, 350] during integration, or
    e^u or e^{-2u} overflowed on the way.  e^{-2u} already does below
    u = -354.9: at the center for any h2, further out only when h2 > 0,
    since the Liouville step for h2 = 0 does not form it."""


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

    Raises ValueError unless 0 < step <= r_max, both finite, there are at
    most _MAX_STEPS steps, they end at r_max: |n step - r_max| <= 1e-9 r_max,
    and r_max lies beyond the series start, at no fewer than 4 steps.
    """
    if not (0 < step <= r_max and math.isfinite(r_max / step)):
        raise ValueError(f"need finite r_max and step with 0 < step <= r_max, "
                         f"got r_max={r_max:g}, step={step:g}")
    n = round(r_max / step)
    if n > _MAX_STEPS:
        raise ValueError(f"step {step:g} takes {n} steps to r_max {r_max:g}, "
                         f"more than {_MAX_STEPS}")
    if abs(n * step - r_max) > 1e-9 * r_max:
        raise ValueError(f"step {step:g} does not divide r_max {r_max:g}: "
                         f"{n} steps end at r = {n * step:.10g}")
    if r_max < (_SERIES_STEPS + 1) * step:
        raise ValueError("r_max must exceed the series-start region (4 steps)")
    return n


def _left_window(r: float, u: float) -> TrajectoryOverflow:
    return TrajectoryOverflow(f"u({r:.6g}) = {u:.6g} left [{_U_MIN}, {_U_MAX}]")


def shoot(alpha: float, h1: float = 1.0, h2: float = 1.0,
          r_max: float = 1.0, step: float = 1e-4) -> RadialProfile:
    """Integrate the radial equation from the center out to r_max.

    ``step`` must divide ``r_max`` (see step_count), and
    step * exp(max(log h1 + alpha, log h2 - 2 alpha)/2) <= 0.1 (the h2 term
    only when h2 > 0) so the step resolves the concentration scale
    (h1 e^alpha)^{-1/2}, or (h2 e^{-2 alpha})^{-1/2}, of a forming bubble.
    """
    if not 0 < h1 < math.inf:
        raise ValueError(f"h1 must be finite and positive, got {h1!r}")
    if not 0 <= h2 < math.inf:
        raise ValueError(f"h2 must be finite and nonnegative, got {h2!r}")
    n_total = step_count(r_max, step)
    if not _U_MIN <= alpha <= _U_MAX:
        raise TrajectoryOverflow(f"alpha={alpha} outside [{_U_MIN}, {_U_MAX}]")
    # in logs, so that a large h1, h2 or |alpha| cannot overflow the guard
    log_rate = math.log(h1) + alpha
    if h2 > 0.0:
        log_rate = max(log_rate, math.log(h2) - 2.0 * alpha)
    if math.log(step) + log_rate / 2.0 > math.log(0.1):
        raise StepTooLarge(
            "step too large for this alpha, h1 and h2: need "
            "step * exp(max(log h1 + alpha, log h2 - 2 alpha)/2) <= 0.1"
        )

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
        # The forcing products a = h1 e^u and b = h2 e^{-2u} are formed once
        # per stage; the vector form parses h1 * eu * r as (h1 * eu) * r too.
        # f does not read sigma1, sigma2, so their stage arguments are not formed.
        exp = math.exp
        h_2, h_6 = h / 2, h / 6
        if h2 == 0.0:
            # Liouville: the vector form adds b = 0.0 * e^{-2u}, a zero, to k_w;
            # that changes at most the sign of a zero k_w, which no later sum
            # carries into u or u'.  sigma2 keeps its series-start value.
            for j in range(_SERIES_STEPS + 1, n_total + 1):
                a1 = h1 * exp(u)
                k1w = -w / r - a1
                rm = r + h_2
                u2 = u + h_2 * w
                w2 = w + h_2 * k1w
                a2 = h1 * exp(u2)
                k2w = -w2 / rm - a2
                u3 = u + h_2 * w2
                w3 = w + h_2 * k2w
                a3 = h1 * exp(u3)
                k3w = -w3 / rm - a3
                re = r + h
                u4 = u + h * w3
                w4 = w + h * k3w
                a4 = h1 * exp(u4)
                k4w = -w4 / re - a4
                u += h_6 * (w + 2.0 * w2 + 2.0 * w3 + w4)
                w += h_6 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
                s1 += h_6 * (a1 * r + 2.0 * (a2 * rm) + 2.0 * (a3 * rm) + a4 * re)
                r = j * h
                if not _U_MIN <= u <= _U_MAX:
                    raise _left_window(r, u)
                put_u(u)
                put_w(w)
                put_s1(s1)
                put_s2(s2)
        else:
            for j in range(_SERIES_STEPS + 1, n_total + 1):
                a1 = h1 * exp(u)
                b1 = h2 * exp(-2.0 * u)
                k1w = -w / r - a1 + b1
                rm = r + h_2
                u2 = u + h_2 * w
                w2 = w + h_2 * k1w
                a2 = h1 * exp(u2)
                b2 = h2 * exp(-2.0 * u2)
                k2w = -w2 / rm - a2 + b2
                u3 = u + h_2 * w2
                w3 = w + h_2 * k2w
                a3 = h1 * exp(u3)
                b3 = h2 * exp(-2.0 * u3)
                k3w = -w3 / rm - a3 + b3
                re = r + h
                u4 = u + h * w3
                w4 = w + h * k3w
                a4 = h1 * exp(u4)
                b4 = h2 * exp(-2.0 * u4)
                k4w = -w4 / re - a4 + b4
                u += h_6 * (w + 2.0 * w2 + 2.0 * w3 + w4)
                w += h_6 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
                s1 += h_6 * (a1 * r + 2.0 * (a2 * rm) + 2.0 * (a3 * rm) + a4 * re)
                s2 += h_6 * (b1 * r + 2.0 * (b2 * rm) + 2.0 * (b3 * rm) + b4 * re)
                r = j * h
                if not _U_MIN <= u <= _U_MAX:
                    raise _left_window(r, u)
                put_u(u)
                put_w(w)
                put_s1(s1)
                put_s2(s2)
    except OverflowError:
        # math.exp of alpha, of u or of an RK4 stage left the float range: a
        # value beyond the window, or e^{-2u} with u < -354.9 inside it (at
        # alpha, or at a stage when h2 > 0)
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


def _pair(d: int) -> tuple[int, int]:
    """The lattice pair with sigma1 - sigma2 = d: (d(d+2)/6, d(d-4)/6)."""
    return d * (d + 2) // 6, d * (d - 4) // 6


def _lattice(m_lo: int, m_hi: int):
    """(pair, key, family, m) of both families for m_lo <= m <= m_hi, minus
    the origin II(1) at d = 0: I(m) has d = 6m - 2 and II(m) d = 6m - 6, so
    no pair is shared, and key = (|m|, family rank, m) breaks distance ties.
    No entry is negative: sigma1 < 0 needs -2 < d < 0 and sigma2 < 0 needs
    0 < d < 4, and no admissible d (even, d != 2 mod 6, d != 0) lies there."""
    for m in range(m_lo, m_hi + 1):
        for rank, (family, d) in enumerate((("I", 6 * m - 2), ("II", 6 * m - 6))):
            if d:
                yield _pair(d), (abs(m), rank, m), family, m


def quantization_table(m_min: int, m_max: int) -> list[MassPair]:
    """Admissible blow-up mass pairs for lattice parameters m_min..m_max.

    Two integer families, minus the excluded origin (0, 0), sorted by
    (sigma1, sigma2); each pair appears once and none is negative (see
    _lattice).  Every returned pair satisfies the hyperbola relation exactly
    in integer arithmetic, with sigma1 divisible by 4 and sigma2 by 2.
    """
    if m_min > m_max:
        raise ValueError("m_min must not exceed m_max")
    return sorted((MassPair(*pair, family, m, 0.0)
                   for pair, _, family, m in _lattice(int(m_min), int(m_max))),
                  key=lambda mp: (mp.sigma1, mp.sigma2))


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
