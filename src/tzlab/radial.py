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

dirichlet_alpha solves the zero-boundary problem on the unit disk for the
central value alpha in two steps: Illinois regula falsi on a bracket with
shots at the coarse step 5e-3 locates alpha to |u(1)| < 1e-8, then secant
steps on shots at the fine step 1e-3, the first with the slope of the last
two coarse shots, polish it to |u(1)| < 1e-10; the answer is always a
1e-3 shot.  When the coarse step fails shoot's resolution guard at an end
of the bracket (whose rate is convex in alpha, so the ends decide), when
its ends do not straddle u(1) = 0, or when the polish leaves the bracket or
takes more than four shots, the Illinois search runs at the fine step alone.

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
# inside the bracket; the coarse step that locates alpha before the polish
# on the shooting step (200 RK4 steps to r = 1 instead of 1000).
_DIRICHLET_STEP = 1e-3
_DIRICHLET_TOL = 1e-10
_MAX_SHOOTS = 200
_LOCATE_STEP = 5 * _DIRICHLET_STEP

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


def _resolves(alpha: float, h1: float, h2: float, step: float) -> bool:
    """shoot's resolution guard: step * exp(max(log h1 + alpha, log h2 - 2 alpha)/2)
    <= 0.1, the h2 term only when h2 > 0.  In logs, so that a large h1, h2 or
    |alpha| cannot overflow it; needs h1 > 0.  The rate is a maximum of affine
    functions of alpha, so convex: a step the guard passes at two central
    values it passes at every value between them."""
    log_rate = math.log(h1) + alpha
    if h2 > 0.0:
        log_rate = max(log_rate, math.log(h2) - 2.0 * alpha)
    return math.log(step) + log_rate / 2.0 <= math.log(0.1)


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
    if not _resolves(alpha, h1, h2, step):
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
    before II.  (0, 0) is not an admissible target.  Raises ValueError
    for a non-finite mass.
    """
    if not (math.isfinite(sigma1) and math.isfinite(sigma2)):
        raise ValueError(f"sigma1 = {sigma1!r}, sigma2 = {sigma2!r}: masses must be finite")
    top = max(abs(sigma1), abs(sigma2), 1.0)
    m_span = int(math.ceil(math.sqrt(top))) + 2
    key, family, m = min(
        ((max(abs(sigma1 - pair[0]), abs(sigma2 - pair[1])), *key), family, m)
        for pair, key, family, m in _lattice(-m_span, m_span))
    dist = key[0]
    if dist <= tol:
        return MassPair(sigma1, sigma2, family, m, dist)
    return MassPair(sigma1, sigma2, None, None, dist)


def _illinois(shot, lo, hi, tol: float):
    """Illinois regula falsi for u(1) = 0 between the shots ``lo`` and ``hi``.

    A shot is (alpha, u(1), profile), and shot(alpha) makes one.  Each shot
    inside the bracket replaces the end of its own sign, and when the same
    end is kept twice in a row its boundary value is halved, so both ends
    converge.  Returns (prev, last, converged), the last two shots made,
    newest last.  converged: last is an end with u(1) = 0, or has
    |u(1)| < tol, or narrowed the bracket below _DIRICHLET_TOL; otherwise,
    after _MAX_SHOOTS shots inside, last is a shot at the bracket midpoint.
    Raises ValueError when the ends do not straddle u(1) = 0.
    """
    (a_lo, f_lo, _), (a_hi, f_hi, _) = lo, hi
    if f_lo == 0.0:
        return hi, lo, True
    if f_hi == 0.0:
        return lo, hi, True
    if f_lo * f_hi > 0:
        raise ValueError(f"bracket ({a_lo!r}, {a_hi!r}) does not straddle u(1)=0: "
                         f"u({a_lo})={f_lo:.4g}, u({a_hi})={f_hi:.4g}")
    prev = hi
    kept = 0  # -1 after lo was kept, +1 after hi was kept
    for _ in range(_MAX_SHOOTS):
        last = shot(a_lo - f_lo * (a_hi - a_lo) / (f_hi - f_lo))
        mid, f_mid, _ = last
        if abs(f_mid) < tol or a_hi - a_lo < _DIRICHLET_TOL:
            return prev, last, True
        if f_lo * f_mid <= 0:
            a_hi, f_hi = mid, f_mid
            if kept == -1:
                f_lo *= 0.5
            kept = -1
        else:
            a_lo, f_lo = mid, f_mid
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        prev = last
    return prev, shot(0.5 * (a_lo + a_hi)), False


def _polish(shot, prev, last, lo: float, hi: float):
    """Secant steps on fine shots from the located central value.

    The first fine shot is at last's alpha and steps with the slope of the
    coarse shots prev and last; each later step takes the slope of the last
    two fine shots.  Returns (alpha, profile) of the first fine shot with
    |u(1)| < _DIRICHLET_TOL, or None when a step would leave (lo, hi), the
    secant is flat, or four shots do not get there.
    """
    (a0, f0, _), (a1, f1, _) = prev, last
    alpha, f, prof = shot(a1)
    for _ in range(3):
        if abs(f) < _DIRICHLET_TOL:
            return alpha, prof
        if f1 == f0:
            return None
        nxt = alpha - f * (a1 - a0) / (f1 - f0)
        if not lo < nxt < hi or nxt == alpha:
            return None
        a0, f0 = alpha, f
        alpha, f, prof = shot(nxt)
        a1, f1 = alpha, f
    return (alpha, prof) if abs(f) < _DIRICHLET_TOL else None


def dirichlet_alpha(h1: float, h2: float, bracket: tuple[float, float]):
    """Solve the zero-boundary problem on the unit disk.

    Finds the central value alpha with u(1) = 0 on ``bracket`` = (lo, hi),
    whose ends must be finite with lo < hi (ValueError otherwise; a reversed
    bracket is rejected, not sorted) and give boundary values of opposite
    signs (ValueError otherwise).  Two steps:

    1. Locate: Illinois regula falsi (see _illinois) with shots at the coarse
       step _LOCATE_STEP, until |u(1)| < 1e-8.
    2. Polish: secant steps on shots at the fine step _DIRICHLET_STEP from
       the located alpha, the first with the slope of the last two coarse
       shots, until |u(1)| < 1e-10 (see _polish).

    The search runs at the fine step alone, as Illinois regula falsi until
    |u(1)| < 1e-10 or the bracket is narrower than that, when the coarse
    step cannot be used: it fails shoot's resolution guard at an end of the
    bracket (checked before any shot; the guard then holds inside too, see
    _resolves), the coarse ends do not straddle u(1) = 0, or the polish
    leaves the bracket or does not converge in four shots.  A coarse search
    that runs _MAX_SHOOTS shots inside the bracket hands over to the fine
    one, and a fine search that does so returns its bracket midpoint.

    Returns (alpha, profile) with alpha a float and profile the fine-step
    shot that decided it.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bracket {bracket} must have finite ends")
    if not lo < hi:
        raise ValueError(f"bracket {bracket} must be ordered (lo, hi) with lo < hi")

    def shot(alpha, step):
        prof = shoot(alpha, h1, h2, 1.0, step)
        return alpha, float(prof.u[-1]), prof

    def coarse(alpha):
        return shot(alpha, _LOCATE_STEP)

    def fine(alpha):
        return shot(alpha, _DIRICHLET_STEP)

    # shoot rejects every h1 but a positive one, which _resolves needs
    if h1 > 0.0 and _resolves(lo, h1, h2, _LOCATE_STEP) and _resolves(hi, h1, h2, _LOCATE_STEP):
        ends = coarse(lo), coarse(hi)
        if ends[0][1] * ends[1][1] <= 0.0:
            # a looser locate costs polish shots and a tighter one coarse
            # shots: perfbench's five Dirichlet problems take 17 400 RK4 steps
            # in all at 1e-8, 16 800-18 600 at tolerances from 1e-6 to 1e-10
            prev, last, located = _illinois(coarse, *ends, 1e-8)
            found = _polish(fine, prev, last, lo, hi) if located else None
            if found is not None:
                return found
    _, (alpha, _, prof), _ = _illinois(fine, fine(lo), fine(hi), _DIRICHLET_TOL)
    return alpha, prof
