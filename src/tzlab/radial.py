"""Radial shooting solver for the Tzitzeica equation on the disk.

Integrates

    u'' + u'/r + h1 e^u - h2 e^{-2u} = 0,   u(0) = alpha, u'(0) = 0,

with constant coefficients h1 > 0, h2 >= 0 (h2 = 0 is the Liouville
equation, whose solution is known in closed form).  Alongside u the local
masses

    sigma1(r) = int_0^r h1 e^{u} s ds,   sigma2(r) = int_0^r h2 e^{-2u} s ds

are accumulated with the same integrator, so the exact identities of the
continuum equation -- w + sigma1 - sigma2 = 0 with w = r u', and the
constant-h Pohozaev identity

    2 pi (2 sigma1(r) + sigma2(r))
        = pi w(r)^2 + 2 pi r^2 (h1 e^{u(r)} + h2 e^{-2u(r)} / 2)

-- serve as correctness oracles.  The integrator is classical RK4 in
t = log r on the (u, w, sigma1, sigma2) that a profile keeps:

    u' = w,   w' = e^{2t} (h2 e^{-2u} - h1 e^u),
    sigma1' = e^{2t} h1 e^u,   sigma2' = e^{2t} h2 e^{-2u}.

It starts from the leading series term _CORE_MARGIN e-folds inside the
core scale (h1 e^alpha)^{-1/2}, or (h2 e^{-2 alpha})^{-1/2}, or inside
r_max, and takes round(r_max / step) equal steps in t, at most _MAX_STEPS,
to log r_max exactly.  The core is then a fixed distance from the start,
so no step is too coarse for a large |alpha| or weight; the later bubbles
of a tower are sharper in t, and the Pohozaev residual, pure integration
error, shows whether a step follows them.  The first identity is linear
in (w, sigma1, sigma2), so RK4 keeps it to roundoff.  The RK4 loop is
written out on float locals in the operation order of its vector form
k = f(t, y), so trajectories are bit for bit those of the vector form.
The step is chosen by h2: at h2 = 0 a Liouville step leaves out the
e^{-2u} terms, which the vector form adds as signed zeros, and stores
only u and sigma1: w equals 0.0 - sigma1 bit for bit and sigma2 stays
0.0, so both are formed after the loop; for h2 > 0 the step carries and
stores all four equations.  Both loops read the node times from one
array, which then becomes r in place.

dirichlet_alpha solves the zero-boundary problem on the unit disk for the
central value alpha in two steps: Illinois regula falsi on a bracket with
coarse shots of 200 steps locates alpha to |u(1)| < 1e-8, then secant
steps on fine shots of 1000 steps, the first with the slope of the last
two coarse shots, polish it to |u(1)| < 1e-10; the answer is always a fine
shot.  When the coarse ends do not straddle u(1) = 0, or the polish leaves
the bracket or takes more than four shots, the Illinois search runs on
fine shots alone, and raises when it runs out of shots.

Blow-up limits of such profiles have quantized masses: the admissible
pairs lie on the hyperbola (sigma1 - sigma2)^2 = 4 (sigma1 + sigma2/2),
where the one integer d = sigma1 - sigma2 fixes the pair:
sigma1 = d(d+2)/6, sigma2 = d(d-4)/6.  Family I(m) is d = 6m - 2 and
family II(m) is d = 6m - 6, minus the origin d = 0; this module generates
and classifies against that lattice.  alpha_sweep reduces one profile
per central value to a row: the end masses, their class, and the worst
relative Pohozaev residual, whose ratio at two steps measures the order.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

# The start lies this many e-folds in r inside the core scale: the series
# term it leaves out is e^{-32} of the core's, below double precision.
_CORE_MARGIN = 8.0

_U_MIN, _U_MAX = -700.0, 350.0

# dirichlet_alpha: shooting step, stopping tolerance and the cap on shots
# inside the bracket; the coarse step that locates alpha before the polish
# on the shooting step (200 RK4 steps to r = 1 instead of 1000).
_DIRICHLET_STEP = 1e-3
_DIRICHLET_TOL = 1e-10
_MAX_SHOOTS = 200
_LOCATE_STEP = 5 * _DIRICHLET_STEP

# A profile holds 40 bytes per node, and building it peaks near 41 (the
# stored columns' growth slack): 10^7 steps take about 410 MB.
_MAX_STEPS = 10**7


class TrajectoryOverflow(RuntimeError):
    """u left the representable window [-700, 350] during integration, or
    an exponential overflowed on the way: e^{u} r^2 beyond r = e^{180}, or
    e^{-2u} r^2 when h2 > 0 and u falls 355 below log r (the Liouville step
    for h2 = 0 does not form it)."""


@dataclass
class RadialProfile:
    """Arrays (r, u, w = r u', sigma1, sigma2) of one shooting trajectory,
    from its start inside the core scale to r[-1] = r_max exactly, and its
    inputs."""

    r: np.ndarray
    u: np.ndarray
    w: np.ndarray
    sigma1: np.ndarray
    sigma2: np.ndarray
    alpha: float
    h1: float
    h2: float
    step: float


def step_count(r_max: float, step: float) -> int:
    """Number of fixed steps shoot takes for ``step`` out to ``r_max``:
    round(r_max / step).

    Raises ValueError unless 0 < step <= r_max, both finite, and there are
    at most _MAX_STEPS steps.
    """
    if not (0 < step <= r_max and math.isfinite(r_max / step)):
        raise ValueError(f"need finite r_max and step with 0 < step <= r_max, "
                         f"got r_max={r_max:g}, step={step:g}")
    n = round(r_max / step)
    if n > _MAX_STEPS:
        raise ValueError(f"step {step:g} takes {n} steps to r_max {r_max:g}, "
                         f"more than {_MAX_STEPS}")
    return n


def _left_window(t2: float, u: float) -> TrajectoryOverflow:
    return TrajectoryOverflow(
        f"u({math.exp(0.5 * t2):.6g}) = {u:.6g} left [{_U_MIN}, {_U_MAX}]")


def shoot(alpha: float, h1: float = 1.0, h2: float = 1.0,
          r_max: float = 1.0, step: float = 1e-4) -> RadialProfile:
    """Integrate the radial equation from the center out to r_max, in
    round(r_max / step) equal RK4 steps in t = log r (see step_count) from
    _CORE_MARGIN e-folds inside min(r_max, core scale), where the core scale
    is exp(-max(log h1 + alpha, log h2 - 2 alpha)/2), the h2 term only when
    h2 > 0.  The nodes' times t2 = log r^2 are one array that the loop reads
    and that then becomes r in place.  The profile keeps the integrated
    w = r u' as it stands; at h2 = 0 only u and sigma1 are stored per step,
    and w = 0.0 - sigma1 and sigma2 = 0.0 are formed after the loop."""
    if not 0 < h1 < math.inf:
        raise ValueError(f"h1 must be finite and positive, got {h1!r}")
    if not 0 <= h2 < math.inf:
        raise ValueError(f"h2 must be finite and nonnegative, got {h2!r}")
    n_total = step_count(r_max, step)
    if not _U_MIN <= alpha <= _U_MAX:
        raise TrajectoryOverflow(f"alpha={alpha} outside [{_U_MIN}, {_U_MAX}]")

    # in logs, so that a large h1, h2 or |alpha| cannot overflow
    log_rate = math.log(h1) + alpha
    if h2 > 0.0:
        log_rate = max(log_rate, math.log(h2) - 2.0 * alpha)
    t_end = math.log(r_max)
    t0 = min(-0.5 * log_rate, t_end) - _CORE_MARGIN
    dt = (t_end - t0) / n_total
    # the loop carries t2 = 2t = log r^2, and node j sits at
    # t2 = t2_end - (n_total - j) dt2, so the last node is t2_end exactly
    t2_end, dt2 = 2.0 * t_end, 2.0 * dt
    nodes = t2_end - np.arange(n_total, -1, -1) * dt2
    t2 = float(nodes[0])
    u = alpha  # reported with t2 when an exp overflows
    try:
        # leading series term: e^{2t} h1 e^alpha and e^{2t} h2 e^{-2 alpha}
        a0 = h1 * math.exp(alpha + t2)
        b0 = h2 * math.exp(t2 - 2.0 * alpha) if h2 > 0.0 else 0.0
        u, w, s1, s2 = alpha - (a0 - b0) / 4.0, (b0 - a0) / 2.0, a0 / 2.0, b0 / 2.0
        if not _U_MIN <= u <= _U_MAX:
            raise _left_window(t2, u)
        next_times = memoryview(nodes)[1:]

        # Classical RK4 for (u, w, sigma1, sigma2) written out stage by stage,
        # with the operation order of the vector form k = f(t2, y):
        # a = h1 e^{u + t2}, b = h2 e^{t2 - 2u}, f = (w, b - a, a, b), stage
        # times t2, t2 + dt (the half step in t) and the next node, stage
        # arguments y + dt/2 k and y + dt k, update y += dt/6 (k1 + 2 k2 + 2 k3 + k4).
        # f does not read sigma1, sigma2, so their stage arguments are not formed.
        exp = math.exp
        dt_2, dt_6 = dt / 2, dt / 6
        if h2 == 0.0:
            # Liouville: the vector form's k_w = 0.0 - a is -a up to the sign
            # of a zero, so w takes exactly the negated sigma1 increment.  w
            # starts as 0.0 - sigma1, and sigma1 is never -0.0, so w stays
            # 0.0 - sigma1 bit for bit and only u and sigma1 are stored;
            # sigma2 stays 0.0.
            cols = [array("d", (v,)) for v in (u, s1)]
            put_u, put_s1 = (col.append for col in cols)
            for te in next_times:
                a1 = h1 * exp(u + t2)
                u2 = u + dt_2 * w
                w2 = w - dt_2 * a1
                tm = t2 + dt
                a2 = h1 * exp(u2 + tm)
                u3 = u + dt_2 * w2
                w3 = w - dt_2 * a2
                a3 = h1 * exp(u3 + tm)
                u4 = u + dt * w3
                w4 = w - dt * a3
                a4 = h1 * exp(u4 + te)
                u += dt_6 * (w + 2.0 * w2 + 2.0 * w3 + w4)
                ds1 = dt_6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                w -= ds1
                s1 += ds1
                t2 = te
                if not _U_MIN <= u <= _U_MAX:
                    raise _left_window(t2, u)
                put_u(u)
                put_s1(s1)
        else:
            cols = [array("d", (v,)) for v in (u, w, s1, s2)]
            put_u, put_w, put_s1, put_s2 = (col.append for col in cols)
            for te in next_times:
                a1 = h1 * exp(u + t2)
                b1 = h2 * exp(t2 - 2.0 * u)
                k1w = b1 - a1
                u2 = u + dt_2 * w
                w2 = w + dt_2 * k1w
                tm = t2 + dt
                a2 = h1 * exp(u2 + tm)
                b2 = h2 * exp(tm - 2.0 * u2)
                k2w = b2 - a2
                u3 = u + dt_2 * w2
                w3 = w + dt_2 * k2w
                a3 = h1 * exp(u3 + tm)
                b3 = h2 * exp(tm - 2.0 * u3)
                k3w = b3 - a3
                u4 = u + dt * w3
                w4 = w + dt * k3w
                a4 = h1 * exp(u4 + te)
                b4 = h2 * exp(te - 2.0 * u4)
                k4w = b4 - a4
                u += dt_6 * (w + 2.0 * w2 + 2.0 * w3 + w4)
                w += dt_6 * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
                s1 += dt_6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                s2 += dt_6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                t2 = te
                if not _U_MIN <= u <= _U_MAX:
                    raise _left_window(t2, u)
                put_u(u)
                put_w(w)
                put_s1(s1)
                put_s2(s2)
    except OverflowError:
        # math.exp of a stage left the float range: e^{u} r^2 for r beyond
        # e^{180}, or e^{-2u} r^2 when h2 > 0 and u < log r - 354.9 (inside
        # the window when r < 1)
        raise TrajectoryOverflow(f"exp overflowed in the step from "
                                 f"u({math.exp(0.5 * t2):.6g}) = {u:.6g}") from None

    r = np.exp(np.multiply(0.5, nodes, out=nodes), out=nodes)
    r[-1] = r_max
    if h2 == 0.0:
        u, sigma1 = (np.frombuffer(col, dtype=np.float64) for col in cols)
        w, sigma2 = np.subtract(0.0, sigma1), np.zeros(n_total + 1)
    else:
        u, w, sigma1, sigma2 = (np.frombuffer(col, dtype=np.float64) for col in cols)
    return RadialProfile(
        r=r, u=u, w=w, sigma1=sigma1, sigma2=sigma2,
        alpha=alpha, h1=h1, h2=h2, step=float(step),
    )


def pohozaev_residual_profile(p: RadialProfile) -> tuple[np.ndarray, np.ndarray]:
    """LHS - RHS of the Pohozaev identity, and the LHS, at every node.

    The residual is O(step^4) along RK4 trajectories.  The forcing is formed
    as shoot forms it, r^2 e^u = e^{u + log r^2}, and its e^{-2u} term only
    when h2 > 0, so no node shoot reached overflows here.
    """
    lhs = 2.0 * np.pi * (2.0 * p.sigma1 + p.sigma2)
    log_r2 = 2.0 * np.log(p.r)
    forcing = p.h1 * np.exp(p.u + log_r2)
    if p.h2 > 0.0:
        forcing += 0.5 * p.h2 * np.exp(log_r2 - 2.0 * p.u)
    rhs = np.pi * p.w**2 + 2.0 * np.pi * forcing
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


def _distance(sigma1: float, sigma2: float, pair: tuple[int, int]) -> float:
    """l-infinity distance to a lattice pair; infinite for a pair beyond the
    largest double."""
    try:
        return max(abs(sigma1 - pair[0]), abs(sigma2 - pair[1]))
    except OverflowError:
        return math.inf


def classify_mass_pair(sigma1: float, sigma2: float, tol: float = 0.05) -> MassPair:
    """Classify an observed pair against the admissible lattice.

    Returns the nearest admissible pair in l-infinity distance when within
    ``tol``, and family None otherwise.  Ties break toward smaller |m|,
    family I before II.  (0, 0) is not an admissible target.  Raises
    ValueError for a non-finite mass.

    Only a few candidates are compared.  With D = sigma1 - sigma2 and
    S = sigma1 + sigma2, max(|a|, |b|) = (|a - b| + |a + b|)/2 puts the pair
    at d at distance (|D - d| + |S - (d^2 - d)/3|)/2.  In d that is convex
    outside the roots of d^2 - d = 3S and concave between them, with kinks
    at D and at the roots, and its smooth minima are at -1 and 2.  So the
    nearest pair has an admissible d next to one of D, 1/2 +- sqrt(1/4 + 3S),
    -1 and 2, and the m of each point x and the next two, from m = floor(x/6),
    hold those neighbours.
    """
    if not (math.isfinite(sigma1) and math.isfinite(sigma2)):
        raise ValueError(f"sigma1 = {sigma1!r}, sigma2 = {sigma2!r}: masses must be finite")
    # from halves of the masses, so that no sum overflows
    half_d, half_s = sigma1 / 2 - sigma2 / 2, sigma1 / 2 + sigma2 / 2
    sixths = [half_d / 3, -1 / 6, 1 / 3]  # x/6 for x = D, -1, 2
    if half_s + 1 / 24 >= 0:
        # the roots: sqrt(1/4 + 3S) = sqrt(6) sqrt(S/2 + 1/24)
        root = math.sqrt(6.0) * math.sqrt(half_s + 1 / 24)
        sixths += [(0.5 - root) / 6, (0.5 + root) / 6]
    key, family, m = min(
        ((_distance(sigma1, sigma2, pair), *key), family, m)
        for x in sixths
        for pair, key, family, m in _lattice(math.floor(x), math.floor(x) + 2))
    dist = key[0]
    if dist <= tol:
        return MassPair(sigma1, sigma2, family, m, dist)
    return MassPair(sigma1, sigma2, None, None, dist)


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
    """Shoot for each alpha and report end masses, their class and the
    worst |LHS - RHS| / (1 + |LHS|) of the Pohozaev identity after the
    start.  A fault of one alpha (TrajectoryOverflow) is recorded in its
    row and the sweep continues; a ValueError that holds for every alpha,
    such as a step above r_max, propagates."""

    def run(alpha):
        try:
            prof = shoot(alpha, h1, h2, r_max, step)
        except TrajectoryOverflow as exc:
            return AlphaRow(alpha=float(alpha), error=f"{type(exc).__name__}: {exc}")
        res, lhs = pohozaev_residual_profile(prof)
        rel = float(np.max(np.abs(res[1:]) / (1.0 + np.abs(lhs[1:]))))
        s1, s2 = float(prof.sigma1[-1]), float(prof.sigma2[-1])
        mp = classify_mass_pair(s1, s2)
        return AlphaRow(float(alpha), s1, s2, rel, float(limit_mass_relation(s1, s2)),
                        mp.family, mp.m, mp.distance)

    return [run(alpha) for alpha in alphas]


def _illinois(shot, lo, hi, tol: float):
    """Illinois regula falsi for u(1) = 0 between the shots ``lo`` and ``hi``.

    A shot is (alpha, u(1), profile), and shot(alpha) makes one.  Each shot
    inside the bracket replaces the end of its own sign, and when the same
    end is kept twice in a row its boundary value is halved, so both ends
    converge.  Returns (prev, last), the last two shots made, newest last,
    once last is an end with u(1) = 0, or has |u(1)| < tol, or narrowed the
    bracket below _DIRICHLET_TOL; None after _MAX_SHOOTS shots inside
    without that.  Raises ValueError when the ends do not straddle u(1) = 0.
    """
    (a_lo, f_lo, _), (a_hi, f_hi, _) = lo, hi
    if f_lo == 0.0:
        return hi, lo
    if f_hi == 0.0:
        return lo, hi
    if f_lo * f_hi > 0:
        raise ValueError(f"bracket ({a_lo!r}, {a_hi!r}) does not straddle u(1)=0: "
                         f"u({a_lo})={f_lo:.4g}, u({a_hi})={f_hi:.4g}")
    prev = hi
    kept = 0  # -1 after lo was kept, +1 after hi was kept
    for _ in range(_MAX_SHOOTS):
        last = shot(a_lo - f_lo * (a_hi - a_lo) / (f_hi - f_lo))
        mid, f_mid, _ = last
        if abs(f_mid) < tol or a_hi - a_lo < _DIRICHLET_TOL:
            return prev, last
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
    return None


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
       step _LOCATE_STEP (200 RK4 steps), until |u(1)| < 1e-8.
    2. Polish: secant steps on shots at the fine step _DIRICHLET_STEP (1000) from
       the located alpha, the first with the slope of the last two coarse
       shots, until |u(1)| < 1e-10 (see _polish).

    The search runs at the fine step alone, as Illinois regula falsi until
    |u(1)| < 1e-10 or the bracket is narrower than that, when the coarse
    ends do not straddle u(1) = 0, or the polish leaves the bracket or does
    not converge in four shots.  A coarse search that runs _MAX_SHOOTS shots
    inside the bracket hands over to the fine one, and a fine search that
    does so raises ValueError.

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

    ends = coarse(lo), coarse(hi)
    if ends[0][1] * ends[1][1] <= 0.0:
        # a looser locate costs polish shots and a tighter one coarse
        # shots: perfbench's five Dirichlet problems take 18 400 RK4 steps
        # in all at 1e-8, 17 800-19 600 at tolerances from 1e-6 to 1e-10
        located = _illinois(coarse, *ends, 1e-8)
        found = _polish(fine, *located, lo, hi) if located else None
        if found is not None:
            return found
    located = _illinois(fine, fine(lo), fine(hi), _DIRICHLET_TOL)
    if located is None:
        raise ValueError(f"bracket {bracket}: no central value with |u(1)| < "
                         f"{_DIRICHLET_TOL:g} after {_MAX_SHOOTS} fine shots inside it")
    _, (alpha, _, prof) = located
    return alpha, prof
