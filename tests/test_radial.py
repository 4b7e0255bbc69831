import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tzlab import radial
from tzlab import (MassPair, TrajectoryOverflow, classify_mass_pair,
                   dirichlet_alpha, limit_mass_relation, liouville_bubble,
                   liouville_mass, pohozaev_residual_profile, quantization_table,
                   shoot)


def _reference_rk4(alpha, h1, h2, r_max, step):
    """(u, w, sigma1, sigma2) of shoot's scheme in vector form: RK4 in
    t = log r on y = (u, w = r u', sigma1, sigma2) with a tuple-returning
    right-hand side f of t2 = 2t and one numpy row per step, from the
    leading series term 8 e-folds inside the core scale.  shoot must
    reproduce it bit for bit."""
    log_rate = math.log(h1) + alpha
    if h2 > 0.0:
        log_rate = max(log_rate, math.log(h2) - 2.0 * alpha)
    n = round(r_max / step)
    t_end = math.log(r_max)
    dt = (t_end - (min(-0.5 * log_rate, t_end) - 8.0)) / n
    t2 = 2.0 * t_end - (n - np.arange(n + 1)) * (2.0 * dt)

    def f(t2, y):
        u, w, _, _ = y
        a = h1 * math.exp(u + t2)
        b = h2 * math.exp(t2 - 2.0 * u)
        return (w, b - a, a, b)

    out = np.empty((n + 1, 4))
    a0 = h1 * math.exp(alpha + t2[0])
    b0 = h2 * math.exp(t2[0] - 2.0 * alpha) if h2 > 0.0 else 0.0
    out[0] = (alpha - (a0 - b0) / 4.0, (b0 - a0) / 2.0, a0 / 2.0, b0 / 2.0)
    for j in range(n):
        y = tuple(out[j])
        k1 = f(t2[j], y)
        k2 = f(t2[j] + dt, tuple(v + dt / 2 * k for v, k in zip(y, k1)))
        k3 = f(t2[j] + dt, tuple(v + dt / 2 * k for v, k in zip(y, k2)))
        k4 = f(t2[j + 1], tuple(v + dt * k for v, k in zip(y, k3)))
        out[j + 1] = tuple(v + dt / 6 * (p + 2 * q + 2 * s + z)
                           for v, p, q, s, z in zip(y, k1, k2, k3, k4))
    return out[:, 0], out[:, 1], out[:, 2], out[:, 3]


class TestShoot:
    # a power of two makes h1 * e^u exact, so a misplaced forcing product
    # shows only at h1 = 0.7; h2 = 0.0 and -0.0 take the Liouville step
    # the r_max = 1 cases keep the ids they had before r_max was a parameter
    @pytest.mark.parametrize("alpha, h1, h2, r_max, step", [
        pytest.param(alpha, h1, h2, 1.0, step, id=f"{alpha}-{h1}-{h2}-{step}")
        for alpha in (-3.0, 0.0, 5.0, 8.0, 12.0) for h1 in (0.5, 0.7, 1.0, 2.0)
        for h2 in (0.0, -0.0, 0.5, 1.0) for step in (1e-4, 1e-3)
    ] + [
        (alpha, 0.7, h2, r_max, 1e-3)
        for alpha in (-3.0, 8.0) for h2 in (0.0, 1.0) for r_max in (0.3, 4.0)
    ] + [
        (alpha, 1.0, h2, 1.0, 1e-3) for alpha in (-20.0, 20.0) for h2 in (0.0, 1.0)
    ] + [
        # the start's forcing underflows to zero: the vector form's update
        # u + dt/6 (w + ...) turns u = -0.0 into +0.0, where a step written
        # with -sigma1 in place of w would keep -0.0
        (-300.0, 1.0, 0.0, 1e-100, 1e-102),
        (-0.0, 1.0, 0.0, 1e-170, 1e-172),
        (-0.0, 1.0, -0.0, 1e-170, 1e-172),
    ])
    def test_bitwise_equal_to_vector_rk4(self, alpha, h1, h2, r_max, step):
        p = shoot(alpha, h1, h2, r_max, step)
        assert len(p.r) == round(r_max / step) + 1 and p.r[-1] == r_max
        for name, ref in zip(("u", "w", "sigma1", "sigma2"),
                             _reference_rk4(alpha, h1, h2, r_max, step)):
            got = getattr(p, name)
            assert got.dtype == ref.dtype == np.float64
            assert np.array_equal(got, ref), name
            assert got.tobytes() == ref.tobytes(), name
        if h2 == 0.0:
            assert np.all(p.sigma2 == 0.0)
            # w = r u' is 0.0 - sigma1 to the sign of a zero
            assert p.w.tobytes() == np.subtract(0.0, p.sigma1).tobytes()

    def test_constant_solution(self):
        # h1 = h2 = 1, alpha = 0: the forcing vanishes identically, so u and
        # u' stay exactly 0 and both masses take the same increments
        p = shoot(0.0, 1.0, 1.0, 1.0, 1e-3)
        assert np.all(p.u == 0.0) and np.all(p.w == 0.0)
        assert np.array_equal(p.sigma1, p.sigma2)
        # the masses integrate e^{2t} by Simpson's rule, with an O(dt^4)
        # error (1.1e-11 at this step's dt = 8e-3); at dt = 8e-4 it is
        # below roundoff
        p = shoot(0.0, 1.0, 1.0, 1.0, 1e-4)
        assert np.abs(p.sigma1 - p.r**2 / 2).max() < 1e-12
        assert np.abs(p.sigma2 - p.r**2 / 2).max() < 1e-12

    def test_liouville_closed_form(self):
        for alpha in (0.0, 5.0, 10.0):
            p = shoot(alpha, 1.0, 0.0, 1.0, 1e-4)
            exact = liouville_bubble(alpha, p.r)
            assert np.abs(p.u - exact).max() < 1e-7

    def test_liouville_end_values(self):
        p = shoot(10.0, 1.0, 0.0, 1.0, 1e-4)
        mu2 = np.exp(10.0) / 8.0
        assert p.u[-1] == pytest.approx(10.0 - 2.0 * np.log1p(mu2), abs=1e-7)
        assert p.sigma1[-1] == pytest.approx(4.0 * mu2 / (1.0 + mu2), abs=1e-6)
        assert p.sigma1[-1] == pytest.approx(liouville_mass(10.0, 1.0), abs=1e-6)

    def test_radial_average_derivative_identity(self):
        # r u' + sigma1 - sigma2 = 0 is linear in (w, sigma1, sigma2), so RK4
        # keeps it to roundoff, through every bubble of a tower too
        for alpha, h2 in ((8.0, 1.0), (20.0, 1.0), (20.0, 0.0), (-5.0, 1.0)):
            p = shoot(alpha, 1.0, h2, 1.0, 1e-4)
            assert np.abs(p.w + p.sigma1 - p.sigma2).max() <= 1e-10

    def test_initial_conditions(self):
        # the start is the leading series term, 8 e-folds inside the core
        # scale (h1 e^alpha)^{-1/2} = e^{-2.5}
        p = shoot(5.0, 1.0, 1.0, 1.0, 1e-3)
        assert p.r[0] == pytest.approx(math.exp(-2.5 - 8.0), rel=1e-12)
        assert np.all(np.diff(p.r) > 0) and p.r[-1] == 1.0
        c = math.exp(5.0) - math.exp(-10.0)
        assert p.u[0] == pytest.approx(5.0 - c * p.r[0] ** 2 / 4.0, rel=1e-15)
        assert p.w[0] == pytest.approx(-c * p.r[0] ** 2 / 2.0, rel=1e-12)
        assert p.sigma1[0] == pytest.approx(math.exp(5.0) * p.r[0] ** 2 / 2.0, rel=1e-12)
        assert p.sigma2[0] == pytest.approx(math.exp(-10.0) * p.r[0] ** 2 / 2.0, rel=1e-12)

    def test_sigma_monotone_nonnegative(self):
        p = shoot(6.0, 1.0, 1.0, 1.0, 1e-3)
        assert np.all(np.diff(p.sigma1) >= 0)
        assert np.all(np.diff(p.sigma2) >= 0)
        # the mass inside the start radius, e^{-16} of the core's
        assert 0.0 < p.sigma1[0] < 1e-6 and 0.0 < p.sigma2[0] < 1e-6

    @pytest.mark.parametrize("alpha, h1, h2", [
        (20.0, 1.0, 1.0), (-20.0, 1.0, 1.0), (350.0, 1.0, 0.0),
        # a core width of 1e-50, where u falls below -354.9 and e^{-2u}
        # overflows: the Pohozaev residual does not form it at h2 = 0
        (0.0, 1e100, 0.0),
    ])
    def test_large_central_values_and_weights_are_integrated(self, alpha, h1, h2):
        p = shoot(alpha, h1, h2, 1.0, 1e-4)
        res, lhs = pohozaev_residual_profile(p)
        assert (np.abs(res[1:]) / (1.0 + np.abs(lhs[1:]))).max() < 1e-6
        if h2 == 0.0:
            assert p.sigma1[-1] == pytest.approx(liouville_mass(alpha + math.log(h1), 1.0),
                                                 abs=1e-8)

    def test_alpha_overflow(self):
        with pytest.raises(TrajectoryOverflow):
            shoot(351.0, 1.0, 0.0, 1.0, 1e-4)
        with pytest.raises(TrajectoryOverflow):
            shoot(-701.0, 1.0, 0.0, 1.0, 1e-4)

    def test_overflow_during_integration(self):
        # h2 e^{-2u} lifts u from 349 towards its equilibrium near 353, and an
        # RK4 step names where u first leaves the window
        with pytest.raises(TrajectoryOverflow,
                           match=r"u\(97\.3382\) = 350\.003 left \[-700\.0, 350\.0\]$"):
            shoot(349.0, 1e-160, 1e300, 100.0, 0.05)

    @pytest.mark.parametrize("args, message", [
        # the same lift from alpha = 350 leaves the window at the start
        ((350.0, 1e-160, 1e300, 1.0, 1e-3), r"u\(0\.000335463\) = 350 left \[-700\.0, 350\.0\]$"),
        # u = -360 stays inside the window while e^{-2u} r^2 overflows once
        # r passes e^{-5.1}; h2 = 5e-324 is too small to form a bubble first
        ((-360.0, 1.0, 5e-324, 1.0, 1e-3), r"exp overflowed in the step from u\(0\.00602402\) = -360$"),
    ], ids=["series_start_beyond_window", "exp_minus_2u_inside_window"])
    def test_exp_overflow_is_typed(self, args, message):
        # a bare OverflowError from math.exp, or an overflow warning (an error
        # under this suite's filterwarnings), fails
        with pytest.raises(TrajectoryOverflow, match=message):
            shoot(*args)

    def test_liouville_step_never_forms_exp_minus_2u(self):
        # at h2 = 0, alpha = -400 would overflow e^{-2u} = e^{800}
        p = shoot(-400.0, 1.0, 0.0, 1.0, 1e-3)
        assert np.all(p.u == -400.0) and np.all(p.sigma2 == 0.0)

    @pytest.mark.parametrize("r_max, step, n", [(1.0, 7e-4, 1429), (1.0, 3e-4, 3333),
                                                (2.0, 3e-4, 6667), (3e-4, 1e-4, 3),
                                                (1.0, 0.7, 1)])
    def test_step_takes_round_r_max_over_step(self, r_max, step, n):
        # the step need not divide r_max: the t-grid ends at log r_max exactly
        p = shoot(2.0, 1.0, 0.0, r_max, step)
        assert radial.step_count(r_max, step) == n
        assert len(p.r) == n + 1 and p.r[-1] == r_max and p.step == step

    @pytest.mark.parametrize("r_max, step", [(1.0, 1e-4), (1.0, 2e-4), (1.0, 5e-4),
                                             (1.0, 1e-3), (2.0, 5e-4), (0.3, 1e-3)])
    def test_dividing_steps_end_at_r_max(self, r_max, step):
        assert shoot(2.0, 1.0, 0.0, r_max, step).r[-1] == r_max

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            shoot(0.0, 0.0, 1.0, 1.0, 1e-3)
        with pytest.raises(ValueError):
            shoot(0.0, 1.0, -1.0, 1.0, 1e-3)
        with pytest.raises(ValueError):
            shoot(0.0, 1.0, 1.0, -1.0, 1e-3)
        for h1, h2 in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError, match="must be finite"):
                shoot(0.0, h1, h2, 1.0, 1e-3)
        for r_max, step in ((1.0, 0.0), (math.inf, 1e-3), (1.0, math.inf), (1.0, math.nan),
                            (1e300, 1e-300)):
            with pytest.raises(ValueError, match="0 < step <= r_max"):
                shoot(0.0, 1.0, 1.0, r_max, step)
        # refused before the 48 GB a profile of 10^9 steps would take
        with pytest.raises(ValueError, match="takes 1000000000 steps"):
            shoot(0.0, 1.0, 1.0, 1.0, 1e-9)

    def test_step_count_cap(self):
        assert radial.step_count(1.0, 1e-7) == radial._MAX_STEPS
        with pytest.raises(ValueError, match=f"takes 20000000 steps to r_max 2, "
                                             f"more than {radial._MAX_STEPS}"):
            radial.step_count(2.0, 1e-7)


class TestPohozaev:
    def test_constant_solution_algebra(self):
        # u = 0, h1 = h2 = 1 at the node nearest r = 1/2: both sides equal
        # 3 pi r^2.  The masses carry Simpson's O(dt^4) error in e^{2t}
        # (2.3e-11 relative at step 1e-3), which step 1e-4 takes below roundoff
        p = shoot(0.0, 1.0, 1.0, 1.0, 1e-4)
        res, lhs = pohozaev_residual_profile(p)
        i = int(np.argmin(np.abs(p.r - 0.5)))
        assert p.r[i] == pytest.approx(0.5, rel=1e-3)
        assert lhs[i] == pytest.approx(3.0 * np.pi * p.r[i] ** 2, rel=1e-12)
        assert lhs[i] - res[i] == pytest.approx(3.0 * np.pi * p.r[i] ** 2, rel=1e-12)
        assert abs(res[i]) < 1e-12

    def test_liouville_relative_residual(self):
        p = shoot(10.0, 1.0, 0.0, 1.0, 1e-4)
        res, lhs = pohozaev_residual_profile(p)
        assert p.r[-1] == pytest.approx(1.0)
        assert abs(res[-1]) / lhs[-1] < 1e-8

    def test_residual_small_everywhere(self):
        p = shoot(8.0, 1.0, 1.0, 1.0, 1e-4)
        res, lhs = pohozaev_residual_profile(p)
        rel = np.abs(res[1:]) / (1.0 + np.abs(lhs[1:]))
        assert rel.max() < 1e-6

    def test_step_halving_order(self):
        # the residual at the boundary is pure integration error: halving
        # the step must shrink it at fourth order
        for h2 in (0.0, 1.0):
            res = {}
            for step in (1e-3, 5e-4):
                p = shoot(8.0, 1.0, h2, 1.0, step)
                res[step] = abs(pohozaev_residual_profile(p)[0][-1])
            assert res[1e-3] / res[5e-4] >= 12.0


class TestLimitMassRelation:
    @pytest.mark.parametrize("pair", [(4, 0), (20, 10), (0, 0), (0, 2), (4, 10), (8, 2)])
    def test_on_curve(self, pair):
        assert limit_mass_relation(*pair) == 0

    def test_off_curve(self):
        assert limit_mass_relation(7, 7) != 0
        assert limit_mass_relation(4.0, 0.5) != 0


class TestQuantizationTable:
    def test_small_values(self):
        table = {(int(mp.sigma1), int(mp.sigma2)): mp for mp in quantization_table(-3, 3)}
        assert table[(4, 0)].label == "TypeI(1)"
        assert table[(0, 2)].label == "TypeI(0)"
        assert table[(4, 10)].label == "TypeII(0)"
        assert table[(20, 10)].label == "TypeI(2)"

    def test_exact_arithmetic_wide_range(self):
        for mp in quantization_table(-6, 6):
            s1, s2 = int(mp.sigma1), int(mp.sigma2)
            assert (s1 - s2) ** 2 == 4 * s1 + 2 * s2
            assert s1 % 4 == 0
            assert s2 % 2 == 0
            assert (s1, s2) != (0, 0)
            assert s1 >= 0 and s2 >= 0

    def test_sorted_and_deduplicated(self):
        table = quantization_table(-6, 6)
        pairs = [(mp.sigma1, mp.sigma2) for mp in table]
        assert pairs == sorted(pairs)
        assert len(pairs) == len(set(pairs))

    def test_bad_range(self):
        with pytest.raises(ValueError):
            quantization_table(3, -3)


def _reference_lattice(m_lo, m_hi):
    """The two families written out as nested loops, key (|m|, rank, m)."""
    out = []
    for m in range(m_lo, m_hi + 1):
        for rank, family in enumerate(("I", "II")):
            if family == "I":
                pair = (2 * m * (3 * m - 1), 2 * (3 * m - 1) * (m - 1))
            else:
                pair = (2 * (3 * m - 2) * (m - 1), 2 * (3 * m - 5) * (m - 1))
            if pair != (0, 0) and min(pair) >= 0:
                out.append((pair, (abs(m), rank, m), family, m))
    return out


def _reference_table(m_min, m_max):
    chosen = {}
    for pair, key, family, m in _reference_lattice(m_min, m_max):
        if pair not in chosen or key < chosen[pair][0]:
            chosen[pair] = (key, family, m)
    return sorted((MassPair(p[0], p[1], fam, m, 0.0) for p, (_, fam, m) in chosen.items()),
                  key=lambda mp: (mp.sigma1, mp.sigma2))


def _reference_classify(s1, s2, tol):
    """The full scan: every lattice pair with |m| <= span, nearest in the
    l-infinity distance, ties to the smallest (|m|, rank, m) as in
    _reference_lattice's key."""
    span = int(math.ceil(math.sqrt(max(abs(s1), abs(s2), 1.0)))) + 2
    m = np.tile(np.arange(-span, span + 1), 2)
    rank = np.repeat([0, 1], m.size // 2)
    pair1 = np.where(rank == 0, 2 * m * (3 * m - 1), 2 * (3 * m - 2) * (m - 1))
    pair2 = np.where(rank == 0, 2 * (3 * m - 1) * (m - 1), 2 * (3 * m - 5) * (m - 1))
    dist = np.maximum(np.abs(s1 - pair1), np.abs(s2 - pair2))
    admissible = ((pair1 != 0) | (pair2 != 0)) & (np.minimum(pair1, pair2) >= 0)
    best = np.flatnonzero(admissible & (dist == dist[admissible].min()))
    i = best[np.lexsort((m[best], rank[best], np.abs(m[best])))[0]]
    family, m, dist = ("I", "II")[rank[i]], int(m[i]), float(dist[i])
    return MassPair(s1, s2, *((family, m) if dist <= tol else (None, None)), dist)


# d = sigma1 - sigma2 of every lattice pair with |d| <= 600: I(m) is
# d = 6m - 2, II(m) is d = 6m - 6, and d = 0 is the excluded origin
_ADMISSIBLE_D = [d for d in range(-600, 601) if d % 6 in (0, 4) and d != 0]


def _family_of(d):
    return ("I", (d + 2) // 6) if d % 6 == 4 else ("II", d // 6 + 1)


class TestLatticeEnumeration:
    def test_no_integer_m_gives_a_negative_entry(self):
        for d in _ADMISSIBLE_D:
            s1, s2 = radial._pair(d)
            assert s1 - s2 == d
            assert min(s1, s2) >= 0

    @pytest.mark.parametrize("m_min, m_max", [(-3, 3), (-6, 6), (0, 0), (2, 9), (-9, -2)])
    def test_table_matches_reference(self, m_min, m_max):
        assert quantization_table(m_min, m_max) == _reference_table(m_min, m_max)

    def test_classifier_matches_reference(self, rng):
        pairs = [(float(mp.sigma1), float(mp.sigma2)) for mp in quantization_table(-5, 5)]
        points = [tuple(p) for p in rng.uniform(-5.0, 130.0, size=(300, 2))]
        # on the lattice, a hair off it, and on the midpoints between any
        # two pairs, where the l-infinity distance can tie
        points += [(a + e, b - e) for a, b in pairs for e in (0.0, 0.049, 0.051)]
        points += [(0.5 * (a + c), 0.5 * (b + d))
                   for i, (a, b) in enumerate(pairs) for c, d in pairs[i + 1:]]
        points += [(2.0, 1.0), (0.0, 0.0), (-3.0, 7.0)]
        for s1, s2 in points:
            for tol in (0.05, 1e9):
                assert classify_mass_pair(s1, s2, tol) == _reference_classify(s1, s2, tol)

    def test_classifier_matches_reference_at_every_scale(self, rng):
        # log-uniform scales from 1e-2 to 1e5, either sign, and the same
        # points rounded to integers, where the l-infinity distance ties
        scale = 10.0 ** rng.uniform(-2.0, 5.0, size=(400, 1))
        points = scale * rng.uniform(-0.3, 1.0, size=(400, 2))
        for s1, s2 in [*points, *np.round(points)]:
            for tol in (0.05, 1e9):
                assert classify_mass_pair(s1, s2, tol) == _reference_classify(s1, s2, tol)


class TestLatticeProperties:
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.sampled_from(_ADMISSIBLE_D), st.floats(1e-3, 0.5),
           st.floats(-0.99, 0.99), st.floats(-0.99, 0.99))
    def test_classifier_round_trip(self, d, tol, f1, f2):
        # other pairs lie at l-infinity distance >= 1, as their d differ by >= 2
        s1, s2 = radial._pair(d)
        e1, e2 = f1 * tol, f2 * tol
        mp = classify_mass_pair(s1 + e1, s2 + e2, tol)
        assert (mp.family, mp.m) == _family_of(d)
        assert mp.distance == pytest.approx(max(abs(e1), abs(e2)), abs=1e-10)

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.integers(-60, 60), st.integers(-60, 60))
    def test_table_row_count(self, a, b):
        m_min, m_max = min(a, b), max(a, b)
        # two pairs per m, minus the origin II(1) when the range holds m = 1
        assert len(quantization_table(m_min, m_max)) == (
            2 * (m_max - m_min + 1) - (m_min <= 1 <= m_max))


class TestClassify:
    def test_near_liouville_mass(self):
        mp = classify_mass_pair(3.9986, 0.001, 0.01)
        assert (mp.family, mp.m) == ("I", 1)
        assert mp.distance == pytest.approx(0.0014, abs=1e-10)

    def test_far_from_lattice(self):
        assert classify_mass_pair(7.0, 7.0, 0.01).family is None

    def test_origin_excluded(self):
        mp = classify_mass_pair(0.0, 0.0, 0.01)
        assert mp.family is None
        # nearest admissible neighbors are (4, 0) and (0, 2), both at
        # l-infinity distance >= 2
        assert mp.distance >= 2.0

    def test_label(self):
        assert MassPair(1.0, 1.0, None, None, 9.9).label == "none"
        assert MassPair(4, 0, "I", 1, 0.0).label == "TypeI(1)"

    def test_shooting_feeds_classifier(self):
        p = shoot(10.0, 1.0, 0.0, 1.0, 1e-4)
        mp = classify_mass_pair(float(p.sigma1[-1]), float(p.sigma2[-1]), 0.05)
        assert (mp.family, mp.m) == ("I", 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("which", ["sigma1", "sigma2"])
    def test_non_finite_mass_is_rejected(self, which, bad):
        masses = {"sigma1": 4.0, "sigma2": 0.0, which: bad}
        with pytest.raises(ValueError, match=r"sigma1 = .*, sigma2 = .*: masses must be finite"):
            classify_mass_pair(masses["sigma1"], masses["sigma2"])

    def test_tie_breaks_toward_smaller_m(self):
        # (2, 1) is equidistant (l-inf distance 2) from (0, 2) = TypeI(0)
        # and (4, 0) = TypeI(1); the smaller |m| wins
        mp = classify_mass_pair(2.0, 1.0, tol=3.0)
        assert (mp.family, mp.m) == ("I", 0)
        assert mp.distance == pytest.approx(2.0)

    @pytest.mark.parametrize("s1, s2", [(1e10, 0.0), (1e300, 0.0)])
    def test_huge_masses_return_at_once(self, s1, s2):
        # a full scan over every |m| <= span takes 0.6 s in pure Python at
        # 1e10 and never returns at 1e300, whose pairs near d = sigma1 -
        # sigma2 do not fit in a double
        t0 = time.perf_counter()
        mp = classify_mass_pair(s1, s2)
        assert time.perf_counter() - t0 < 0.05
        assert mp.family is None
        if s1 < 1e100:
            assert mp == _reference_classify(s1, s2, 0.05)
        else:
            # every pair has sigma1 - sigma2 = d and sigma1 + sigma2 =
            # (d^2 - d)/3, so its distance is at least (|1e300 - d| +
            # |1e300 - (d^2 - d)/3|)/2, about 5e299 at best
            assert mp.distance == pytest.approx(5e299, rel=1e-12)


_REAL_SHOOT = radial.shoot


def _count_shoots(monkeypatch):
    """Route radial.shoot through a recorder; returns the list of
    (alpha, step) pairs shot, in order."""
    shot = []

    def counted(alpha, h1, h2, r_max, step):
        shot.append((alpha, step))
        return _REAL_SHOOT(alpha, h1, h2, r_max, step)

    monkeypatch.setattr(radial, "shoot", counted)
    return shot


def _rk4_steps(shot):
    """Fixed steps integrated by the recorded shots, all out to r = 1."""
    return sum(radial.step_count(1.0, step) for _, step in shot)


def _liouville_root(alpha, h1):
    # Liouville: u(1) = alpha - 2 log(1 + h1 e^alpha / 8) in closed form
    return alpha - 2.0 * math.log1p(h1 * math.exp(alpha) / 8.0)


# the zero-boundary problems of perfbench's radial-shoot workload
_BRACKETS = [(1.0, 0.0, (0.0, 0.5)), (1.0, 0.0, (2.0, 4.0)), (1.0, 1.0, (2.0, 4.0)),
             (2.0, 1.0, (1.0, 4.0)), (0.5, 0.0, (2.0, 6.0))]


class TestDirichlet:
    def test_balanced_weights_give_trivial_solution(self):
        alpha, prof = dirichlet_alpha(1.0, 1.0, bracket=(-1.0, 1.0))
        assert abs(alpha) < 1e-8
        assert abs(prof.u[-1]) < 1e-8

    def test_nontrivial_boundary_match(self):
        # h2 > h1: positive equilibrium level, boundary zero forces a
        # genuinely nonconstant profile
        alpha, prof = dirichlet_alpha(1.0, 2.0, bracket=(0.3, 8.0))
        assert abs(prof.u[-1]) < 1e-8
        assert np.abs(prof.u).max() > 1e-2
        res, lhs = pohozaev_residual_profile(prof)
        assert (np.abs(res[1:]) / (1.0 + np.abs(lhs[1:]))).max() < 1e-6

    @pytest.mark.parametrize("h1, h2, bracket", [(1.0, 1.0, (0.0, 1.0)),
                                                  (2.0, 1.0, (1.0, 4.0))])
    def test_returns_the_deciding_shoot(self, monkeypatch, h1, h2, bracket):
        shot = _count_shoots(monkeypatch)
        alpha, prof = dirichlet_alpha(h1, h2, bracket=bracket)
        # the returned profile is the deciding fine shot's: no (alpha, step)
        # pair is shot twice
        assert (alpha, 1e-3) in shot
        assert len(shot) == len(set(shot))
        assert prof.step == 1e-3
        assert np.array_equal(prof.u, _REAL_SHOOT(alpha, h1, h2, 1.0, 1e-3).u)

    @pytest.mark.parametrize("h1, h2, bracket", _BRACKETS)
    def test_profile_is_the_vector_form_rk4(self, h1, h2, bracket):
        alpha, prof = dirichlet_alpha(h1, h2, bracket=bracket)
        for name, ref in zip(("u", "w", "sigma1", "sigma2"),
                             _reference_rk4(alpha, h1, h2, 1.0, 1e-3)):
            assert getattr(prof, name).tobytes() == ref.tobytes(), name

    @pytest.mark.parametrize("h1, h2, bracket", _BRACKETS)
    def test_converges_in_few_shoots(self, monkeypatch, h1, h2, bracket):
        shot = _count_shoots(monkeypatch)
        alpha, prof = dirichlet_alpha(h1, h2, bracket=bracket)
        # five fine shots' worth; the fine search alone takes 7 000-14 000
        assert _rk4_steps(shot) <= 5000
        assert type(alpha) is float
        assert bracket[0] < alpha < bracket[1]
        assert abs(prof.u[-1]) < 1e-10
        if h2 == 0.0:
            assert abs(_liouville_root(alpha, h1)) < 1e-8

    def test_capped_fine_search_raises(self, monkeypatch):
        # two shots inside the bracket do not converge, and nothing found
        # there is an answer: the bracket midpoint 2.5606 has u(1) = -0.293,
        # the root is alpha = 1.74217
        monkeypatch.setattr(radial, "_MAX_SHOOTS", 2)
        shot = _count_shoots(monkeypatch)
        with pytest.raises(ValueError, match=r"^bracket \(1\.0, 4\.0\): .* after 2 fine shots"):
            dirichlet_alpha(2.0, 1.0, bracket=(1.0, 4.0))
        # the capped coarse search (both ends, two shots) hands over to the
        # fine one: both ends and two shots, and no shot at a midpoint
        coarse, fine = shot[:4], shot[4:]
        assert {step for _, step in coarse} == {5e-3}
        assert {step for _, step in fine} == {1e-3}
        assert [a for a, _ in fine[:2]] == [1.0, 4.0]
        assert len(fine) == 4
        assert len(shot) == len(set(shot))

    # the coarse step's Liouville root on (2, 4) is 3.842189134, the fine
    # step's 3.842188716: a bracket end between them straddles u(1) = 0 at
    # one step and not at the other
    _BETWEEN_ROOTS = 3.8421889

    def test_the_end_lies_between_the_coarse_and_fine_roots(self):
        # u(1) falls with alpha, so the coarse shot at the end is positive
        # and the fine one negative
        def u1(step):
            return float(shoot(self._BETWEEN_ROOTS, 1.0, 0.0, 1.0, step).u[-1])
        assert u1(5e-3) > 0.0 > u1(1e-3)

    def test_coarse_ends_that_miss_the_root_search_at_the_fine_step(self, monkeypatch):
        shot = _count_shoots(monkeypatch)
        alpha, prof = dirichlet_alpha(1.0, 0.0, bracket=(2.0, self._BETWEEN_ROOTS))
        assert abs(prof.u[-1]) < 1e-10
        assert abs(_liouville_root(alpha, 1.0)) < 1e-8
        assert [step for _, step in shot[:2]] == [5e-3, 5e-3]
        assert {step for _, step in shot[2:]} == {1e-3}

    def test_polish_leaving_the_bracket_falls_back_to_the_fine_search(self, monkeypatch):
        # the coarse root lies inside, the fine root below lo: the polish
        # steps out, and the fine ends do not straddle u(1) = 0
        shot = _count_shoots(monkeypatch)
        lo = self._BETWEEN_ROOTS
        with pytest.raises(ValueError, match="does not straddle"):
            dirichlet_alpha(1.0, 0.0, bracket=(lo, 4.0))
        # the polish's one fine shot, then the fine search's ends
        (polished, step), *ends = shot[-3:]
        assert step == 1e-3 and lo < polished < 4.0
        assert ends == [(lo, 1e-3), (4.0, 1e-3)]

    def test_bad_bracket(self):
        with pytest.raises(ValueError, match="bracket"):
            dirichlet_alpha(1.0, 2.0, bracket=(5.0, 8.0))

    @pytest.mark.parametrize("bracket", [(4.0, 2.0), (2.0, 2.0)])
    def test_unordered_bracket_is_rejected(self, bracket):
        # a reversed bracket is not sorted: it once returned an unconverged
        # alpha = 3.7157 with u(1) = 0.087 after one shot
        with pytest.raises(ValueError, match=r"bracket \(.*\) must be ordered"):
            dirichlet_alpha(1.0, 0.0, bracket=bracket)

    @pytest.mark.parametrize("bracket", [(2.0, math.nan), (math.nan, 4.0),
                                         (-math.inf, 4.0), (2.0, math.inf)])
    def test_non_finite_bracket_end_is_rejected(self, monkeypatch, bracket):
        shot = _count_shoots(monkeypatch)
        with pytest.raises(ValueError, match=r"bracket \(.*\) must have finite ends"):
            dirichlet_alpha(1.0, 0.0, bracket=bracket)
        assert shot == []
