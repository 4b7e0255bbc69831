import math

import numpy as np
import pytest

from tzlab import radial
from tzlab import (MassPair, StepTooLarge, TrajectoryOverflow,
                   classify_mass_pair, dirichlet_alpha, limit_mass_relation,
                   liouville_bubble, liouville_mass, pohozaev_residual_profile,
                   quantization_table, shoot)


def _reference_rk4(alpha, h1, h2, r_max, step):
    """(u, u', sigma1, sigma2) of shoot's scheme in vector form: the series
    start, then RK4 with a tuple-returning right-hand side f and one numpy
    row per step.  shoot must reproduce it bit for bit."""
    h = float(step)
    ea, ema = math.exp(alpha), math.exp(-2.0 * alpha)
    c = h1 * ea - h2 * ema
    b = h1 * ea + 2.0 * h2 * ema

    def series(r):
        u = alpha - c * r**2 / 4.0 + b * c * r**4 / 64.0
        w = -c * r / 2.0 + b * c * r**3 / 16.0
        s1 = h1 * ea * (r**2 / 2.0 - c * r**4 / 16.0 + (c * c / 32.0 + b * c / 64.0) * r**6 / 6.0)
        s2 = h2 * ema * (r**2 / 2.0 + c * r**4 / 8.0 + (c * c / 8.0 - b * c / 32.0) * r**6 / 6.0)
        return u, w, s1, s2

    def f(r, u, w, s1, s2):
        eu = math.exp(u)
        em = math.exp(-2.0 * u)
        return (w, -w / r - h1 * eu + h2 * em, h1 * eu * r, h2 * em * r)

    n_total = int(round(r_max / h))
    rs = np.arange(n_total + 1) * h
    out = np.empty((n_total + 1, 4))
    out[0] = (alpha, 0.0, 0.0, 0.0)
    for j in range(1, 4):
        out[j] = series(rs[j])
    u, w, s1, s2 = out[3]
    r = rs[3]
    for j in range(4, n_total + 1):
        k1 = f(r, u, w, s1, s2)
        k2 = f(r + h / 2, u + h / 2 * k1[0], w + h / 2 * k1[1], s1 + h / 2 * k1[2], s2 + h / 2 * k1[3])
        k3 = f(r + h / 2, u + h / 2 * k2[0], w + h / 2 * k2[1], s1 + h / 2 * k2[2], s2 + h / 2 * k2[3])
        k4 = f(r + h, u + h * k3[0], w + h * k3[1], s1 + h * k3[2], s2 + h * k3[3])
        u += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        w += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        s1 += h / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        s2 += h / 6 * (k1[3] + 2 * k2[3] + 2 * k3[3] + k4[3])
        r = rs[j]
        out[j] = (u, w, s1, s2)
    return out.T


class TestShoot:
    @pytest.mark.parametrize("alpha, h2, step", [
        (alpha, h2, step)
        for alpha in (-3.0, 0.0, 5.0, 8.0, 12.0) for h2 in (0.0, 1.0) for step in (1e-4, 1e-3)
        if (alpha, step) != (12.0, 1e-3)  # StepTooLarge, see test_step_precondition
    ])
    def test_bitwise_equal_to_vector_rk4(self, alpha, h2, step):
        p = shoot(alpha, 1.0, h2, 1.0, step)
        assert np.array_equal(p.r, np.arange(len(p.r)) * step)
        for name, ref in zip(("u", "du", "sigma1", "sigma2"),
                             _reference_rk4(alpha, 1.0, h2, 1.0, step)):
            got = getattr(p, name)
            assert got.dtype == ref.dtype == np.float64
            assert np.array_equal(got, ref), name
            assert got.tobytes() == ref.tobytes(), name

    def test_constant_solution(self):
        # h1 = h2 = 1, alpha = 0: the forcing vanishes identically
        p = shoot(0.0, 1.0, 1.0, 1.0, 1e-3)
        assert np.abs(p.u).max() < 1e-14
        assert np.abs(p.du).max() < 1e-14
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
        # r u' + sigma1 - sigma2 = 0 along the trajectory
        step = 1e-4
        p = shoot(8.0, 1.0, 1.0, 1.0, step)
        gap = p.r[1:] * p.du[1:] + p.sigma1[1:] - p.sigma2[1:]
        assert np.abs(gap).max() <= 10.0 * step**2

    def test_initial_conditions(self):
        p = shoot(5.0, 1.0, 1.0, 1.0, 1e-3)
        assert p.u[0] == 5.0
        assert p.du[0] == 0.0
        assert p.sigma1[0] == 0.0 and p.sigma2[0] == 0.0

    def test_sigma_monotone_nonnegative(self):
        p = shoot(6.0, 1.0, 1.0, 1.0, 1e-3)
        assert np.all(np.diff(p.sigma1) >= 0)
        assert np.all(np.diff(p.sigma2) >= 0)
        assert p.sigma1[0] == 0.0

    def test_step_precondition(self):
        for alpha, step in ((10.0, 1e-2), (12.0, 1e-3), (-3.0, 1e-2)):
            with pytest.raises(StepTooLarge):
                shoot(alpha, 1.0, 1.0, 1.0, step)

    def test_alpha_overflow(self):
        with pytest.raises(TrajectoryOverflow):
            shoot(351.0, 1.0, 0.0, 1.0, 1e-4)
        with pytest.raises(TrajectoryOverflow):
            shoot(-701.0, 1.0, 0.0, 1.0, 1e-4)

    @pytest.mark.parametrize("h1, h2", [(1e300, 0.0), (1.0, 1e300)])
    def test_overflow_during_integration(self, h1, h2):
        # the series start is already infinite at its first node, which is named
        where = r"u\(0\.001\) = " + ("inf" if h2 == 0.0 else "-inf")
        with pytest.raises(TrajectoryOverflow, match=where + r" left \[-700\.0, 350\.0\]$"):
            shoot(0.0, h1, h2, 1.0, 1e-3)

    @pytest.mark.parametrize("args, message", [
        # the series start leaves the window at its first node, u(0.001) near 3e290
        ((5.0, 1e150, 0.0, 1.0, 1e-3), r"u\(0\.001\) = 3\.44164e\+290 left \[-700\.0, 350\.0\]$"),
        # the series start u(0.03) = -432 is inside it, but e^{-2u} overflows
        ((1.0, 1.0, 1e6, 1.0, 1e-2), r"exp overflowed in the step from u\(0\.03\) = -432\.16"),
        # alpha = -400 is inside it too; e^{-2 alpha} overflows before the start
        ((-400.0, 1.0, 0.0, 1.0, 1e-175), r"exp overflowed in the step from u\(0\) = -400$"),
    ], ids=["series_start_beyond_window", "exp_minus_2u_inside_window", "exp_minus_2alpha"])
    def test_exp_overflow_is_typed(self, args, message):
        # a bare OverflowError from math.exp, or an overflow warning (an error
        # under this suite's filterwarnings), fails
        with pytest.raises(TrajectoryOverflow, match=message):
            shoot(*args)

    def test_r_max_must_exceed_the_series_region(self):
        # three steps end at r_max, inside the series start
        with pytest.raises(ValueError, match="series-start region"):
            shoot(0.0, 1.0, 0.0, 3e-3, 1e-3)

    @pytest.mark.parametrize("step", [7e-4, 3e-4])
    def test_step_must_divide_r_max(self, step):
        # round(1/step) steps would end at r = 1.0003 and 0.9999
        with pytest.raises(ValueError, match="does not divide"):
            shoot(2.0, 1.0, 0.0, 1.0, step)

    @pytest.mark.parametrize("r_max, step", [(1.0, 1e-4), (1.0, 2e-4), (1.0, 5e-4),
                                             (1.0, 1e-3), (2.0, 5e-4), (0.3, 1e-3)])
    def test_dividing_steps_end_at_r_max(self, r_max, step):
        assert shoot(2.0, 1.0, 0.0, r_max, step).r_max == pytest.approx(r_max, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            shoot(0.0, 0.0, 1.0, 1.0, 1e-3)
        with pytest.raises(ValueError):
            shoot(0.0, 1.0, -1.0, 1.0, 1e-3)
        with pytest.raises(ValueError):
            shoot(0.0, 1.0, 1.0, -1.0, 1e-3)
        for r_max, step in ((1.0, 0.0), (math.inf, 1e-3), (1.0, math.inf), (1.0, math.nan),
                            (1e300, 1e-300)):
            with pytest.raises(ValueError, match="0 < step <= r_max"):
                shoot(0.0, 1.0, 1.0, r_max, step)


class TestPohozaev:
    def test_constant_solution_algebra(self):
        # u = 0, h1 = h2 = 1 at r = 1/2: both sides equal 2 pi * 3/8
        p = shoot(0.0, 1.0, 1.0, 1.0, 1e-3)
        res, lhs = pohozaev_residual_profile(p)
        i = 500
        assert p.r[i] == pytest.approx(0.5)
        assert lhs[i] == pytest.approx(2.0 * np.pi * 0.375, rel=1e-12)
        assert lhs[i] - res[i] == pytest.approx(2.0 * np.pi * 0.375, rel=1e-12)
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
    span = int(math.ceil(math.sqrt(max(abs(s1), abs(s2), 1.0)))) + 2
    best = None
    for pair, key, family, m in _reference_lattice(-span, span):
        dist = max(abs(s1 - pair[0]), abs(s2 - pair[1]))
        if best is None or (dist, *key) < best[0]:
            best = ((dist, *key), family, m, dist)
    _, family, m, dist = best
    return MassPair(s1, s2, *((family, m) if dist <= tol else (None, None)), dist)


class TestLatticeEnumeration:
    def test_no_integer_m_gives_a_negative_entry(self):
        for m in range(-50, 51):
            for family in ("I", "II"):
                assert min(radial._family_pair(family, m)) >= 0

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

    def test_tie_breaks_toward_smaller_m(self):
        # (2, 1) is equidistant (l-inf distance 2) from (0, 2) = TypeI(0)
        # and (4, 0) = TypeI(1); the smaller |m| wins
        mp = classify_mass_pair(2.0, 1.0, tol=3.0)
        assert (mp.family, mp.m) == ("I", 0)
        assert mp.distance == pytest.approx(2.0)


_REAL_SHOOT = radial.shoot


def _count_shoots(monkeypatch):
    """Route radial.shoot through a recorder; returns the list of alphas shot."""
    shot = []

    def counted(alpha, *args):
        shot.append(alpha)
        return _REAL_SHOOT(alpha, *args)

    monkeypatch.setattr(radial, "shoot", counted)
    return shot


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
        # the returned profile is the deciding shoot's: no alpha is shot twice
        assert alpha in shot
        assert len(shot) == len(set(shot))
        assert np.array_equal(prof.u, _REAL_SHOOT(alpha, h1, h2, 1.0, 1e-3).u)

    @pytest.mark.parametrize("h1, h2, bracket", [
        (1.0, 0.0, (0.0, 0.5)), (1.0, 0.0, (2.0, 4.0)), (1.0, 1.0, (2.0, 4.0)),
        (2.0, 1.0, (1.0, 4.0)), (0.5, 0.0, (2.0, 6.0)),
    ])
    def test_converges_in_few_shoots(self, monkeypatch, h1, h2, bracket):
        shot = _count_shoots(monkeypatch)
        alpha, prof = dirichlet_alpha(h1, h2, bracket=bracket)
        assert len(shot) <= 16
        assert type(alpha) is float
        assert bracket[0] < alpha < bracket[1]
        assert abs(prof.u[-1]) < 1e-10
        if h2 == 0.0:
            # Liouville: u(1) = alpha - 2 log(1 + h1 e^alpha / 8)
            assert abs(alpha - 2.0 * math.log1p(h1 * math.exp(alpha) / 8.0)) < 1e-8

    def test_shoot_cap_falls_back_to_bracket_midpoint(self, monkeypatch):
        monkeypatch.setattr(radial, "_MAX_SHOOTS", 2)
        shot = _count_shoots(monkeypatch)
        alpha, prof = dirichlet_alpha(2.0, 1.0, bracket=(1.0, 4.0))
        # both ends, the two capped shots, then the fallback
        assert len(shot) == 5 and shot[-1] == alpha
        assert type(alpha) is float
        assert 1.0 < alpha < 4.0
        assert prof.alpha == alpha
        assert np.array_equal(prof.u, _REAL_SHOOT(alpha, 2.0, 1.0, 1.0, 1e-3).u)

    def test_bad_bracket(self):
        with pytest.raises(ValueError, match="bracket"):
            dirichlet_alpha(1.0, 2.0, bracket=(5.0, 8.0))
