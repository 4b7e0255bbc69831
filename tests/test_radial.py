import math

import numpy as np
import pytest

from tzlab import radial
from tzlab import (MassPair, StepTooLarge, TrajectoryOverflow,
                   classify_mass_pair, dirichlet_alpha, limit_mass_relation,
                   liouville_bubble, liouville_mass, pohozaev_residual_profile,
                   quantization_table, shoot)


class TestShoot:
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
        with pytest.raises(StepTooLarge):
            shoot(10.0, 1.0, 1.0, 1.0, 1e-2)

    def test_alpha_overflow(self):
        with pytest.raises(TrajectoryOverflow):
            shoot(351.0, 1.0, 0.0, 1.0, 1e-4)
        with pytest.raises(TrajectoryOverflow):
            shoot(-701.0, 1.0, 0.0, 1.0, 1e-4)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            shoot(0.0, 0.0, 1.0, 1.0, 1e-3)
        with pytest.raises(ValueError):
            shoot(0.0, 1.0, -1.0, 1.0, 1e-3)
        with pytest.raises(ValueError):
            shoot(0.0, 1.0, 1.0, -1.0, 1e-3)


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


class TestDirichlet:
    def test_balanced_weights_give_trivial_solution(self):
        alpha, prof = dirichlet_alpha(1.0, 1.0, bracket=(-1.0, 1.0), step=1e-3)
        assert abs(alpha) < 1e-8
        assert abs(prof.u[-1]) < 1e-8

    def test_nontrivial_boundary_match(self):
        # h2 > h1: positive equilibrium level, boundary zero forces a
        # genuinely nonconstant profile
        alpha, prof = dirichlet_alpha(1.0, 2.0, bracket=(0.3, 8.0), step=1e-3)
        assert abs(prof.u[-1]) < 1e-8
        assert np.abs(prof.u).max() > 1e-2
        res, lhs = pohozaev_residual_profile(prof)
        assert (np.abs(res[1:]) / (1.0 + np.abs(lhs[1:]))).max() < 1e-6

    @pytest.mark.parametrize("h1, h2, bracket", [(1.0, 1.0, (0.0, 1.0)),
                                                  (2.0, 1.0, (1.0, 4.0))])
    def test_returns_the_deciding_shoot(self, monkeypatch, h1, h2, bracket):
        shot = []
        real = radial.shoot

        def counted(alpha, *args):
            shot.append(alpha)
            return real(alpha, *args)

        monkeypatch.setattr(radial, "shoot", counted)
        alpha, prof = dirichlet_alpha(h1, h2, bracket=bracket, step=1e-3)
        # the returned profile is the deciding shoot's: no alpha is shot twice
        assert alpha in shot
        assert len(shot) == len(set(shot))
        assert np.array_equal(prof.u, real(alpha, h1, h2, 1.0, 1e-3).u)

    def test_bad_bracket(self):
        with pytest.raises(ValueError, match="bracket"):
            dirichlet_alpha(1.0, 2.0, bracket=(5.0, 8.0), step=1e-3)
