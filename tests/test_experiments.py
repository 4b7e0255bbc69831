import numpy as np
import pytest

from tzlab import (MTCoefficients, Params, build_bubble, build_grid,
                   bubble_energy_sweep, component_asymptotics_sweep,
                   constant_field, default_join_config, alpha_sweep, energy_J,
                   field_from_recipe, fit_slope, grad_norm_sq, mt_deficit,
                   mt_threshold_scan, SweepResult)
from tzlab.experiments import grid_adequate, parallel_map, thread_count


class TestFitSlope:
    def test_exact_on_synthetic_data(self):
        lambdas = np.array([10.0, 30.0, 90.0, 270.0])
        values = 3.5 * np.log(lambdas + 1.0) - 2.0
        assert fit_slope(lambdas, values) == pytest.approx(3.5, rel=1e-12)


class TestSweepResult:
    def test_pass_rule_with_nonzero_prediction(self):
        lams = np.array([10.0, 100.0])
        good = SweepResult.from_values("x", lams, 5.0 * np.log(lams + 1), 5.0)
        assert good.passed and good.rel_error < 1e-12
        off = SweepResult.from_values("x", lams, 7.0 * np.log(lams + 1), 5.0)
        assert not off.passed

    def test_pass_rule_with_zero_prediction(self):
        lams = np.array([10.0, 100.0])
        flat = SweepResult.from_values("x", lams, 0.3 * np.log(lams + 1), 0.0)
        assert flat.passed  # |fitted| = 0.3 <= 0.5
        steep = SweepResult.from_values("x", lams, 0.8 * np.log(lams + 1), 0.0)
        assert not steep.passed

    def test_requires_increasing_lambdas(self):
        with pytest.raises(ValueError, match="increasing"):
            SweepResult.from_values("x", [10.0, 10.0], [0.0, 0.0], 1.0)
        # also when the sweep is skipped
        with pytest.raises(ValueError, match="increasing"):
            SweepResult.from_values("x", [400.0, 25.0], None, 1.0)


class TestAdequacy:
    def test_rule(self):
        g = build_grid(256)
        assert grid_adequate(g, (25.0, 400.0))
        assert not grid_adequate(g, (25.0, 600.0))

    def test_skip_flag_propagates(self):
        g = build_grid(64)  # lambda 400 needs n >= 200
        one = constant_field(g, 1.0)
        p = Params(10 * np.pi, 5 * np.pi, one, one)
        res = bubble_energy_sweep(default_join_config(g, 1, 1, 0.5), p, (100.0, 400.0))
        assert res.skipped and not res.passed


class TestDefaultJoinConfig:
    @pytest.mark.parametrize("k, l", [(5, 1), (1, 5)])
    def test_at_most_four_points_per_species(self, k, l):
        with pytest.raises(ValueError, match="at most 4 points per species"):
            default_join_config(build_grid(64), k, l, 0.0)

    @pytest.mark.parametrize("k, l", [(3, 2), (2, 3), (4, 1)])
    def test_at_most_two_plus_two_between_the_endpoints(self, k, l):
        grid = build_grid(64)
        with pytest.raises(ValueError, match="at most 2 plus and 2 minus"):
            default_join_config(grid, k, l, 0.5)
        # at an endpoint one side is dead, so its sites may overlap the other's
        for s in (0.0, 1.0):
            zeta = default_join_config(grid, k, l, s)
            assert (zeta.k, zeta.l) == (k, l)


class TestComponentAsymptotics:
    def test_pure_plus_family(self):
        # s = 0: slopes (16 pi, -2, 8, -4)
        g = build_grid(128)
        sweeps = component_asymptotics_sweep(
            default_join_config(g, 1, 1, 0.0), g, (25.0, 50.0, 100.0, 200.0))
        assert sweeps["gradient"].predicted_slope == pytest.approx(16 * np.pi)
        assert sweeps["log_int_plus"].predicted_slope == -2.0
        assert sweeps["log_int_minus"].predicted_slope == 8.0
        assert sweeps["mean"].predicted_slope == -4.0
        for res in sweeps.values():
            assert res.passed, f"{res.name}: {res.fitted_slope} vs {res.predicted_slope}"

    def test_pure_minus_family(self):
        g = build_grid(128)
        sweeps = component_asymptotics_sweep(
            default_join_config(g, 1, 1, 1.0), g, (25.0, 50.0, 100.0, 200.0))
        assert sweeps["gradient"].predicted_slope == pytest.approx(4 * np.pi)
        assert sweeps["log_int_plus"].predicted_slope == 2.0
        assert sweeps["log_int_minus"].predicted_slope == -2.0
        assert sweeps["mean"].predicted_slope == 2.0
        for res in sweeps.values():
            assert res.passed

    def test_mixed_family_predictions(self):
        g = build_grid(128)
        sweeps = component_asymptotics_sweep(
            default_join_config(g, 1, 1, 0.5), g, (25.0, 50.0, 100.0, 200.0))
        assert sweeps["gradient"].predicted_slope == pytest.approx(20 * np.pi)
        assert sweeps["log_int_plus"].predicted_slope == 0.0
        assert sweeps["log_int_minus"].predicted_slope == 6.0
        assert sweeps["mean"].predicted_slope == -2.0

    def test_upper_half_refit_stability(self):
        # passing sweeps have reached the asymptotic regime: refitting on
        # the top half moves the slope by under 5 percent
        g = build_grid(128)
        lams = (25.0, 50.0, 100.0, 200.0)
        sweeps = component_asymptotics_sweep(default_join_config(g, 1, 1, 0.0), g, lams)
        for res in sweeps.values():
            assert res.passed
            upper = fit_slope(res.lambdas[2:], res.values[2:])
            assert abs(upper - res.fitted_slope) <= 0.05 * abs(res.fitted_slope)

    def test_grid_refinement_consistency(self):
        lams = (25.0, 50.0, 100.0, 200.0)
        slopes = {}
        for n in (256, 512):
            g = build_grid(n)
            sweeps = component_asymptotics_sweep(default_join_config(g, 1, 1, 0.0), g, lams)
            slopes[n] = {name: res.fitted_slope for name, res in sweeps.items()}
        for name in slopes[256]:
            assert slopes[512][name] == pytest.approx(slopes[256][name], rel=0.02)


class TestBubbleEnergySweep:
    def test_divergent_family(self):
        g = build_grid(128)
        one = constant_field(g, 1.0)
        p = Params(10 * np.pi, 5 * np.pi, one, one)
        res = bubble_energy_sweep(default_join_config(g, 1, 1, 0.5), p,
                                  (25.0, 50.0, 100.0, 200.0))
        assert res.predicted_slope == pytest.approx(-5 * np.pi)
        assert res.passed
        assert res.values[-1] < res.values[0]

    def test_sharp_pair_slope_cancels_in_asymptotic_window(self):
        # at rho = (8 pi, 4 pi) the predicted slope is exactly zero; the
        # fitted slope is flat once lambda clears the pre-asymptotic range
        g = build_grid(256)
        one = constant_field(g, 1.0)
        p = Params(8 * np.pi, 4 * np.pi, one, one)
        res = bubble_energy_sweep(default_join_config(g, 1, 1, 0.5), p,
                                  (100.0, 200.0, 400.0))
        assert res.predicted_slope == 0.0
        assert abs(res.fitted_slope) <= 0.5

    def test_two_plus_points(self):
        # k = 2, rho = (17 pi, 5 pi): slope algebra gives -3 pi; measured in
        # the asymptotic window
        g = build_grid(512)
        one = constant_field(g, 1.0)
        p = Params(17 * np.pi, 5 * np.pi, one, one)
        res = bubble_energy_sweep(default_join_config(g, 2, 1, 0.5), p,
                                  (100.0, 200.0, 400.0, 800.0))
        assert res.predicted_slope == pytest.approx(-3 * np.pi)
        assert abs(res.fitted_slope - res.predicted_slope) <= 0.1 * 3 * np.pi


class TestDeficitSweep:
    def test_plus_family_slope(self):
        # with unit weights J_rho is the MT deficit at (a1, a2) = (rho1, rho2)
        g = build_grid(128)
        one = constant_field(g, 1.0)
        zeta = default_join_config(g, 1, 1, 0.0)
        res = bubble_energy_sweep(zeta, Params(8 * np.pi + 2, 0.0, one, one),
                                  (25.0, 50.0, 100.0, 200.0))
        assert res.predicted_slope == pytest.approx(-4.0)
        assert abs(res.fitted_slope - res.predicted_slope) <= 0.5


class TestComponentPrimitive:
    """The sweeps' linear combinations against the reference functionals."""

    LAMBDAS = (25.0, 50.0, 100.0)

    def test_energy_sweep_matches_energy_J(self):
        g = build_grid(128)
        h1 = field_from_recipe("1+0.5*cos(2*pi*x)", g)
        h2 = field_from_recipe("1+0.5*sin(2*pi*y)", g)
        p = Params(40.0, 10.0, h1, h2)
        zeta = default_join_config(g, 1, 1, 0.3)
        res = bubble_energy_sweep(zeta, p, self.LAMBDAS)
        ref = [energy_J(build_bubble(zeta, lam, g), p) for lam in self.LAMBDAS]
        np.testing.assert_allclose(res.values, ref, rtol=1e-13, atol=0.0)

    def test_threshold_cells_match_mt_deficit(self):
        g = build_grid(128)
        a1 = (8 * np.pi - 2, 8 * np.pi + 2)
        a2 = (4 * np.pi - 1, 4 * np.pi + 1)
        scan = mt_threshold_scan(a1, a2, g, self.LAMBDAS)
        for cells, s in ((scan.plus, 0.0), (scan.minus, 1.0)):
            zeta = default_join_config(g, 1, 1, s)
            bubbles = [build_bubble(zeta, lam, g) for lam in self.LAMBDAS]
            # deficits near zero cancel O(10) terms: bound the error by those
            scale = max(0.5 * grad_norm_sq(phi) for phi in bubbles)
            for i, c1 in enumerate(a1):
                for j, c2 in enumerate(a2):
                    ref = [mt_deficit(phi, MTCoefficients(c1, c2)) for phi in bubbles]
                    np.testing.assert_allclose(cells[i][j].values, ref,
                                               rtol=0.0, atol=1e-13 * scale)


class TestThresholdScan:
    def test_crossings_on_half_pi_lattice(self):
        g = build_grid(256)
        a1 = [8 * np.pi + d for d in (-np.pi, -np.pi / 2, 0.0, np.pi / 2, np.pi)]
        a2 = [4 * np.pi + d for d in (-np.pi / 2, 0.0, np.pi / 2)]
        scan = mt_threshold_scan(a1, a2, g)
        assert scan.plus_crossing is not None
        assert abs(scan.plus_crossing - 8 * np.pi) <= np.pi / 2
        assert scan.minus_crossing is not None
        assert abs(scan.minus_crossing - 4 * np.pi) <= np.pi / 2

    def test_skip_on_inadequate_grid(self):
        g = build_grid(64)
        scan = mt_threshold_scan([8 * np.pi], [4 * np.pi], g, (400.0, 800.0))
        assert scan.skipped
        assert scan.plus[0][0].skipped


class TestAlphaSweep:
    def test_liouville_masses_approach_four(self):
        rows = alpha_sweep((6.0, 8.0, 10.0, 12.0), h1=1.0, h2=0.0, step=2e-4)
        sig = [r.sigma1 for r in rows]
        assert all(b > a for a, b in zip(sig, sig[1:]))
        assert all(s < 4.0 for s in sig)
        assert sig[-1] == pytest.approx(4.0, abs=1e-3)
        for row in rows:
            if row.alpha >= 8.0:
                assert (row.family, row.m) == ("I", 1)

    def test_constant_solution_row(self):
        rows = alpha_sweep((0.0,), h1=1.0, h2=1.0, step=1e-3)
        row = rows[0]
        assert row.sigma1 == pytest.approx(0.5, abs=1e-12)
        assert row.sigma2 == pytest.approx(0.5, abs=1e-12)
        assert row.family is None

    def test_reports_relation_value(self):
        rows = alpha_sweep((12.0,), h1=1.0, h2=1.0, step=2e-4)
        assert np.isfinite(rows[0].relation)
        assert rows[0].error is None

    def test_row_errors_do_not_stop_sweep(self):
        rows = alpha_sweep((0.0, 20.0), h1=1.0, h2=0.0, step=1e-3)
        assert rows[0].error is None
        assert rows[1].error is not None
        assert "StepTooLarge" in rows[1].error


class TestParallelMap:
    def test_order_preserved(self):
        out = parallel_map(lambda x: x * x, range(20))
        assert out == [x * x for x in range(20)]

    def test_thread_count_env(self, monkeypatch):
        monkeypatch.setenv("TZLAB_THREADS", "3")
        assert thread_count() == 3
        monkeypatch.setenv("TZLAB_THREADS", "0")
        assert thread_count() >= 1
        monkeypatch.setenv("TZLAB_THREADS", "zebra")
        with pytest.raises(ValueError, match="TZLAB_THREADS"):
            thread_count()

    def test_threaded_matches_serial(self, monkeypatch):
        g = build_grid(64)
        zeta = default_join_config(g, 1, 1, 0.5)
        lams = (10.0, 20.0, 40.0)
        monkeypatch.setenv("TZLAB_THREADS", "1")
        serial = component_asymptotics_sweep(zeta, g, lams)
        monkeypatch.setenv("TZLAB_THREADS", "4")
        threaded = component_asymptotics_sweep(zeta, g, lams)
        for name in serial:
            assert np.array_equal(serial[name].values, threaded[name].values)
