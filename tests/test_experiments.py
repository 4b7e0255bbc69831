import math

import numpy as np
import pytest

from tzlab import (Params, build_bubble, build_grid,
                   bubble_energy_sweep, component_asymptotics_sweep,
                   constant_field, default_join_config, alpha_sweep, energy_J,
                   field_from_recipe, fit_slope, grad_norm_sq, integrate,
                   mt_threshold_scan, SweepResult)
from tzlab import experiments
from tzlab.experiments import (_MAX_LAMBDA_DX, _bubble_components, _lambda_dx,
                               _log_weighted_integral)


def log_integral(exponent, weight, dx2):
    """log int weight * e^exponent, stabilized by the max exponent."""
    shift = exponent.max()
    return float(shift + np.log(np.sum(weight * np.exp(exponent - shift)) * dx2))


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

    def test_bound_is_ten_percent_or_half(self):
        lams = np.array([10.0, 100.0])
        assert SweepResult.from_values("x", lams, [0.0, 0.0], 20.0).bound == pytest.approx(2.0)
        assert SweepResult.from_values("x", lams, [0.0, 0.0], -3.0).bound == 0.5
        assert SweepResult.from_values("x", lams, None, -30.0).bound == pytest.approx(3.0)

    @pytest.mark.parametrize("predicted", [-np.inf, np.inf, np.nan])
    def test_overflowed_prediction_never_passes(self, predicted):
        # max(0.5, 10% of an infinite prediction) is a bound any fit would meet
        lams = np.array([10.0, 100.0])
        res = SweepResult.from_values("x", lams, 5.0 * np.log(lams + 1), predicted)
        assert res.passed is False

    def test_requires_increasing_lambdas(self):
        with pytest.raises(ValueError, match="increasing"):
            SweepResult.from_values("x", [10.0, 10.0], [0.0, 0.0], 1.0)
        # also when the sweep is skipped
        with pytest.raises(ValueError, match="increasing"):
            SweepResult.from_values("x", [400.0, 25.0], None, 1.0)

    def test_requires_two_lambdas(self):
        # one lambda would fit a 0/0 slope
        with pytest.raises(ValueError, match="at least two"):
            SweepResult.from_values("x", [25.0], [0.0], 1.0)


class TestAdequacy:
    def test_rule(self):
        g = build_grid(256)
        assert _lambda_dx(g, (25.0, 400.0)) == 400.0 / 256 <= _MAX_LAMBDA_DX
        assert _lambda_dx(g, (25.0, 600.0)) == 600.0 / 256 > _MAX_LAMBDA_DX

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


# every layout default_join_config accepts
LAYOUTS = [(k, l, s) for s in (0.0, 0.5, 1.0) for k in range(1, 5) for l in range(1, 5)
           if k + l <= 4 or s in (0.0, 1.0)]


class TestSlopeLaws:
    """Every predicted slope against its law, written out here.

    At n = 8, lambda * dx > 2: the sweeps are skipped, so no bubble is
    evaluated, and a skipped sweep still carries its predicted slope.
    """

    LAMBDAS = (25.0, 50.0)

    @pytest.mark.parametrize("sharp", [False, True], ids=["10pi-5pi", "8kpi-4lpi"])
    @pytest.mark.parametrize("k,l,s", LAYOUTS)
    def test_bubble_energy(self, k, l, s, sharp):
        g = build_grid(8)
        one = constant_field(g, 1.0)
        rho1, rho2 = (8 * k * np.pi, 4 * l * np.pi) if sharp else (10 * np.pi, 5 * np.pi)
        res = bubble_energy_sweep(default_join_config(g, k, l, s),
                                  Params(rho1, rho2, one, one), self.LAMBDAS)
        assert res.skipped
        law = (16 * k * np.pi - 2 * rho1) * (s < 1) + (4 * l * np.pi - rho2) * (s > 0)
        assert res.predicted_slope == law
        if sharp:
            assert res.predicted_slope == 0.0

    @pytest.mark.parametrize("k,l,s", LAYOUTS)
    def test_components(self, k, l, s):
        g = build_grid(8)
        sweeps = component_asymptotics_sweep(default_join_config(g, k, l, s), g, self.LAMBDAS)
        plus = {"gradient": 16 * k * np.pi, "log_int_plus": -2.0,
                "log_int_minus": 8.0, "mean": -4.0}
        minus = {"gradient": 4 * l * np.pi, "log_int_plus": 2.0,
                 "log_int_minus": -2.0, "mean": 2.0}
        assert list(sweeps) == list(plus)
        for name, res in sweeps.items():
            assert res.skipped
            assert res.predicted_slope == plus[name] * (s < 1) + minus[name] * (s > 0)

    def test_threshold_cells(self):
        g = build_grid(8)
        a1 = [8 * np.pi + d for d in (-np.pi, -1.0, 0.0, 1.0, np.pi)]
        a2 = [4 * np.pi + d for d in (-np.pi / 2, -0.5, 0.0, 0.5, np.pi / 2)]
        scan = mt_threshold_scan(a1, a2, g, self.LAMBDAS)
        assert scan.skipped
        for i, c1 in enumerate(a1):
            for j, c2 in enumerate(a2):
                assert scan.plus[i][j].predicted_slope == -2 * (c1 - 8 * np.pi)
                assert scan.minus[i][j].predicted_slope == -(c2 - 4 * np.pi)


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

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "cos-sin"])
    @pytest.mark.parametrize("k,l,s", [
        (1, 1, 0.5), (1, 1, 0.3), (1, 1, 0.7), (2, 1, 0.5), (2, 2, 0.5), (1, 2, 0.5),
        (1, 1, 0.0), (1, 1, 1.0),
    ])
    def test_rows_match_build_bubble(self, k, l, s, weighted):
        g = build_grid(128)
        h1 = h2 = 1.0
        if weighted:
            h1 = field_from_recipe("1+0.5*cos(2*pi*x)", g).values
            h2 = field_from_recipe("1+0.5*sin(2*pi*y)", g).values
        zeta = default_join_config(g, k, l, s)
        rows = _bubble_components(zeta, g, self.LAMBDAS, h1, h2)
        dx2 = g.dx**2
        for row, lam in zip(rows, self.LAMBDAS):
            phi = build_bubble(zeta, lam, g)
            ref = (0.5 * grad_norm_sq(phi), log_integral(phi.values, h1, dx2),
                   log_integral(-2.0 * phi.values, h2, dx2), integrate(phi))
            np.testing.assert_allclose(row, ref, rtol=1e-13, atol=0.0)
            # the rows share one half-spectrum buffer pair; the Dirichlet
            # integral and the mean are still those of a fresh per-row call
            assert (row[0], row[3]) == (ref[0], ref[3])

    @pytest.mark.parametrize("k,l,s", [
        (1, 1, 0.5), (1, 1, 0.3), (1, 1, 0.7), (2, 1, 0.5), (2, 2, 0.5), (1, 2, 0.5),
        (1, 1, 0.0), (1, 1, 1.0), (2, 2, 0.0), (2, 2, 1.0),
    ])
    def test_row_mean_is_integrate_of_build_bubble(self, k, l, s):
        g = build_grid(256)
        zeta = default_join_config(g, k, l, s)
        rows = _bubble_components(zeta, g, experiments.DEFAULT_LAMBDAS)
        means = [integrate(build_bubble(zeta, lam, g)) for lam in experiments.DEFAULT_LAMBDAS]
        assert rows[:, 3].tobytes() == np.array(means).tobytes()

    @pytest.mark.parametrize("bad", [0.0, -1.0], ids=["minus-inf", "nan"])
    def test_non_finite_phi_is_rejected(self, monkeypatch, bad):
        g = build_grid(16)

        def broken(*args):
            e_phi = np.ones((g.n, g.n))
            e_phi[3, 5] = bad  # log gives -inf or NaN there
            return e_phi, np.ones((g.n, g.n))

        monkeypatch.setattr(experiments, "_bubble_exps", broken)
        zeta = default_join_config(g, 1, 1, 0.5)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^field values must be finite$"):
                _bubble_components(zeta, g, (1.0, 2.0))

    @pytest.mark.parametrize("n", [8, 128, 512])
    def test_weighted_integral_matches_exact_sum(self, n, rng):
        # the einsum reduction against a correctly rounded sum of products,
        # at test_rows_match_build_bubble's tolerance
        g = build_grid(n)
        weight = field_from_recipe("1+0.5*sin(2*pi*y)", g).values
        density = np.exp(rng.standard_normal((n, n)))
        dx2 = g.dx**2
        ref = np.log(math.fsum((weight * density).ravel().tolist()) * dx2)
        assert _log_weighted_integral(density, weight, dx2) == pytest.approx(ref, rel=1e-13)
        ref = np.log(2.5 * math.fsum(density.ravel().tolist()) * dx2)
        assert _log_weighted_integral(density, 2.5, dx2) == pytest.approx(ref, rel=1e-13)

    def test_threshold_cells_match_mt_deficit(self):
        g = build_grid(128)
        a1 = (8 * np.pi - 2, 8 * np.pi + 2)
        a2 = (4 * np.pi - 1, 4 * np.pi + 1)
        scan = mt_threshold_scan(a1, a2, g, self.LAMBDAS)
        one = constant_field(g, 1.0)
        for cells, s in ((scan.plus, 0.0), (scan.minus, 1.0)):
            zeta = default_join_config(g, 1, 1, s)
            bubbles = [build_bubble(zeta, lam, g) for lam in self.LAMBDAS]
            # deficits near zero cancel O(10) terms: bound the error by those
            scale = max(0.5 * grad_norm_sq(phi) for phi in bubbles)
            for i, c1 in enumerate(a1):
                for j, c2 in enumerate(a2):
                    ref = [energy_J(phi, Params(c1, c2, one, one)) for phi in bubbles]
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

    def test_skipped_from_components_measured_once_per_family(self, monkeypatch):
        calls = []

        def counted(zeta, grid, lambdas, *weights):
            calls.append(zeta.s)
            return _bubble_components(zeta, grid, lambdas, *weights)

        monkeypatch.setattr(experiments, "_bubble_components", counted)
        a1, a2 = [6 * np.pi, 8 * np.pi, 10 * np.pi], [3 * np.pi, 4 * np.pi]
        scan = mt_threshold_scan(a1, a2, build_grid(8), (25.0, 100.0, 400.0))
        assert scan.skipped and calls == [0.0, 1.0]
        assert all(cell.skipped for family in (scan.plus, scan.minus)
                   for row in family for cell in row)
        assert scan.plus_crossing is None and scan.minus_crossing is None


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
        # the masses carry Simpson's O(dt^4) error in e^{2t}: 1.1e-11 at
        # step 1e-3, below roundoff at 1e-4
        rows = alpha_sweep((0.0,), h1=1.0, h2=1.0, step=1e-4)
        row = rows[0]
        assert row.sigma1 == pytest.approx(0.5, abs=1e-12)
        assert row.sigma2 == pytest.approx(0.5, abs=1e-12)
        assert row.family is None

    def test_reports_relation_value(self):
        rows = alpha_sweep((12.0,), h1=1.0, h2=1.0, step=2e-4)
        assert np.isfinite(rows[0].relation)
        assert rows[0].error is None

    def test_row_errors_do_not_stop_sweep(self):
        # alpha = 351 lies outside the window [-700, 350]
        rows = alpha_sweep((0.0, 351.0, 20.0), h1=1.0, h2=0.0, step=1e-3)
        assert rows[0].error is None and rows[2].error is None
        assert rows[1].error.startswith("TrajectoryOverflow: ")

    def test_sweep_wide_value_error_propagates(self):
        # a step above r_max is wrong for every alpha: no rows
        with pytest.raises(ValueError, match="0 < step <= r_max"):
            alpha_sweep((0.0,), step=2.0)
