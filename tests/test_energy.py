import numpy as np
import pytest

from tzlab import (MTCoefficients, Params, build_grid, build_bubble,
                   check_spread, constant_field, default_join_config,
                   energy_I, energy_J, field_from_function, fit_slope,
                   improved_mt_deficit, integrate, liouville_bubble,
                   mt_deficit, residual_J)

from conftest import smooth_field


@pytest.fixture
def unit_params(grid64):
    one = constant_field(grid64, 1.0)
    return Params(4.0 * np.pi, 2.0 * np.pi, one, one)


class TestParams:
    def test_rejects_nonpositive_h(self, grid64):
        one = constant_field(grid64, 1.0)
        with pytest.raises(ValueError, match="positive"):
            Params(1.0, 1.0, constant_field(grid64, 0.0), one)

    def test_rejects_subnormal_h(self, grid64):
        one = constant_field(grid64, 1.0)
        tiny = np.finfo(float).tiny
        with pytest.raises(ValueError, match="h2 must be at least the smallest normal"):
            Params(1.0, 1.0, one, constant_field(grid64, tiny / 2))
        Params(1.0, 1.0, one, constant_field(grid64, tiny))

    def test_rejects_negative_rho(self, grid64):
        one = constant_field(grid64, 1.0)
        with pytest.raises(ValueError, match="rho1"):
            Params(-1.0, 1.0, one, one)

    def test_coefficients_validation(self):
        with pytest.raises(ValueError):
            MTCoefficients(-1.0, 0.0)
        with pytest.raises(ValueError):
            MTCoefficients(np.inf, 0.0)


class TestEnergyJ:
    def test_zero_field(self, grid64, unit_params):
        assert energy_J(constant_field(grid64, 0.0), unit_params) == pytest.approx(0.0, abs=1e-12)

    def test_any_constant(self, grid64, unit_params):
        for c in (-7.0, 0.3, 12.0):
            assert energy_J(constant_field(grid64, c), unit_params) == pytest.approx(0.0, abs=1e-9)

    def test_pure_dirichlet(self, grid64):
        one = constant_field(grid64, 1.0)
        p = Params(0.0, 0.0, one, one)
        u = field_from_function(grid64, lambda x, y: np.cos(2 * np.pi * x))
        assert energy_J(u, p) == pytest.approx(np.pi**2, rel=1e-8)

    def test_shift_invariance(self, grid64, rng):
        h1 = smooth_field(grid64, rng, amplitude=0.4) + 1.2
        h2 = smooth_field(grid64, rng, amplitude=0.4) + 1.2
        p = Params(5.0, 3.0, h1, h2)
        u = smooth_field(grid64, rng, amplitude=2.0)
        base = energy_J(u, p)
        for c in (-40.0, 1e-3, 55.0):
            assert energy_J(u + c, p) == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_stable_at_extreme_bubbles(self, rng):
        # lambda = 1e4 drives u to about -37 and -2u to about +74
        grid = build_grid(64)
        zeta = default_join_config(grid, 1, 1, 0.5)
        u = build_bubble(zeta, 1.0e4, grid)
        one = constant_field(grid, 1.0)
        val = energy_J(u, Params(10.0, 5.0, one, one))
        assert np.isfinite(val)


class TestResidualJ:
    def test_constant_solution_for_constant_h(self, grid64, unit_params):
        r = residual_J(constant_field(grid64, 0.0), unit_params)
        assert np.abs(r.values).max() < 1e-12

    def test_zero_mean(self, grid64, unit_params, rng):
        for _ in range(5):
            u = smooth_field(grid64, rng, amplitude=1.5)
            assert abs(integrate(residual_J(u, unit_params))) < 1e-10

    def test_shift_invariance(self, grid64, unit_params, rng):
        u = smooth_field(grid64, rng)
        r0 = residual_J(u, unit_params)
        r1 = residual_J(u + 13.0, unit_params)
        assert np.abs(r0.values - r1.values).max() < 1e-9

    def test_gradient_consistency(self, grid64, rng):
        # central differences of the energy against the L^2 gradient
        eps = 1e-4
        for _ in range(20):
            h1 = smooth_field(grid64, rng, amplitude=0.3) + 1.5
            h2 = smooth_field(grid64, rng, amplitude=0.3) + 1.5
            p = Params(float(rng.uniform(0, 8 * np.pi)), float(rng.uniform(0, 4 * np.pi)), h1, h2)
            u = smooth_field(grid64, rng)
            v = smooth_field(grid64, rng)
            fd = (energy_J(u + eps * v, p) - energy_J(u - eps * v, p)) / (2 * eps)
            analytic = integrate(residual_J(u, p) * v)
            assert fd == pytest.approx(analytic, rel=1e-5)


class TestEnergyI:
    def test_zero(self, grid64):
        one = constant_field(grid64, 1.0)
        assert energy_I(constant_field(grid64, 0.0), 5.0, one) == pytest.approx(0.0, abs=1e-12)

    def test_matches_energy_J_at_rho2_zero(self, grid64, rng):
        h1 = smooth_field(grid64, rng, amplitude=0.4) + 1.2
        h2 = smooth_field(grid64, rng, amplitude=0.4) + 1.2
        p = Params(6.0, 0.0, h1, h2)
        for _ in range(3):
            u = smooth_field(grid64, rng, amplitude=1.5)
            assert energy_I(u, 6.0, h1) == pytest.approx(energy_J(u, p), rel=1e-12, abs=1e-12)

    def test_bounded_drift_along_bubbles_at_sharp_constant(self):
        # at rho = 8 pi the log-integral gain exactly cancels the Dirichlet
        # growth, so I along the concentrating family moves by O(1) only
        grid = build_grid(256)
        one = constant_field(grid, 1.0)
        vals = []
        for lam in (10.0, 100.0):
            u = liouville_bubble(np.log(8.0 * lam**2), grid, center=(0.25, 0.25))
            vals.append(energy_I(u, 8.0 * np.pi, one))
        assert abs(vals[1] - vals[0]) < 5.0


class TestMTDeficit:
    def test_zero_on_constants(self, grid64):
        c = MTCoefficients(8.0 * np.pi, 4.0 * np.pi)
        assert mt_deficit(constant_field(grid64, 0.0), c) == pytest.approx(0.0, abs=1e-12)
        assert mt_deficit(constant_field(grid64, 17.0), c) == pytest.approx(0.0, abs=1e-9)

    def test_shift_invariance(self, grid64, rng):
        c = MTCoefficients(7.0, 2.0)
        u = smooth_field(grid64, rng, amplitude=2.0)
        base = mt_deficit(u, c)
        assert mt_deficit(u + 31.0, c) == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_reduces_to_energy_I_without_minus_exponent(self, grid64, rng):
        # both reduce to 1/2 |grad|^2 - a1 log int e^{u - ubar}
        one = constant_field(grid64, 1.0)
        a1 = 5.5
        for _ in range(3):
            u = smooth_field(grid64, rng, amplitude=1.5)
            lhs = mt_deficit(u, MTCoefficients(a1, 0.0))
            rhs = energy_I(u, a1, one)
            assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)

    def test_monotone_in_a1(self, grid64, rng):
        for _ in range(5):
            u = smooth_field(grid64, rng, amplitude=2.0)
            # log int e^{u - ubar} > 0 by Jensen for nonconstant u
            d1 = mt_deficit(u, MTCoefficients(2.0, 1.0))
            d2 = mt_deficit(u, MTCoefficients(6.0, 1.0))
            assert d2 < d1

    def test_bounded_at_sharp_plus_constant(self):
        # slope in log lambda cancels at a1 = 8 pi: values at lambda 100
        # and 1000 differ by O(1)
        grid = build_grid(512)
        zeta = default_join_config(grid, 1, 1, 0.0)
        c = MTCoefficients(8.0 * np.pi, 0.0)
        d100 = mt_deficit(build_bubble(zeta, 100.0, grid), c)
        d1000 = mt_deficit(build_bubble(zeta, 1000.0, grid), c)
        assert abs(d1000 - d100) < 5.0


class TestImprovedDeficit:
    def test_zero_on_constants(self, grid64):
        assert improved_mt_deficit(constant_field(grid64, 0.0), 2, 1) == pytest.approx(0.0, abs=1e-12)

    def test_validation(self, grid64):
        u = constant_field(grid64, 0.0)
        with pytest.raises(ValueError):
            improved_mt_deficit(u, 0, 1)
        with pytest.raises(ValueError):
            improved_mt_deficit(u, 1, 1, eps=0.0)

    def test_bounded_along_spread_two_bubble_family(self):
        # two separated plus bubbles spread over k = 2 regions: the improved
        # deficit with (k, l) = (2, 1) gains slope 16 k pi eps >= 0, so it
        # does not diverge to -infinity along the family
        grid = build_grid(256)
        eps = 0.05
        lambdas = (25.0, 50.0, 100.0, 200.0, 400.0)
        zeta = default_join_config(grid, 2, 1, 0.0)
        values = [improved_mt_deficit(build_bubble(zeta, lam, grid), 2, 1, eps)
                  for lam in lambdas]
        slope = fit_slope(lambdas, values)
        assert slope >= -0.5
        assert slope == pytest.approx(16.0 * 2 * np.pi * eps, abs=1.5)

    def test_single_bubble_fails_two_region_spread(self):
        # the operation still evaluates, but the spread hypothesis that
        # justifies the k = 2 constant is reported false
        grid = build_grid(256)
        zeta = default_join_config(grid, 1, 1, 0.0)
        u = build_bubble(zeta, 200.0, grid)
        val = improved_mt_deficit(u, 2, 1)
        assert np.isfinite(val)
        left = grid.X < 0.5
        assert check_spread(u, [left, ~left], "plus", 0.4) is False


class TestCheckSpread:
    def test_uniform_mass_on_halves(self, grid64):
        u = constant_field(grid64, 0.0)
        left = grid64.X < 0.5
        assert check_spread(u, [left, ~left], "plus", 0.4) is True

    def test_concentrated_bubble_fails_far_region(self):
        grid = build_grid(128)
        zeta = default_join_config(grid, 1, 1, 0.0)  # plus point in the lower-left
        u = build_bubble(zeta, 100.0, grid)
        near = (grid.X < 0.5) & (grid.Y < 0.5)
        far = (grid.X >= 0.5) & (grid.Y >= 0.5)
        assert check_spread(u, [near, far], "plus", 0.4) is False

    def test_two_bubbles_spread(self):
        grid = build_grid(256)
        zeta = default_join_config(grid, 2, 1, 0.0)
        u = build_bubble(zeta, 200.0, grid)
        regions = [grid.X < 0.5, grid.X >= 0.5]
        # oracle: direct quadrature of the two masses
        w = np.exp(u.values - u.values.max())
        fracs = sorted(w[reg].sum() / w.sum() for reg in regions)
        assert fracs[0] > 0.4
        assert check_spread(u, regions, "plus", 0.4) is True

    def test_validation(self, grid64):
        u = constant_field(grid64, 0.0)
        with pytest.raises(ValueError, match="nonempty"):
            check_spread(u, [], "plus", 0.1)
        left = grid64.X < 0.6
        right = grid64.X > 0.4
        with pytest.raises(ValueError, match="disjoint"):
            check_spread(u, [left, right], "plus", 0.1)
        with pytest.raises(ValueError, match="plus"):
            check_spread(u, [left], "sideways", 0.1)
