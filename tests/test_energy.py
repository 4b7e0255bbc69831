import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tzlab import (ExpUnderflow, JoinConfig, Params, ScalarField, build_grid,
                   build_bubble, constant_field, default_join_config, energy_J,
                   field_from_function, fit_slope, grad_norm_sq, integrate,
                   residual_J)
from tzlab.energy import _exp_integral, _potential

from conftest import node_coordinates, smooth_field


def deficit(u, a1, a2):
    """The Moser-Trudinger deficit with coefficients (a1, a2): J_rho at
    h1 = h2 = 1."""
    one = constant_field(u.grid, 1.0)
    return energy_J(u, Params(a1, a2, one, one))


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

    @pytest.mark.parametrize("name", ["rho1", "rho2"])
    @pytest.mark.parametrize("bad", [-1.0, np.inf, np.nan], ids=["negative", "inf", "nan"])
    def test_rejects_negative_or_non_finite_rho(self, grid64, name, bad):
        one = constant_field(grid64, 1.0)
        rho = {"rho1": 1.0, "rho2": 1.0, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be finite and nonnegative"):
            Params(rho["rho1"], rho["rho2"], one, one)

    @pytest.mark.parametrize("name", ["h1", "h2"])
    def test_rejects_weight_whose_integral_overflows(self, grid64, name):
        # the n^2 cells of weight * e^(u - max u) sum to at most n^2 max(h)
        one = constant_field(grid64, 1.0)
        largest = np.finfo(float).max / grid64.n**2
        above = constant_field(grid64, np.nextafter(largest, np.inf))
        weights = {"h1": one, "h2": one, name: above}
        with pytest.raises(ValueError, match=f"{name} must be at most the largest double"):
            Params(1.0, 1.0, weights["h1"], weights["h2"])
        weights[name] = constant_field(grid64, largest)
        p = Params(1.0, 1.0, weights["h1"], weights["h2"])
        assert np.isfinite(energy_J(constant_field(grid64, 0.0), p))


class TestExpIntegral:
    def test_zero_integral_underflowed(self):
        # every e^(x - max x) is 1 at the max, so only the weight can vanish
        with pytest.raises(ExpUnderflow, match="underflowed to zero"):
            _exp_integral(np.zeros(4), np.zeros(4), 0.25)

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_non_finite_integral_overflowed(self, bad):
        with pytest.raises(ExpUnderflow, match="overflowed") as info:
            _exp_integral(np.zeros(4), np.full(4, bad), 1.0)
        assert "underflow" not in str(info.value)


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

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_zero_rho_is_minus_laplacian(self, n, rng):
        # at rho = (0, 0) every entry of the potential's gradient is +-0.0,
        # so residual_J is the spectral -Lap u that the Laplacian tests read
        grid = build_grid(n)
        u = smooth_field(grid, rng, amplitude=3.0)
        h1, h2 = (smooth_field(grid, rng, amplitude=0.3) + 1.5 for _ in range(2))
        p = Params(0.0, 0.0, h1, h2)
        assert not np.any(_potential(u.values, p, grid.dx**2)[1])
        ref = np.fft.irfft2(grid.k2_half * np.fft.rfft2(u.values), s=(n, n))
        assert np.abs(residual_J(u, p).values - ref).max() <= 1e-12 * np.abs(ref).max()

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


@st.composite
def _problems(draw):
    """(u, Params) on an n = 8 or 16 grid: nodal values of u in [-3, 3], of
    the weights in [0.5, 2], and rho anywhere in the coercive region."""
    grid = build_grid(draw(st.sampled_from((8, 16))))

    def field(lo, hi):
        return ScalarField(grid, draw(arrays(np.float64, (grid.n, grid.n),
                                             elements=st.floats(lo, hi))))

    u, h1, h2 = field(-3.0, 3.0), field(0.5, 2.0), field(0.5, 2.0)
    rho1 = draw(st.floats(0.0, 8.0 * np.pi, exclude_max=True))
    rho2 = draw(st.floats(0.0, 4.0 * np.pi, exclude_max=True))
    return u, Params(rho1, rho2, h1, h2)


class TestProperties:
    @settings(max_examples=60, deadline=None, database=None)
    @given(_problems(), st.floats(-50.0, 50.0))
    def test_energy_shift_invariant(self, problem, c):
        u, p = problem
        assert energy_J(u + c, p) == pytest.approx(energy_J(u, p), rel=1e-9, abs=1e-9)

    @settings(max_examples=60, deadline=None, database=None)
    @given(_problems())
    def test_residual_integrates_to_zero(self, problem):
        u, p = problem
        r = residual_J(u, p)
        # roundoff of sums over n^2 terms as large as the residual itself
        assert abs(integrate(r)) <= 1e-13 * (1.0 + np.abs(r.values).max())


def energy_I(u, rho, h):
    """Single-exponent energy 1/2 int |grad u|^2 - rho (log int h e^u - ubar),
    by direct quadrature."""
    log_int = np.log(np.sum(h.values * np.exp(u.values)) * u.grid.dx**2)
    return 0.5 * grad_norm_sq(u) - rho * (log_int - integrate(u))


class TestEnergyI:
    """The single-exponent energy I_rho, which is J_rho at rho2 = 0."""

    def test_zero(self, grid64):
        one = constant_field(grid64, 1.0)
        p = Params(5.0, 0.0, one, one)
        assert energy_J(constant_field(grid64, 0.0), p) == pytest.approx(0.0, abs=1e-12)

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
        p = Params(8.0 * np.pi, 0.0, one, one)
        one_point = ((1.0, (0.25, 0.25)),)
        vals = []
        for lam in (10.0, 100.0):
            # the Liouville profile at alpha = log(8 lam^2), about (0.25, 0.25)
            u = build_bubble(JoinConfig(one_point, one_point, 0.0), lam, grid)
            vals.append(energy_J(u + np.log(8.0 * lam**2), p))
        assert abs(vals[1] - vals[0]) < 5.0


class TestMTDeficit:
    """The deficit 1/2 int |grad u|^2 - a1 log int e^{u - ubar}
    - a2/2 log int e^{-2(u - ubar)}, which is J_rho at unit weights."""

    def test_zero_on_constants(self, grid64):
        a1, a2 = 8.0 * np.pi, 4.0 * np.pi
        assert deficit(constant_field(grid64, 0.0), a1, a2) == pytest.approx(0.0, abs=1e-12)
        assert deficit(constant_field(grid64, 17.0), a1, a2) == pytest.approx(0.0, abs=1e-9)

    def test_shift_invariance(self, grid64, rng):
        u = smooth_field(grid64, rng, amplitude=2.0)
        base = deficit(u, 7.0, 2.0)
        assert deficit(u + 31.0, 7.0, 2.0) == pytest.approx(base, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("a1,a2", [(5.5, 3.0), (8.0 * np.pi, 4.0 * np.pi), (0.0, 2.0)],
                             ids=["interior", "sharp", "minus-only"])
    def test_is_the_centered_log_integral_deficit(self, grid64, rng, a1, a2):
        # D(u) in plain numpy: the Dirichlet term from the full fft2 and the
        # log-integrals of the centered field
        n = grid64.n
        k = 2.0 * np.pi * np.fft.fftfreq(n, d=1.0 / n)
        k2 = k[None, :] ** 2 + k[:, None] ** 2
        for _ in range(3):
            u = smooth_field(grid64, rng, amplitude=1.5)
            dirichlet = 0.5 * np.sum(k2 * np.abs(np.fft.fft2(u.values)) ** 2) / n**4
            centered = u.values - u.values.mean()
            log_plus = np.log(np.exp(centered).sum() / n**2)
            log_minus = np.log(np.exp(-2.0 * centered).sum() / n**2)
            d = dirichlet - a1 * log_plus - 0.5 * a2 * log_minus
            assert deficit(u, a1, a2) == pytest.approx(d, rel=1e-11, abs=1e-11)

    def test_monotone_in_a1(self, grid64, rng):
        for _ in range(5):
            u = smooth_field(grid64, rng, amplitude=2.0)
            # log int e^{u - ubar} > 0 by Jensen for nonconstant u
            d1 = deficit(u, 2.0, 1.0)
            d2 = deficit(u, 6.0, 1.0)
            assert d2 < d1

    def test_bounded_at_sharp_plus_constant(self):
        # slope in log lambda cancels at a1 = 8 pi: values at lambda 100
        # and 1000 differ by O(1)
        grid = build_grid(512)
        zeta = default_join_config(grid, 1, 1, 0.0)
        d100 = deficit(build_bubble(zeta, 100.0, grid), 8.0 * np.pi, 0.0)
        d1000 = deficit(build_bubble(zeta, 1000.0, grid), 8.0 * np.pi, 0.0)
        assert abs(d1000 - d100) < 5.0


def plus_mass_fractions(u, regions):
    """Share of the e^u mass in each region, by direct quadrature."""
    w = np.exp(u.values - u.values.max())
    return [w[reg].sum() / w.sum() for reg in regions]


class TestImprovedDeficit:
    """The deficit at the improved thresholds (8 k pi, 4 l pi), which hold
    for mass spread over k plus and l minus regions."""

    K2_L1 = (16.0 * np.pi, 4.0 * np.pi)

    def plus_family_slope(self, grid, k):
        lambdas = (25.0, 50.0, 100.0, 200.0, 400.0)
        zeta = default_join_config(grid, k, 1, 0.0)
        values = [deficit(build_bubble(zeta, lam, grid), *self.K2_L1) for lam in lambdas]
        return fit_slope(lambdas, values)

    def test_zero_on_constants(self, grid64):
        assert deficit(constant_field(grid64, 0.0), *self.K2_L1) == pytest.approx(0.0, abs=1e-12)

    def test_bounded_along_spread_two_bubble_family(self):
        # two separated plus bubbles spread over k = 2 regions: at a1 = 16 pi
        # the deficit keeps a bounded slope, so it does not diverge to
        # -infinity along the family
        slope = self.plus_family_slope(build_grid(256), 2)
        assert slope >= -0.5
        assert abs(slope) <= 1.5

    def test_single_bubble_fails_two_region_spread(self):
        # a single plus bubble is not spread over two regions, and at
        # a1 = 16 pi its deficit falls with slope -2 (16 pi - 8 pi)
        grid = build_grid(256)
        predicted = -16.0 * np.pi
        assert abs(self.plus_family_slope(grid, 1) - predicted) <= 0.10 * abs(predicted)
        u = build_bubble(default_join_config(grid, 1, 1, 0.0), 200.0, grid)
        left = node_coordinates(grid)[0] < 0.5
        assert min(plus_mass_fractions(u, [left, ~left])) < 0.4


class TestCheckSpread:
    """Where the bubble families put their e^u mass: the spread hypothesis
    of the improved thresholds."""

    def test_concentrated_bubble_fails_far_region(self):
        grid = build_grid(128)
        zeta = default_join_config(grid, 1, 1, 0.0)  # plus point in the lower-left
        u = build_bubble(zeta, 100.0, grid)
        X, Y = node_coordinates(grid)
        near = (X < 0.5) & (Y < 0.5)
        far = (X >= 0.5) & (Y >= 0.5)
        assert min(plus_mass_fractions(u, [near, far])) < 0.4

    def test_two_bubbles_spread(self):
        grid = build_grid(256)
        zeta = default_join_config(grid, 2, 1, 0.0)
        u = build_bubble(zeta, 200.0, grid)
        X = node_coordinates(grid)[0]
        regions = [X < 0.5, X >= 0.5]
        assert min(plus_mass_fractions(u, regions)) > 0.4
