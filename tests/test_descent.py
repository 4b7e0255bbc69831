import numpy as np
import pytest

from tzlab import (LineSearchStall, NonConvergence, Params, build_grid,
                   constant_field, energy_J, field_from_function,
                   field_from_recipe, integrate, mean, minimize, residual_J)
from tzlab import descent

from conftest import smooth_field


@pytest.fixture
def unit_params(grid64):
    one = constant_field(grid64, 1.0)
    return Params(4.0 * np.pi, 2.0 * np.pi, one, one)


@pytest.fixture
def wavy_params(grid64):
    h1 = field_from_function(grid64, lambda x, y: 1.0 + 0.5 * np.cos(2 * np.pi * x))
    h2 = constant_field(grid64, 1.0)
    return Params(4.0 * np.pi, 2.0 * np.pi, h1, h2)


class TestMinimize:
    def test_constant_h_converges_to_zero(self, grid64, unit_params, rng):
        u0 = smooth_field(grid64, rng, amplitude=0.1)
        sol = minimize(unit_params, u0, tol_residual=1e-10)
        assert sol.converged
        assert sol.residual_norm < 1e-10
        assert np.abs(sol.u.values).max() < 1e-6

    def test_pure_dirichlet(self, grid64, rng):
        one = constant_field(grid64, 1.0)
        p = Params(0.0, 0.0, one, one)
        sol = minimize(p, smooth_field(grid64, rng), tol_residual=1e-10)
        assert sol.converged
        assert np.abs(sol.u.values).max() < 1e-8

    def test_nonconstant_h_solution(self, wavy_params, grid64, rng):
        sol = minimize(wavy_params, smooth_field(grid64, rng, amplitude=0.1),
                       tol_residual=1e-9)
        assert sol.converged
        assert sol.residual_norm < 1e-8
        assert np.abs(sol.u.values).max() > 1e-3  # genuinely nonconstant
        # independent certificate: the residual field is the equation itself
        r = residual_J(sol.u, wavy_params)
        assert np.sqrt(integrate(r * r)) < 1e-8

    def test_energy_agrees_across_resolutions(self, wavy_params):
        fine_grid = build_grid(128)
        h1 = field_from_function(fine_grid, lambda x, y: 1.0 + 0.5 * np.cos(2 * np.pi * x))
        fine_params = Params(4.0 * np.pi, 2.0 * np.pi, h1, constant_field(fine_grid, 1.0))
        rng1, rng2 = np.random.default_rng(3), np.random.default_rng(4)
        sol64 = minimize(wavy_params, smooth_field(wavy_params.grid, rng1, amplitude=0.1))
        sol128 = minimize(fine_params, smooth_field(fine_grid, rng2, amplitude=0.1))
        assert sol64.energy == pytest.approx(sol128.energy, abs=1e-4)

    def test_mean_gauge(self, grid64, wavy_params, rng):
        sol = minimize(wavy_params, smooth_field(grid64, rng, amplitude=0.1))
        assert abs(mean(sol.u)) < 1e-12

    def test_gauge_uniqueness_under_constant_shift(self, grid64, wavy_params, rng):
        sol1 = minimize(wavy_params, smooth_field(grid64, rng, amplitude=0.1))
        sol2 = minimize(wavy_params, sol1.u + 7.5)
        gap = sol1.u - sol2.u
        assert np.sqrt(integrate(gap * gap)) < 1e-6

    def test_stationarity_certificate(self, grid64, wavy_params, rng):
        tol = 1e-9
        sol = minimize(wavy_params, smooth_field(grid64, rng, amplitude=0.1),
                       tol_residual=tol)
        r = residual_J(sol.u, wavy_params)
        for _ in range(10):
            v = smooth_field(grid64, rng)
            vnorm = np.sqrt(integrate(v * v))
            assert abs(integrate(r * v)) <= tol * vnorm

    def test_energy_monotone_along_trajectory(self, grid64, wavy_params, rng):
        # rerunning with growing iteration caps replays the same
        # deterministic trajectory, so best-iterate energies decrease
        u0 = smooth_field(grid64, rng, amplitude=0.5)
        energies = []
        for cap in range(1, 12):
            try:
                sol = minimize(wavy_params, u0, max_iters=cap, tol_residual=1e-14)
            except NonConvergence as exc:
                sol = exc.best
            energies.append(sol.energy)
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 1e-10 * (1.0 + abs(a))

    def test_nonconvergence_carries_best_iterate(self, grid64, wavy_params, rng):
        with pytest.raises(NonConvergence) as info:
            minimize(wavy_params, smooth_field(grid64, rng),
                     max_iters=2, tol_residual=1e-12)
        best = info.value.best
        assert best.iterations == 2
        assert not best.converged
        assert np.isfinite(best.energy)

    def test_line_search_stall(self, grid64, rng, monkeypatch):
        one = constant_field(grid64, 1.0)
        p = Params(0.0, 0.0, one, one)
        # every trial step from 1e6 down to 1e5 overshoots the quadratic
        monkeypatch.setattr(descent, "_STEP0", 1e6)
        monkeypatch.setattr(descent, "_MIN_STEP", 1e5)
        with pytest.raises(LineSearchStall):
            minimize(p, smooth_field(grid64, rng, amplitude=5.0), tol_residual=1e-14)

    def test_warns_outside_coercive_range(self, grid64, rng):
        one = constant_field(grid64, 1.0)
        p = Params(9.0 * np.pi, 2.0 * np.pi, one, one)
        with pytest.warns(UserWarning, match="coercive"):
            try:
                minimize(p, smooth_field(grid64, rng, amplitude=0.01),
                         max_iters=3)
            except NonConvergence:
                pass

    def test_config_validation(self, grid64, unit_params):
        with pytest.raises(ValueError, match="tol_residual"):
            minimize(unit_params, constant_field(grid64, 0.0), tol_residual=0.0)

    def test_coercive_sample_robustness(self, rng):
        # light version of the full coercive-grid robustness check
        grid = build_grid(32)
        h1 = field_from_function(grid, lambda x, y: 1.0 + 0.5 * np.cos(2 * np.pi * x))
        h2 = field_from_function(grid, lambda x, y: 1.0 + 0.5 * np.sin(2 * np.pi * y))
        for rho in ((2 * np.pi, 3 * np.pi), (6 * np.pi, np.pi)):
            p = Params(rho[0], rho[1], h1, h2)
            for seed in range(2):
                u0 = smooth_field(grid, np.random.default_rng(seed), amplitude=0.2)
                sol = minimize(p, u0, tol_residual=1e-8)
                assert sol.converged and sol.residual_norm < 1e-7


class TestSpectralIterate:
    """The descent's tracked transform and Dirichlet quadratic against the
    energy layer's own evaluators."""

    def test_tracked_state_matches_energy_layer(self, grid64, wavy_params, rng):
        with pytest.raises(NonConvergence) as info:
            minimize(wavy_params, smooth_field(grid64, rng, amplitude=0.5),
                     max_iters=5, tol_residual=1e-14)
        sol = info.value.best
        assert sol.energy == pytest.approx(energy_J(sol.u, wavy_params), rel=1e-12)
        r = residual_J(sol.u, wavy_params)
        assert sol.residual_norm == pytest.approx(np.sqrt(integrate(r * r)), rel=1e-12)

    def test_one_transform_pair_per_iteration(self, grid64, wavy_params, rng, monkeypatch):
        counts = {"rfft2": 0, "irfft2": 0}

        def counted(name):
            fn = getattr(np.fft, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in counts:
            monkeypatch.setattr(np.fft, name, counted(name))
        # an oversized first step: most trial steps are rejected
        monkeypatch.setattr(descent, "_STEP0", 64.0)
        with pytest.raises(NonConvergence) as info:
            minimize(wavy_params, smooth_field(grid64, rng, amplitude=0.5),
                     max_iters=8, tol_residual=1e-14)
        best = info.value.best
        assert best.backtracks > best.iterations
        assert best.energy_evals == 1 + best.iterations + best.backtracks
        # set-up transforms u and the first density term; then one pair per
        # accepted step, none per backtrack
        assert counts == {"rfft2": best.iterations + 2, "irfft2": best.iterations}

    def test_coercive_grid_iteration_counts(self):
        # iteration counts of the 3x3 coercive grid at n=64 from one fixed
        # start, as the full-spectrum, one-FFT-per-trial descent counted them
        pinned = {(2, 1): 19, (2, 2): 31, (2, 3): 61, (4, 1): 28, (4, 2): 38,
                  (4, 3): 67, (6, 1): 55, (6, 2): 71, (6, 3): 111}
        grid = build_grid(64)
        h1 = field_from_recipe("1+0.5*cos(2*pi*x)", grid)
        h2 = field_from_recipe("1+0.5*sin(2*pi*y)", grid)
        u0 = smooth_field(grid, np.random.default_rng(1000), amplitude=0.2)
        counts = {}
        for m1, m2 in pinned:
            sol = minimize(Params(m1 * np.pi, m2 * np.pi, h1, h2), u0,
                           tol_residual=1e-9, max_iters=4000)
            counts[m1, m2] = sol.iterations
        assert counts == pinned
