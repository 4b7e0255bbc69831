import numpy as np
import pytest

from tzlab import (ExpUnderflow, Params, ScalarField, build_grid, constant_field, energy_J,
                   field_from_function, field_from_recipe, integrate, minimize,
                   residual_J)
from tzlab import descent
from tzlab.cli import _random_start
from tzlab.energy import _fresh_residual
from tzlab.surface import _half_spectrum

from conftest import smooth_field

# iteration counts of the H^1 steepest descent on the weighted 3x3 coercive
# grid at n=64 from the seed-1000 start used below
_STEEPEST_COUNTS = {(2, 1): 19, (2, 2): 31, (2, 3): 61, (4, 1): 28, (4, 2): 38,
                    (4, 3): 67, (6, 1): 55, (6, 2): 71, (6, 3): 111}


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
        assert abs(integrate(sol.u)) < 1e-12

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
            sol = minimize(wavy_params, u0, max_iters=cap, tol_residual=1e-14)
            energies.append(sol.energy)
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 1e-10 * (1.0 + abs(a))

    def test_nonconvergence_carries_best_iterate(self, grid64, wavy_params, rng):
        best = minimize(wavy_params, smooth_field(grid64, rng),
                        max_iters=2, tol_residual=1e-12)
        assert best.iterations == 2
        assert not best.converged
        assert np.isfinite(best.energy)

    def test_converged_is_decided_on_a_fresh_residual(self):
        # at 11 iterations the carried norm of this solve meets tol while a
        # fresh spectrum of the field reads above it; at every iteration cap
        # the verdict, and a converged stop's reported figure, are the fresh
        # residual's
        grid = build_grid(128)
        p = Params(4.0 * np.pi, 2.0 * np.pi, field_from_recipe("1+0.5*cos(2*pi*x)", grid),
                   field_from_recipe("1+0.5*sin(2*pi*y)", grid))
        u0 = _random_start(grid, 1257425741)
        stop = minimize(p, u0).iterations
        for k in range(stop + 1):
            sol = minimize(p, u0, max_iters=k)
            fresh = _fresh_residual(sol.u, p)[2]
            assert sol.converged == (fresh <= 1e-9), k
            if sol.converged:
                assert sol.residual_norm == fresh
        assert sol.converged and sol.iterations == stop

    @pytest.mark.parametrize("rho1,rho2", [(1.0, 1e308), (1e308, 1.0)])
    def test_floating_point_failure_is_exp_underflow(self, grid64, rho1, rho2):
        # a huge but finite rho overflows the gradient's scale factor or a
        # transform; the descent raises its typed error, not a numpy warning
        one = constant_field(grid64, 1.0)
        with pytest.raises(ExpUnderflow, match="^descent: "):
            minimize(Params(rho1, rho2, one, one), _random_start(grid64, 0))

    def test_line_search_stall(self, grid64, rng, monkeypatch):
        one = constant_field(grid64, 1.0)
        p = Params(0.0, 0.0, one, one)
        # every trial step from 1e6 down to 1e5 overshoots the quadratic
        monkeypatch.setattr(descent, "_STEP0", 1e6)
        monkeypatch.setattr(descent, "_MIN_STEP", 1e5)
        u0 = smooth_field(grid64, rng, amplitude=5.0)
        sol = minimize(p, u0, tol_residual=1e-14)
        # four rejected trials in the first iteration; the start is returned
        assert not sol.converged
        assert (sol.iterations, sol.energy_evals, sol.backtracks) == (1, 5, 4)
        assert np.array_equal(sol.u.values, u0.values - integrate(u0))
        assert sol.energy == pytest.approx(energy_J(u0, p), rel=1e-12)

    def test_config_validation(self, grid64, unit_params):
        for tol in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="tol_residual"):
                minimize(unit_params, constant_field(grid64, 0.0), tol_residual=tol)

    @pytest.mark.parametrize("m1,m2", [(7.5, 3.9), (7.9, 3.9)])
    def test_near_critical_convergence(self, grid64, m1, m2):
        # next to the thresholds 8 pi and 4 pi the Hessian -Lap - rho1 - 2 rho2
        # of the constant-weight solution u = 0 is nearly singular on the first
        # Fourier shell; the shifted H0 converges in 265 and 396 iterations,
        # the unshifted H^1 start needed 1351 and 1407.  The counts move with
        # roundoff in the Parseval sums
        one = constant_field(grid64, 1.0)
        sol = minimize(Params(m1 * np.pi, m2 * np.pi, one, one),
                       _random_start(grid64, 1), tol_residual=1e-9, max_iters=600)
        assert sol.converged and sol.residual_norm <= 1e-9

    def test_unit_shift_is_finite(self, grid64, rng):
        # rho1 + 2 rho2 = 1 puts the symbol's zero mode at |k|^2 + 1 - theta = 0
        one = constant_field(grid64, 1.0)
        sol = minimize(Params(1.0, 0.0, one, one), smooth_field(grid64, rng, amplitude=0.1),
                       tol_residual=1e-10)
        assert sol.converged
        assert np.abs(sol.u.values).max() < 1e-6

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
        sol = minimize(wavy_params, smooth_field(grid64, rng, amplitude=0.5),
                       max_iters=5, tol_residual=1e-14)
        assert not sol.converged
        assert sol.energy == pytest.approx(energy_J(sol.u, wavy_params), rel=1e-12)
        r = residual_J(sol.u, wavy_params)
        assert sol.residual_norm == pytest.approx(np.sqrt(integrate(r * r)), rel=1e-12)

    def test_one_transform_pair_per_iteration(self, grid64, wavy_params, rng, monkeypatch):
        # a forward transform is surface._half_spectrum's rfft along x and
        # fft along y; rfft2 itself is never called
        counts = {"rfft": 0, "fft": 0, "rfft2": 0, "irfft2": 0}

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
        best = minimize(wavy_params, smooth_field(grid64, rng, amplitude=0.5),
                        max_iters=8, tol_residual=1e-14)
        assert best.backtracks > best.iterations
        assert best.energy_evals == 1 + best.iterations + best.backtracks
        # set-up transforms u and the first density term; then one pair per
        # accepted step, none per backtrack
        forward = best.iterations + 2
        assert counts == {"rfft": forward, "fft": forward, "rfft2": 0,
                          "irfft2": best.iterations}

    @pytest.mark.parametrize("n", [8, 64, 128, 256, 512])
    def test_start_energy_is_energy_j(self, n):
        # the descent's Dirichlet term 1/2 _dot(u^, |k|^2 u^) and grad_norm_sq
        # are one formula, so the start's energy is energy_J's bit for bit
        grid = build_grid(n)
        h1 = field_from_recipe("1+0.5*cos(2*pi*x)", grid)
        h2 = field_from_recipe("1+0.5*sin(2*pi*y)", grid)
        p = Params(6.0 * np.pi, 3.0 * np.pi, h1, h2)
        for seed in range(4):
            u0 = _random_start(grid, seed) + 0.25 * seed
            sol = minimize(p, u0, max_iters=0)
            assert sol.iterations == 0
            u = ScalarField(grid, u0.values - integrate(u0))
            assert np.float64(sol.energy).tobytes() == np.float64(energy_J(u, p)).tobytes()

    def test_coercive_grid_iteration_counts(self):
        # iteration counts of the 3x3 coercive grid at n=64 from one fixed
        # start, as the L-BFGS descent from the shifted H0 counts them; none
        # may exceed the H^1 steepest descent's count
        pinned = {(2, 1): 7, (2, 2): 9, (2, 3): 14, (4, 1): 8, (4, 2): 11,
                  (4, 3): 19, (6, 1): 13, (6, 2): 17, (6, 3): 29}
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
        assert all(counts[key] <= _STEEPEST_COUNTS[key] for key in pinned)


def _inner(fh, gh):
    """int f g of two pre-weighted half spectra."""
    return float(np.vdot(fh, gh).real)


def _reference_steepest_descent(p, u0, tol_residual=1e-9, max_iters=4000):
    """(u, energy, iterations) of the H^1 steepest descent that the L-BFGS
    direction replaced: d = -(-Lap + I)^{-1} r on the full spectrum, the
    same Armijo backtracking, roundoff slack and stall exit, with every
    energy and residual taken from energy_J and residual_J."""
    grid = p.grid
    k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
    kx, ky = np.meshgrid(k, k, indexing="xy")
    symbol = kx**2 + ky**2 + 1.0
    u = u0 - integrate(u0)
    e = energy_J(u, p)
    r = residual_J(u, p)
    iterations = 0
    while np.sqrt(integrate(r * r)) > tol_residual and iterations < max_iters:
        iterations += 1
        d = ScalarField(grid, -np.fft.ifft2(np.fft.fft2(r.values) / symbol).real)
        slope = integrate(r * d)
        t = descent._STEP0
        guard = descent._ROUNDOFF_SLACK * (1.0 + abs(e))
        while t >= descent._MIN_STEP:
            e_new = energy_J(u + t * d, p)
            if e_new <= e + descent._ARMIJO_C * t * slope + guard:
                break
            t *= descent._BACKTRACK
        else:
            break
        u, e = u + t * d, e_new
        u = u - integrate(u)
        r = residual_J(u, p)
    return u.values, e, iterations


class TestLBFGS:
    """The L-BFGS direction against the H^1 steepest descent it replaced, and
    its two-loop recursion on its own."""

    @pytest.mark.parametrize("weights,steepest_counts", [
        (("1", "1"), None),
        (("1+0.5*cos(2*pi*x)", "1+0.5*sin(2*pi*y)"), _STEEPEST_COUNTS),
    ], ids=["constant", "weighted"])
    def test_matches_steepest_descent(self, grid64, weights, steepest_counts):
        h1, h2 = (field_from_recipe(w, grid64) for w in weights)
        u0 = smooth_field(grid64, np.random.default_rng(1000), amplitude=0.2)
        for m1 in (2, 4, 6):
            for m2 in (1, 2, 3):
                p = Params(m1 * np.pi, m2 * np.pi, h1, h2)
                ref_u, ref_e, ref_iters = _reference_steepest_descent(p, u0)
                if steepest_counts:
                    assert ref_iters == steepest_counts[m1, m2]
                sol = minimize(p, u0, tol_residual=1e-9, max_iters=4000)
                assert sol.converged
                assert sol.iterations < ref_iters
                # the constant-weight minimizer is u = 0, where J = 0
                assert sol.energy == pytest.approx(ref_e, rel=1e-12, abs=1e-12)
                assert np.abs(sol.u.values - ref_u).max() <= 1e-8

    @staticmethod
    def make_hessian(grid, theta):
        return descent._InverseHessian(grid.k2_half, theta)

    @pytest.fixture
    def hessian(self, grid64):
        return self.make_hessian(grid64, 0.0)

    def spectrum(self, grid, seed):
        """A zero-mean pre-weighted half spectrum, as minimize carries them."""
        vals = smooth_field(grid, np.random.default_rng(seed)).values
        vh = _half_spectrum(vals - vals.mean(), grid)
        vh[0, 0] = 0.0
        return vh

    def test_empty_history_is_h1_gradient(self, grid64, hessian):
        rh = self.spectrum(grid64, 1)
        dh, slope = hessian.direction(rh)
        assert np.array_equal(dh, -rh / (grid64.k2_half + 1.0))
        assert slope == _inner(rh, dh) < 0.0

    @pytest.mark.parametrize("theta", [4.0 * np.pi, 2.0 * np.pi**2], ids=["4pi", "cap"])
    def test_empty_history_is_shifted_gradient(self, grid64, theta):
        hessian = self.make_hessian(grid64, theta)
        rh = self.spectrum(grid64, 1)
        dh, slope = hessian.direction(rh)
        assert np.array_equal(dh, -rh / (grid64.k2_half + 1.0 - theta))
        assert slope == _inner(rh, dh) < 0.0

    @pytest.mark.parametrize("m1,m2,theta", [
        (2.0, 1.0, 4.0 * np.pi),  # rho1 + 2 rho2 below the cap
        (8.0, 4.0, 2.0 * np.pi**2),  # the corner of the coercive region
        (9.0, 2.0, 2.0 * np.pi**2),  # past the threshold 8 pi
    ], ids=["below-cap", "corner", "past-8pi"])
    def test_minimize_shifts_by_capped_mean_field_curvature(self, grid64, monkeypatch,
                                                            m1, m2, theta):
        made = []

        class Recorded(descent._InverseHessian):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(descent, "_InverseHessian", Recorded)
        one = constant_field(grid64, 1.0)
        p = Params(m1 * np.pi, m2 * np.pi, one, one)
        minimize(p, smooth_field(grid64, np.random.default_rng(5), amplitude=0.1),
                 max_iters=1)
        symbol = made[0].symbol
        off_zero = grid64.k2_half > 0.0
        assert np.array_equal(symbol[off_zero], grid64.k2_half[off_zero] + (1.0 - theta))
        # positive definite with room to spare, whatever rho is
        assert symbol[off_zero].min() >= 2.0 * np.pi**2 + 1.0

    def test_one_pair_meets_secant_equation(self, grid64, hessian):
        sh, yh = self.spectrum(grid64, 2), self.spectrum(grid64, 3)
        if _inner(sh, yh) < 0.0:
            sh = -sh
        hessian.update(sh, yh)
        assert len(hessian.pairs) == 1
        # direction(y) = -H y = -s
        dh, _ = hessian.direction(yh)
        assert np.abs(dh + sh).max() <= 1e-12 * np.abs(sh).max()
        assert len(hessian.pairs) == 1

    def test_nonpositive_curvature_is_never_stored(self, grid64, hessian):
        sh = self.spectrum(grid64, 4)
        for yh in (-sh, 0.0 * sh, np.full_like(sh, np.nan)):
            hessian.update(sh, yh)
        assert len(hessian.pairs) == 0
        hessian.update(sh, sh)
        assert len(hessian.pairs) == 1

    def test_memory_keeps_latest_pairs(self, grid64, hessian):
        spectra = [self.spectrum(grid64, seed) for seed in range(descent._MEMORY + 2)]
        for sh in spectra:
            hessian.update(sh, sh)
        kept = [pair[0] for pair in hessian.pairs]
        assert len(kept) == descent._MEMORY
        assert all(a is b for a, b in zip(kept, spectra[-descent._MEMORY:]))

    def test_ascent_direction_falls_back_to_h1_gradient(self, grid64, hessian):
        # a pair with s.y < 0, as roundoff could leave it: -H y = -s = y
        yh = self.spectrum(grid64, 6)
        hessian.pairs.append((-yh, yh, -1.0 / _inner(yh, yh)))
        dh, slope = hessian.direction(yh)
        assert len(hessian.pairs) == 0
        assert np.array_equal(dh, -yh / (grid64.k2_half + 1.0))
        assert slope == _inner(yh, dh) < 0.0
