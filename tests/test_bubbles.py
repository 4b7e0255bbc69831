import numpy as np
import pytest

from tzlab import (JoinConfig, ScalarField, build_bubble,
                   build_grid, default_join_config, distance_field, integrate,
                   liouville_bubble, liouville_mass)
from tzlab.bubbles import _bubble_exps, _join_sides, _mixture
from tzlab.surface import _axis_offsets

from conftest import node_coordinates


def node_config(s=0.0, plus=((1.0, (0.5, 0.5)),), minus=((1.0, (0.25, 0.75)),)):
    return JoinConfig(plus, minus, s)


class TestJoinConfig:
    def test_weight_sum_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            JoinConfig(((0.4, (0.1, 0.1)), (0.4, (0.9, 0.9))), ((1.0, (0.5, 0.5)),), 0.5)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            JoinConfig(((1.5, (0.1, 0.1)), (-0.5, (0.9, 0.9))), ((1.0, (0.5, 0.5)),), 0.5)

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            JoinConfig((), ((1.0, (0.5, 0.5)),), 0.5)

    def test_s_range(self):
        # the message opens with the parameter, as default_join_config's do
        with pytest.raises(ValueError,
                           match=r"^s = 1\.5: the join parameter must lie in \[0, 1\]$"):
            node_config(s=1.5)

    def test_join_equivalence_at_endpoints(self):
        a = node_config(s=0.0, minus=((1.0, (0.1, 0.2)),))
        b = node_config(s=0.0, minus=((0.5, (0.7, 0.7)), (0.5, (0.3, 0.9))))
        assert a == b
        c = node_config(s=1.0, plus=((1.0, (0.9, 0.9)),))
        d = node_config(s=1.0, plus=((0.25, (0.2, 0.2)), (0.75, (0.4, 0.6))))
        assert c == d
        assert node_config(s=0.5) != node_config(s=0.25)

    def test_join_relation_keeps_the_live_sides(self):
        # at s = 1 only the minus side is alive, so a different one is a different config
        assert node_config(s=1.0) != node_config(s=1.0, minus=((1.0, (0.1, 0.2)),))
        # between the endpoints both sides are alive and both must agree
        assert node_config(s=0.5) == node_config(s=0.5)
        assert node_config(s=0.5) != node_config(s=0.5, plus=((1.0, (0.9, 0.9)),))
        assert node_config(s=0.5) != node_config(s=0.5, minus=((1.0, (0.1, 0.2)),))


class TestBuildBubble:
    def test_rejects_nonpositive_lambda(self, grid64):
        with pytest.raises(ValueError, match="lambda"):
            build_bubble(node_config(), 0.0, grid64)

    @pytest.mark.parametrize("s,lam,lam1,lam2", [
        (0.0, 7.0, 7.0, 0.0),
        (1.0, 7.0, 0.0, 7.0),
        (0.25, 100.0, 75.0, 25.0),
    ])
    def test_join_splits_lambda(self, grid64, s, lam, lam1, lam2):
        # phi = -2 log(1 + lam1^2 d+^2) + log(1 + lam2^2 d-^2), with
        # (lam1, lam2) = ((1-s) lam, s lam)
        zeta = node_config(s=s)
        d_plus = distance_field(grid64, zeta.plus_points[0][1])
        d_minus = distance_field(grid64, zeta.minus_points[0][1])
        ref = -2.0 * np.log1p((lam1 * d_plus) ** 2) + np.log1p((lam2 * d_minus) ** 2)
        np.testing.assert_allclose(build_bubble(zeta, lam, grid64).values, ref,
                                   rtol=0.0, atol=1e-12)

    def test_zero_at_center_and_log_decay(self):
        grid = build_grid(128)
        lam = 100.0
        phi = build_bubble(node_config(s=0.0), lam, grid).values
        center_idx = (64, 64)  # node at (0.5, 0.5)
        assert phi[center_idx] == pytest.approx(0.0, abs=1e-14)
        d = distance_field(grid, (0.5, 0.5))
        far = d > 0.2
        # phi = -2 log(1 + lam^2 d^2) ~ -4 log(lam d) once lam d >> 1
        gap = np.abs(phi[far] + 4.0 * np.log(lam * d[far]))
        assert gap.max() < 0.01

    def test_s_zero_ignores_minus_points(self, grid64):
        a = node_config(s=0.0, minus=((1.0, (0.11, 0.22)),))
        b = node_config(s=0.0, minus=((0.3, (0.8, 0.1)), (0.7, (0.5, 0.9))))
        va = build_bubble(a, 50.0, grid64).values
        vb = build_bubble(b, 50.0, grid64).values
        assert np.array_equal(va, vb)

    def test_s_one_ignores_plus_points(self, grid64):
        a = JoinConfig(((1.0, (0.3, 0.3)),), ((1.0, (0.7, 0.7)),), 1.0)
        b = JoinConfig(((0.5, (0.1, 0.5)), (0.5, (0.6, 0.2))), ((1.0, (0.7, 0.7)),), 1.0)
        va = build_bubble(a, 50.0, grid64).values
        vb = build_bubble(b, 50.0, grid64).values
        assert np.array_equal(va, vb)

    def test_quadrature_agrees_with_refined_grid(self):
        # int e^phi at the working resolution vs 4x refinement
        lam, s = 100.0, 0.5
        plus = ((1.0, (0.25, 0.25)),)
        minus = ((1.0, (0.75, 0.75)),)
        vals = {}
        for n in (128, 512):
            grid = build_grid(n)
            phi = build_bubble(JoinConfig(plus, minus, s), lam, grid)
            vals[n] = integrate(ScalarField(grid, np.exp(phi.values)))
        assert vals[128] == pytest.approx(vals[512], rel=0.01)

    def test_mass_concentration(self):
        # normalized e^phi mass within radius 10/lambda1 of the plus point
        cases = [(256, 100.0, 0.0), (256, 100.0, 0.5), (1024, 1000.0, 0.0)]
        for n, lam, s in cases:
            grid = build_grid(n)
            zeta = default_join_config(grid, 1, 1, s)
            phi = build_bubble(zeta, lam, grid).values
            lam1 = (1.0 - s) * lam
            d = distance_field(grid, zeta.plus_points[0][1])
            w = np.exp(phi - phi.max())
            frac = w[d <= 10.0 / lam1 + grid.dx / np.sqrt(2.0)].sum() / w.sum()
            assert frac >= 1.0 - 10.0 / lam

    def test_upper_bound(self, grid64, rng):
        for lam in (5.0, 50.0, 400.0):
            for s in (0.0, 0.3, 1.0):
                zeta = JoinConfig(
                    ((0.5, tuple(rng.uniform(0, 1, 2))), (0.5, tuple(rng.uniform(0, 1, 2)))),
                    ((1.0, tuple(rng.uniform(0, 1, 2))),), s)
                phi = build_bubble(zeta, lam, grid64).values
                assert phi.max() <= 2.0 * np.log1p(lam**2) + 1.0


def _reference_log_mixture(grid, lam_s, points):
    """The log of the mixture as a logsumexp over one row per point, -inf
    for a point of zero weight."""
    logs = np.full((len(points), grid.n, grid.n), -np.inf)
    for row, (w, p) in enumerate(points):
        if w == 0.0:
            continue
        d = distance_field(grid, p)
        logs[row] = np.log(w) - 2.0 * np.log1p((lam_s * d) ** 2)
    peak = logs.max(axis=0)
    return peak + np.log(np.exp(logs - peak).sum(axis=0))


def _reference_mixture(grid, lam_s, points):
    """The rational mixture on full coordinate meshes: w / q^2 with
    q = (1 + (lam_s dx)^2) + (lam_s dy)^2, summed over the points of
    nonzero weight in order; _mixture must match it bit for bit."""
    X, Y = node_coordinates(grid)
    total = None
    for w, (px, py) in points:
        if w == 0.0:
            continue
        dx = np.abs(X - px) % 1.0
        dy = np.abs(Y - py) % 1.0
        dx = np.minimum(dx, 1.0 - dx)
        dy = np.minimum(dy, 1.0 - dy)
        term = w / ((1.0 + (lam_s * dx) ** 2) + (lam_s * dy) ** 2) ** 2
        total = term if total is None else total + term
    return total


def _side(grid, points):
    """The plus side of a join on ``points``, as _mixture takes it."""
    return _join_sides(JoinConfig(points, points), grid)[0][1]


def _run_mixture(grid, lam_s, points):
    out = np.full((grid.n, grid.n), np.nan)
    return _mixture(lam_s, _side(grid, points), out, np.full((grid.n, grid.n), np.nan))


class TestLogMixture:
    LAMBDAS = (0.5, 30.0, 700.0)
    POINT_SETS = [
        ((0.5, (0.25, 0.25)), (0.5, (0.75, 0.75))),
        ((0.5, (0.1, 0.9)), (0.5, (0.15, 0.85))),
        ((0.5, (0.2, 0.3)), (0.0, (0.6, 0.6)), (0.5, (0.7, 0.4))),
        ((0.2, (0.2, 0.3)), (0.3, (0.6, 0.6)), (0.5, (0.7, 0.4))),
    ]

    def _assert_same_bytes(self, got, ref):
        assert got.shape == ref.shape and got.dtype == ref.dtype == np.float64
        assert np.array_equal(got, ref)
        assert got.tobytes() == ref.tobytes()

    def _assert_log_close(self, mixture, points, grid, lam):
        # log of the rational sum against the logsumexp: roundoff of either form
        ref = _reference_log_mixture(grid, lam, points)
        ulps = 8.0 * np.spacing(np.maximum(1.0, np.abs(ref)))
        assert np.all(np.abs(np.log(mixture) - ref) <= ulps)

    @pytest.mark.parametrize("point", [(0.5, 0.5), (0.03, 0.97), (1.2, -0.4)])
    def test_single_point_is_the_logsumexp(self, grid64, point):
        points = ((1.0, point),)
        for lam in self.LAMBDAS:
            got = _run_mixture(grid64, lam, points)
            self._assert_same_bytes(got, _reference_mixture(grid64, lam, points))
            self._assert_log_close(got, points, grid64, lam)

    def test_zero_weight_point_drops_out(self, grid64):
        for lam in self.LAMBDAS:
            alone = _run_mixture(grid64, lam, ((1.0, (0.3, 0.6)),))
            for points in (((1.0, (0.3, 0.6)), (0.0, (0.8, 0.1))),
                           ((0.0, (0.8, 0.1)), (1.0, (0.3, 0.6)))):
                self._assert_same_bytes(_run_mixture(grid64, lam, points), alone)

    @pytest.mark.parametrize("points", POINT_SETS)
    def test_mixture_is_the_rational_sum(self, grid64, points):
        for grid in (grid64, build_grid(256), build_grid(512)):
            for lam in self.LAMBDAS:
                self._assert_same_bytes(_run_mixture(grid, lam, points),
                                        _reference_mixture(grid, lam, points))

    @pytest.mark.parametrize("points", POINT_SETS)
    def test_mixture_is_the_logsumexp(self, grid64, points):
        for lam in self.LAMBDAS:
            self._assert_log_close(_run_mixture(grid64, lam, points), points, grid64, lam)

    def test_dead_side_writes_nothing(self, grid64):
        out = np.full((grid64.n, grid64.n), 7.0)
        assert _mixture(0.0, _side(grid64, ((1.0, (0.3, 0.6)),)), out, np.empty_like(out)) is None
        assert np.all(out == 7.0)


def _long_double_mixture(grid, lam_s, points):
    """sum w / q^2 in long double from the float64 axis offsets and lam_s,
    every operation after them rounded to the wider format; 1 on a dead side."""
    if lam_s == 0.0:
        return np.longdouble(1.0)
    lam, total = np.longdouble(lam_s), np.longdouble(0.0)
    for w, p in points:
        dxv, dyv = (v.astype(np.longdouble) for v in _axis_offsets(grid, p))
        q = 1 + (lam * dxv[None, :]) ** 2 + (lam * dyv[:, None]) ** 2
        total = total + np.longdouble(w) / q**2
    return total


class TestBubbleExps:
    # the six joins perfbench sweeps, then both endpoints of the join
    JOINS = [(1, 1, 0.5), (1, 1, 0.3), (1, 1, 0.7), (2, 1, 0.5), (2, 2, 0.5), (1, 2, 0.5),
             (1, 1, 0.0), (1, 1, 1.0), (2, 2, 0.0), (2, 2, 1.0)]

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                        reason="long double is no wider than double here")
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("k,l,s", JOINS)
    def test_within_8_eps_of_long_double(self, n, k, l, s):
        """e^phi = M+ / sqrt(M-) and e^{-2 phi} = M- / M+^2 against their
        long-double values, to 8 * 2^-52 relative.  Where a one-point side
        is read off q, a misread q (q- squared, or q+ left unsquared) is off
        by O(1), far outside the bound."""
        grid = build_grid(n)
        zeta = default_join_config(grid, k, l, s)
        for lam in (25.0, 100.0, 400.0):
            e_phi, e_minus_2phi = _bubble_exps(_join_sides(zeta, grid), lam,
                                               np.empty((3, n, n)))
            plus = _long_double_mixture(grid, (1.0 - s) * lam, zeta.plus_points)
            minus = _long_double_mixture(grid, s * lam, zeta.minus_points)
            for got, ref in ((e_phi, plus / np.sqrt(minus)), (e_minus_2phi, minus / plus**2)):
                rel = np.abs(got.astype(np.longdouble) - ref) / ref
                assert float(rel.max()) <= 8.0 * np.finfo(np.float64).eps, (lam, float(rel.max()))


class TestLiouvilleBubble:
    def test_center_value(self):
        assert liouville_bubble(0.0, np.array([0.0]))[0] == pytest.approx(0.0)

    def test_closed_form_at_unit_radius(self):
        # 10 - 2 log(1 + e^10 / 8)
        val = liouville_bubble(10.0, np.array([1.0]))[0]
        expected = 10.0 - 2.0 * np.log1p(np.exp(10.0) / 8.0)
        assert val == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-5.84184318, abs=1e-7)

    def test_ode_residual_analytic(self):
        # closed-form derivatives satisfy u'' + u'/r + e^u = 0 to roundoff
        for alpha in (0.0, 1.0, 10.0):
            mu2 = np.exp(alpha) / 8.0
            r = np.linspace(0.01, 1.0, 2001)
            u = liouville_bubble(alpha, r)
            du = -4.0 * mu2 * r / (1.0 + mu2 * r**2)
            ddu = -4.0 * mu2 * (1.0 - mu2 * r**2) / (1.0 + mu2 * r**2) ** 2
            residual = np.abs(ddu + du / r + np.exp(u)).max()
            assert residual < 1e-12 * max(1.0, np.exp(alpha))

    def test_ode_residual_sampled(self):
        # fourth-order differences keep both truncation and roundoff
        # comfortably below the target
        alpha = 0.0
        h = 1e-3
        r = np.arange(0.01, 1.0, h)
        u = liouville_bubble(alpha, r)
        i = slice(2, -2)
        fd1 = (-u[4:] + 8 * u[3:-1] - 8 * u[1:-3] + u[:-4]) / (12 * h)
        fd2 = (-u[4:] + 16 * u[3:-1] - 30 * u[2:-2] + 16 * u[1:-3] - u[:-4]) / (12 * h**2)
        residual = np.abs(fd2 + fd1 / r[i] + np.exp(u[i])).max()
        assert residual < 1e-8

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("alpha", [0.0, 5.0, 10.0, 20.0])
    @pytest.mark.parametrize("where", ["node", "quarter_cell", "off_grid"])
    def test_torus_profile_is_one_point_plus_bubble(self, n, alpha, where):
        # on the torus the profile about c is the s = 0 bubble at one point c,
        # lambda^2 = e^alpha / 8, plus alpha
        grid = build_grid(n)
        c = {"node": (0.5, 0.5), "quarter_cell": (0.5 + 0.25 / n, 0.5 + 0.25 / n),
             "off_grid": (0.1, 0.9)}[where]
        one_point = ((1.0, c),)
        u = build_bubble(JoinConfig(one_point, one_point, 0.0), np.sqrt(np.exp(alpha) / 8.0),
                         grid) + alpha
        exact = alpha - 2.0 * np.log1p(np.exp(alpha) / 8.0 * distance_field(grid, c) ** 2)
        assert np.abs(u.values - exact).max() <= 1e-14 * max(1.0, alpha)

    def test_mass_closed_form(self):
        # d/dr of 4 mu^2 r^2/(1 + mu^2 r^2) equals e^u r
        alpha = 3.0
        r = np.linspace(0.0, 1.0, 100001)
        integrand = np.exp(liouville_bubble(alpha, r)) * r
        total = np.trapezoid(integrand, r)
        assert total == pytest.approx(liouville_mass(alpha, 1.0), rel=1e-8)
