import tracemalloc

import numpy as np
import pytest

from tzlab import (GridError, ScalarField, build_grid, constant_field,
                   distance_field, field_from_function, grad_norm_sq,
                   integrate, laplacian)
from tzlab.surface import _dirichlet, _dirichlet_buffers

from conftest import node_coordinates, random_trig_coeffs, sample_trig


class TestBuildGrid:
    def test_basic(self):
        g = build_grid(64)
        assert g.dx == 1.0 / 64
        assert abs(g.n**2 * g.dx**2 - 1.0) < 1e-15

    def test_odd_rejected(self):
        with pytest.raises(GridError, match="even"):
            build_grid(7)

    def test_too_small_rejected(self):
        with pytest.raises(GridError):
            build_grid(6)

    def test_first_wavenumber(self):
        g = build_grid(128)
        assert g.k2_half[0, 1] == pytest.approx((2.0 * np.pi) ** 2, rel=1e-15)
        assert g.k2_half[1, 0] == pytest.approx((2.0 * np.pi) ** 2, rel=1e-15)

    def test_wavenumber_conjugate_pairing(self):
        # the y-mode at row k pairs with row n - k
        g = build_grid(16)
        for k in range(1, 8):
            assert g.k2_half[16 - k] == pytest.approx(g.k2_half[k])

    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_k2_half_bitwise_rfftfreq_row_fftfreq_column(self, n):
        g = build_grid(n)
        kx = 2.0 * np.pi * np.fft.rfftfreq(n, d=g.dx)
        ky = 2.0 * np.pi * np.fft.fftfreq(n, d=g.dx)
        assert np.array_equal(g.k2_half, kx[None, :] ** 2 + ky[:, None] ** 2)

    def test_fft_convention(self):
        # forward unnormalized, inverse scaled by 1/n^2
        g = build_grid(8)
        c = 3.5 * np.ones((8, 8))
        assert np.fft.fft2(c)[0, 0] == pytest.approx(3.5 * 64)
        assert np.fft.ifft2(np.fft.fft2(c)).real == pytest.approx(c)


class TestScalarField:
    def test_rejects_nonfinite(self, grid64):
        bad = np.zeros((64, 64))
        bad[3, 4] = np.inf
        with pytest.raises(ValueError, match="finite"):
            ScalarField(grid64, bad)

    def test_rejects_wrong_shape(self, grid64):
        with pytest.raises(ValueError, match="shape"):
            ScalarField(grid64, np.zeros((32, 32)))

    def test_algebra_keeps_grid(self, grid64, rng):
        f = sample_trig(grid64, random_trig_coeffs(rng))
        g = sample_trig(grid64, random_trig_coeffs(rng))
        for out in (f + g, f - 1.0, 2.0 * f, -f, 1.0 - f, f * 0.5):
            assert out.grid is grid64

    def test_mixed_grids_rejected(self, grid64, grid32):
        f = constant_field(grid64, 1.0)
        g = constant_field(grid32, 1.0)
        with pytest.raises(ValueError, match="grid"):
            f + g


class TestFieldFromFunction:
    def test_constant_fills_the_grid(self, grid32):
        f = field_from_function(grid32, lambda x, y: 2.5)
        assert f.values.shape == (32, 32) and f.values.flags.c_contiguous
        assert np.all(f.values == 2.5)

    def test_function_of_x_alone_broadcasts(self, grid32):
        seen = []

        def fn(x, y):
            seen.append((x.shape, y.shape))
            return np.cos(2 * np.pi * x)

        f = field_from_function(grid32, fn)
        assert seen == [((1, 32), (32, 1))]  # one call: x the row, y the column
        assert f.values.shape == (32, 32) and f.values.flags.c_contiguous
        X = node_coordinates(grid32)[0]
        assert f.values.tobytes() == np.cos(2 * np.pi * X).tobytes()

    def test_mixed_function_matches_mesh_sampling_bitwise(self, grid64):
        def fn(x, y):
            return np.sin(2 * np.pi * (3 * x - 2 * y)) * np.exp(np.cos(2 * np.pi * y)) + x * y

        X, Y = node_coordinates(grid64)
        assert field_from_function(grid64, fn).values.tobytes() == fn(X, Y).tobytes()


class TestIntegrate:
    def test_constant(self, grid64):
        assert integrate(constant_field(grid64, 1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_full_period_cosine(self, grid64):
        f = field_from_function(grid64, lambda x, y: np.cos(2 * np.pi * x))
        assert abs(integrate(f)) < 1e-12

    def test_cosine_squared(self, grid64):
        # int cos^2(2 pi x) over the unit torus = 1/2
        f = field_from_function(grid64, lambda x, y: np.cos(2 * np.pi * x) ** 2)
        assert integrate(f) == pytest.approx(0.5, abs=1e-12)

    def test_refinement_invariance(self, rng):
        coeffs = random_trig_coeffs(rng, kmax=6)
        f1 = sample_trig(build_grid(64), coeffs)
        f2 = sample_trig(build_grid(128), coeffs)
        assert integrate(f2) == pytest.approx(integrate(f1), abs=1e-12)


class TestMean:
    """The area is 1, so integrate is also the average."""

    def test_constant(self, grid64):
        assert integrate(constant_field(grid64, -2.25)) == pytest.approx(-2.25)

    def test_sine(self, grid64):
        f = field_from_function(grid64, lambda x, y: np.sin(2 * np.pi * y))
        assert abs(integrate(f)) < 1e-12

    def test_offset_cosine(self, grid64):
        f = field_from_function(grid64, lambda x, y: 3.0 + np.cos(2 * np.pi * x))
        assert integrate(f) == pytest.approx(3.0, abs=1e-12)


class TestLaplacian:
    def test_constant_maps_to_zero(self, grid64):
        out = laplacian(constant_field(grid64, 4.2))
        assert np.abs(out.values).max() < 1e-12

    def test_eigenfunction(self, grid64):
        f = field_from_function(grid64, lambda x, y: np.cos(2 * np.pi * x))
        out = laplacian(f)
        target = -4.0 * np.pi**2 * f.values
        assert np.abs(out.values - target).max() < 1e-10

    def test_zero_mean(self, grid64, rng):
        f = sample_trig(grid64, random_trig_coeffs(rng))
        assert abs(integrate(laplacian(f))) < 1e-12

    def test_linearity(self, grid64, rng):
        f = sample_trig(grid64, random_trig_coeffs(rng))
        g = sample_trig(grid64, random_trig_coeffs(rng))
        lhs = laplacian(2.5 * f + (-1.25) * g)
        rhs = 2.5 * laplacian(f) + (-1.25) * laplacian(g)
        assert np.abs(lhs.values - rhs.values).max() < 1e-10

    def test_matches_five_point_stencil_at_second_order(self, rng):
        # the spectral Laplacian is exact on band-limited fields, so the
        # mismatch with the 5-point stencil is the stencil's own O(dx^2)
        coeffs = random_trig_coeffs(rng, kmax=5)

        def stencil_gap(n):
            g = build_grid(n)
            f = sample_trig(g, coeffs)
            v = f.values
            fd = (np.roll(v, 1, 0) + np.roll(v, -1, 0) + np.roll(v, 1, 1)
                  + np.roll(v, -1, 1) - 4 * v) / g.dx**2
            return np.abs(laplacian(f).values - fd).max()

        e1, e2 = stencil_gap(64), stencil_gap(128)
        order = np.log2(e1 / e2)
        assert order >= 1.9


class TestGradNormSq:
    def test_constant(self, grid64):
        assert grad_norm_sq(constant_field(grid64, 9.0)) == pytest.approx(0.0, abs=1e-15)

    def test_single_mode(self, grid64):
        f = field_from_function(grid64, lambda x, y: np.cos(2 * np.pi * x))
        assert grad_norm_sq(f) == pytest.approx(2.0 * np.pi**2, rel=1e-10)

    def test_integration_by_parts(self, grid64, rng):
        for _ in range(5):
            f = sample_trig(grid64, random_trig_coeffs(rng), amplitude=3.0)
            gap = grad_norm_sq(f) + integrate(f * laplacian(f))
            assert abs(gap) < 1e-9 * max(1.0, grad_norm_sq(f))

    def test_positive_and_zero_only_on_constants(self, grid64, rng):
        f = sample_trig(grid64, random_trig_coeffs(rng))
        assert grad_norm_sq(f) > 1e-12
        assert grad_norm_sq(constant_field(grid64, -3.0)) < 1e-12


def torus_distance(p, q) -> float:
    """Geodesic distance of the unit torus: per-axis wrapped differences."""
    d = 0.0
    for a, b in zip(p, q):
        t = abs(a - b) % 1.0
        t = min(t, 1.0 - t)
        d += t * t
    return float(np.sqrt(d))


class TestTorusDistance:
    """distance_field against the scalar reference torus_distance."""

    def test_wraps(self):
        grid = build_grid(20)  # nodes at multiples of 0.05
        assert distance_field(grid, (0.95, 0.0))[0, 1] == pytest.approx(0.1)
        assert distance_field(grid, (0.9, 0.9))[2, 2] == pytest.approx(np.sqrt(0.08))

    def test_symmetric(self, grid32, rng):
        X, Y = node_coordinates(grid32)
        nodes = list(zip(X.ravel(), Y.ravel()))
        for _ in range(10):
            p = tuple(rng.uniform(0, 1, 2))
            d = distance_field(grid32, p).ravel()
            assert d == pytest.approx([torus_distance(p, q) for q in nodes])
            assert d == pytest.approx([torus_distance(q, p) for q in nodes])
            assert d.max() <= np.sqrt(0.5) + 1e-12

    def test_distance_field_matches_pointwise(self, grid32):
        point = (0.3, 0.7)
        d = distance_field(grid32, point)
        i, j = 5, 17
        X, Y = node_coordinates(grid32)
        expected = torus_distance((X[i, j], Y[i, j]), point)
        assert d[i, j] == pytest.approx(expected)

    @staticmethod
    def _meshgrid_distance(grid, point):
        """The wrap and fold on the full coordinate meshes, one node at a time
        in numpy's elementwise operations; distance_field must match it bit
        for bit."""
        px, py = point
        X, Y = node_coordinates(grid)
        dxv = np.abs(X - px) % 1.0
        dyv = np.abs(Y - py) % 1.0
        dxv = np.minimum(dxv, 1.0 - dxv)
        dyv = np.minimum(dyv, 1.0 - dyv)
        return np.sqrt(dxv**2 + dyv**2)

    @pytest.mark.parametrize("n", [8, 32, 256])
    def test_bitwise_equal_to_meshgrid_form(self, n):
        grid = build_grid(n)
        q = 0.25 / n  # a quarter of the spacing off the nodes
        points = [(0.0, 0.0), (0.5, 0.5), (0.999, 0.001), (1.3, -0.2), (-0.75, 2.5),
                  (3 / n + q, 5 / n - q), ((n - 1) / n + q, q), (0.5 - q, 1.0 - q)]
        for point in points:
            got = distance_field(grid, point)
            ref = self._meshgrid_distance(grid, point)
            assert got.shape == ref.shape == (n, n) and got.dtype == ref.dtype
            assert np.array_equal(got, ref), point
            assert got.tobytes() == ref.tobytes(), point


class TestRealTransforms:
    """The rfft2 half-spectrum operators against full-fft2 references, on
    white noise so that the Nyquist modes take part."""

    @pytest.fixture
    def noise(self, grid64, rng):
        return ScalarField(grid64, rng.standard_normal((64, 64)))

    @staticmethod
    def full_k2(grid):
        k = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.dx)
        kx, ky = np.meshgrid(k, k, indexing="xy")
        return kx**2 + ky**2

    def test_half_spectrum_layout(self):
        g = build_grid(16)
        assert g.k2_half.shape == (16, 9)
        assert np.array_equal(g.k2_half, self.full_k2(g)[:, :9])
        assert g.multiplicity.tolist() == [1.0] + [2.0] * 7 + [1.0]

    def test_parseval_with_multiplicities(self, noise):
        full = np.sum(np.abs(np.fft.fft2(noise.values)) ** 2)
        half = np.sum(noise.grid.multiplicity * np.abs(np.fft.rfft2(noise.values)) ** 2)
        assert half == pytest.approx(full, rel=1e-12)

    def test_laplacian_matches_full_fft(self, noise):
        ref = np.fft.ifft2(-self.full_k2(noise.grid) * np.fft.fft2(noise.values)).real
        assert np.abs(laplacian(noise).values - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [8, 64, 256, 512])
    def test_grad_norm_sq_bitwise_equal_to_weighted_sum(self, n, rng):
        # grad_norm_sq, and _dirichlet in buffers another field has filled,
        # against the plain rfft2 expression, temporaries and all
        f, other = (ScalarField(build_grid(n), rng.standard_normal((n, n))) for _ in range(2))
        before = f.values.copy()
        g, fh = f.grid, np.fft.rfft2(f.values)
        ref = float(np.sum(g.multiplicity * g.k2_half * (fh.real**2 + fh.imag**2)) / g.n**4)
        assert grad_norm_sq(f) == ref
        spectrum, power = _dirichlet_buffers(g)
        _dirichlet(other.values, g, spectrum, power)
        assert _dirichlet(f.values, g, spectrum, power) == ref
        assert f.values.tobytes() == before.tobytes()  # the field is not touched

    def test_dirichlet_in_caller_buffers_allocates_no_spectrum(self, rng):
        # one n = 256 half spectrum is 516 KiB; the buffers hold all of it
        n = 256
        grid = build_grid(n)
        values = rng.standard_normal((n, n))
        spectrum, power = _dirichlet_buffers(grid)
        _dirichlet(values, grid, spectrum, power)  # grid.parseval_weight is cached
        tracemalloc.start()
        try:
            _dirichlet(values, grid, spectrum, power)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_parseval_weight_is_cached_per_grid(self):
        g = build_grid(16)
        assert np.array_equal(g.parseval_weight, g.multiplicity * g.k2_half)
        assert g.parseval_weight is g.parseval_weight
        assert build_grid(16).parseval_weight is not g.parseval_weight

    def test_grad_norm_sq_matches_full_fft(self, noise):
        fh = np.fft.fft2(noise.values)
        ref = np.sum(self.full_k2(noise.grid) * np.abs(fh) ** 2) / 64**4
        assert grad_norm_sq(noise) == pytest.approx(ref, rel=1e-12)
