import tracemalloc

import numpy as np
import pytest

from tzlab import (GridError, Params, ScalarField, build_grid, constant_field,
                   distance_field, field_from_function, grad_norm_sq,
                   integrate, residual_J)
from tzlab import surface
from tzlab.surface import _dirichlet, _dot, _half_spectrum

from conftest import node_coordinates, random_trig_coeffs, sample_trig


def laplacian(f):
    """-residual_J at rho = (0, 0), where the exp terms' gradient is exactly
    zero: the spectral Laplacian."""
    one = constant_field(f.grid, 1.0)
    return -residual_J(f, Params(0.0, 0.0, one, one))


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
        # sqrt(multiplicity) / n^2: columns 0 and n/2 stand for one mode of
        # the full spectrum, every other column for two
        expected = [1.0 / 256] + [np.sqrt(2.0) / 256] * 7 + [1.0 / 256]
        assert g.parseval_scale.tolist() == expected

    def test_parseval_with_multiplicities(self, noise):
        full = np.sum(np.abs(np.fft.fft2(noise.values)) ** 2) / 64**4
        fh = _half_spectrum(noise.values, noise.grid)
        assert _dot(fh, fh) == pytest.approx(full, rel=1e-12)

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_half_spectrum_bitwise_rfft2_times_scale(self, n, rng):
        # in a fresh array and in a buffer another field has filled
        g = build_grid(n)
        values, other = rng.standard_normal((2, n, n))
        ref = np.fft.rfft2(values) * g.parseval_scale
        assert _half_spectrum(values, g).tobytes() == ref.tobytes()
        out = _half_spectrum(other, g)
        assert _half_spectrum(values, g, out=out) is out
        assert out.tobytes() == ref.tobytes()

    def test_laplacian_matches_full_fft(self, noise):
        ref = np.fft.ifft2(-self.full_k2(noise.grid) * np.fft.fft2(noise.values)).real
        assert np.abs(laplacian(noise).values - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [8, 64, 256, 512])
    def test_grad_norm_sq_bitwise_equal_to_weighted_sum(self, n, rng):
        # grad_norm_sq, and _dirichlet in buffers another field has filled,
        # against the plain pre-weighted expression, temporaries and all:
        # vdots of k2_half times rfft2 * scale, slice by slice in order
        f, other = (ScalarField(build_grid(n), rng.standard_normal((n, n))) for _ in range(2))
        before = f.values.copy()
        g = f.grid
        fh = np.fft.rfft2(f.values) * g.parseval_scale
        weighted = (g.k2_half * fh).ravel()
        fh, step = fh.ravel(), surface._DOT_SLICE
        ref = 0.0
        for i in range(0, fh.size, step):
            ref += np.vdot(fh[i:i + step], weighted[i:i + step]).real
        assert grad_norm_sq(f) == ref
        spectrum = np.empty((n, n // 2 + 1), dtype=complex)
        scratch = np.empty(surface._DOT_SLICE, dtype=complex)
        _dirichlet(other.values, g, spectrum, scratch)
        assert _dirichlet(f.values, g, spectrum, scratch) == ref
        assert f.values.tobytes() == before.tobytes()  # the field is not touched

    def test_dirichlet_in_caller_buffers_allocates_no_spectrum(self, rng):
        # one n = 256 half spectrum is 516 KiB; the buffers hold all of it
        n = 256
        grid = build_grid(n)
        values = rng.standard_normal((n, n))
        spectrum = np.empty((n, n // 2 + 1), dtype=complex)
        scratch = np.empty(surface._DOT_SLICE, dtype=complex)
        _dirichlet(values, grid, spectrum, scratch)  # grid.parseval_scale is cached
        tracemalloc.start()
        try:
            _dirichlet(values, grid, spectrum, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_parseval_scale_is_cached_per_grid(self):
        g = build_grid(16)
        assert g.parseval_scale is g.parseval_scale
        assert build_grid(16).parseval_scale is not g.parseval_scale

    def test_grad_norm_sq_matches_full_fft(self, noise):
        fh = np.fft.fft2(noise.values)
        ref = np.sum(self.full_k2(noise.grid) * np.abs(fh) ** 2) / 64**4
        assert grad_norm_sq(noise) == pytest.approx(ref, rel=1e-12)


class TestParsevalScale:
    """Pre-weighted half spectra: int f g is ``surface._dot``, a bare vdot."""

    @pytest.mark.parametrize("n", [8, 64, 128])
    def test_vdot_is_integral(self, n):
        grid = build_grid(n)
        rng = np.random.default_rng(n)
        scale = grid.parseval_scale
        for _ in range(5):
            # white noise fills every column, 0 and n/2 included
            f, g = (ScalarField(grid, rng.standard_normal((n, n))) for _ in range(2))
            fh, gh = (np.fft.rfft2(v.values) * scale for v in (f, g))
            bound = 1e-13 * np.sqrt(integrate(f * f) * integrate(g * g))
            assert abs(_dot(fh, gh) - integrate(f * g)) <= bound


class TestSlicedDot:
    """``surface._dot``: one vdot per slice of at most _DOT_SLICE elements,
    summed in order, so no dot is split across BLAS threads."""

    @staticmethod
    def spectra(n, seed=0):
        rng = np.random.default_rng(seed)
        scale = build_grid(n).parseval_scale
        return [np.fft.rfft2(rng.standard_normal((n, n))) * scale for _ in range(2)]

    @pytest.fixture
    def vdot_calls(self, monkeypatch):
        calls = []
        vdot = np.vdot

        def counted(f, g):
            calls.append(f.size)
            return vdot(f, g)

        monkeypatch.setattr(np, "vdot", counted)
        return calls

    @pytest.mark.parametrize("n", [8, 64, 128])
    def test_one_slice_is_one_vdot(self, n, vdot_calls):
        # the n = 128 half spectrum (8 320 elements) still fits in one slice
        fh, gh = self.spectra(n)
        assert fh.size <= surface._DOT_SLICE
        got = surface._dot(fh, gh)
        assert vdot_calls == [fh.size]
        assert np.float64(got).tobytes() == np.float64(np.vdot(fh, gh).real).tobytes()

    @pytest.mark.parametrize("n", [256, 512])
    def test_slices_summed_in_order(self, n, vdot_calls):
        fh, gh = self.spectra(n)
        f, g = fh.ravel(), gh.ravel()
        step = surface._DOT_SLICE
        total = 0.0
        for i in range(0, f.size, step):
            total += np.vdot(f[i:i + step], g[i:i + step]).real
        vdot_calls.clear()
        got = surface._dot(fh, gh)
        assert vdot_calls == [min(step, f.size - i) for i in range(0, f.size, step)]
        assert np.float64(got).tobytes() == np.float64(total).tobytes()
        assert got == pytest.approx(float(np.vdot(fh, gh).real), rel=1e-12)

    def test_slice_order_is_the_array_order(self):
        # slice dots 1, 1e16, -1e16: in order 1 is absorbed, reversed it survives
        step = surface._DOT_SLICE
        f = np.zeros(3 * step, dtype=complex)
        f[0], f[step], f[2 * step] = 1.0, 1e16, -1e16
        assert surface._dot(f, np.ones_like(f)) == 0.0
