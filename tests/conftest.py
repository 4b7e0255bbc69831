import numpy as np
import pytest

from tzlab import ScalarField, build_grid


def random_trig_coeffs(rng, kmax=6, modes=8):
    """Coefficients of a random band-limited trigonometric polynomial."""
    coeffs = []
    for _ in range(modes):
        kx, ky = (int(v) for v in rng.integers(-kmax, kmax + 1, size=2))
        coeffs.append((float(rng.normal()), kx, ky, float(rng.uniform(0.0, 2.0 * np.pi))))
    return coeffs


def node_coordinates(grid):
    """Reference x and y of every node as (n, n) meshes (axis 1 is x),
    built from the grid's one coordinate array."""
    return np.meshgrid(grid.axis_points, grid.axis_points, indexing="xy")


def sample_trig(grid, coeffs, amplitude=1.0):
    """Sample the trig polynomial onto a grid; same coeffs give the same
    function at any resolution."""
    X, Y = node_coordinates(grid)
    vals = np.zeros((grid.n, grid.n))
    for a, kx, ky, phase in coeffs:
        vals += a * np.cos(2.0 * np.pi * (kx * X + ky * Y) + phase)
    scale = max(1.0, np.abs(vals).max())
    return ScalarField(grid, amplitude * vals / scale)


def smooth_field(grid, rng, kmax=6, modes=8, amplitude=1.0):
    return sample_trig(grid, random_trig_coeffs(rng, kmax, modes), amplitude)


@pytest.fixture
def grid64():
    return build_grid(64)


@pytest.fixture
def grid32():
    return build_grid(32)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
