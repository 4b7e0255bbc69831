"""Spectral calculus on the unit-area flat torus.

The whole library works on one surface: the square torus [0,1)^2 with
|M| = 1, sampled on a uniform n-by-n grid.  This demo shows why that
choice is convenient: integration is a plain sum that is exact for
band-limited functions, and the Laplacian/Dirichlet energy are exact
Fourier multipliers.
"""

import numpy as np

from tzlab import (Params, build_grid, constant_field, field_from_function,
                   grad_norm_sq, integrate, residual_J)

grid = build_grid(64)
one = constant_field(grid, 1.0)


def laplacian(f):
    # residual_J is -Lap u + (the exp terms' gradient), which is exactly
    # zero at rho = (0, 0)
    return -residual_J(f, Params(0.0, 0.0, one, one))

print(f"grid: n={grid.n}, dx=1/{grid.n}, total area = {grid.n**2 * grid.dx**2}")

print("\n-- quadrature is exact below the Nyquist band --")
for label, fn, exact in [
    ("1", lambda x, y: np.ones_like(x), 1.0),
    ("cos(2 pi x)", lambda x, y: np.cos(2 * np.pi * x), 0.0),
    ("cos^2(2 pi x)", lambda x, y: np.cos(2 * np.pi * x) ** 2, 0.5),
    ("3 + cos(2 pi x)", lambda x, y: 3 + np.cos(2 * np.pi * x), 3.0),
]:
    f = field_from_function(grid, fn)
    print(f"   int {label:16s} = {integrate(f):+.15f}   (exact {exact:+g})")

print("\n-- the Laplacian multiplies each mode by -|k|^2 --")
f = field_from_function(grid, lambda x, y: np.cos(2 * np.pi * x))
err = np.abs(laplacian(f).values + 4 * np.pi**2 * f.values).max()
print(f"   |Lap cos(2 pi x) + 4 pi^2 cos(2 pi x)|_inf = {err:.2e}")
# the area is 1, so the integral is the mean
print(f"   mean of Lap f (zero to roundoff): {integrate(laplacian(f)):+.2e}")

print("\n-- Dirichlet energy by Parseval --")
print(f"   int |grad cos(2 pi x)|^2 = {grad_norm_sq(f):.12f}   (exact 2 pi^2 = {2 * np.pi**2:.12f})")
g = field_from_function(grid, lambda x, y: np.sin(4 * np.pi * y) + 0.3 * np.cos(2 * np.pi * x))
ibp_gap = grad_norm_sq(g) + integrate(g * laplacian(g))
print(f"   integration by parts gap for a mixed field: {ibp_gap:+.2e}")
print(f"   energy of a constant field: {grad_norm_sq(constant_field(grid, 42.0)):.1e}")

print("\n-- refinement changes nothing for band-limited fields --")
fine = build_grid(128)
f_fine = field_from_function(fine, lambda x, y: np.cos(2 * np.pi * x) ** 2)
f_coarse = field_from_function(grid, lambda x, y: np.cos(2 * np.pi * x) ** 2)
print(f"   integrate at n=64:  {integrate(f_coarse):.15f}")
print(f"   integrate at n=128: {integrate(f_fine):.15f}")
