"""The mean-field energy, its gradient, and the Moser-Trudinger deficit.

J_rho couples a Dirichlet term with two exponential log-integrals (weights
e^u and e^{-2u}).  Three facts drive everything downstream:

  * J_rho depends on u only through u - ubar (shift invariance);
  * its L^2 gradient is the mean-field equation itself, so a small
    residual field certifies a discrete solution;
  * at unit weights J_rho is the Moser-Trudinger deficit with
    coefficients (a1, a2) = (rho1, rho2), bounded below exactly up to the
    sharp coefficients (8 pi, 4 pi).
"""

import numpy as np

from tzlab import (Params, build_bubble, build_grid, constant_field,
                   default_join_config, energy_J, field_from_function,
                   integrate, residual_J)

grid = build_grid(64)
h1 = field_from_function(grid, lambda x, y: 1 + 0.5 * np.cos(2 * np.pi * x))
h2 = constant_field(grid, 1.0)
p = Params(4 * np.pi, 2 * np.pi, h1, h2)

u = field_from_function(grid, lambda x, y: np.sin(2 * np.pi * y) + 0.2 * np.cos(2 * np.pi * x))

print("-- shift invariance --")
for c in (0.0, -30.0, 55.0):
    print(f"   J(u + {c:+5.1f}) = {energy_J(u + c, p):.12f}")

print("\n-- the residual is the equation --")
r = residual_J(u, p)
print(f"   |residual(u)|_L2 = {np.sqrt(integrate(r * r)):.4f}   (u is not a solution)")
r0 = residual_J(constant_field(grid, 0.0), Params(4 * np.pi, 2 * np.pi, h2, h2))
print(f"   |residual(0)|_inf with constant weights = {np.abs(r0.values).max():.1e}  (constants solve it)")
print(f"   mean of the residual (zero by construction): {integrate(r):+.1e}")

print("\n-- finite differences agree with the gradient --")
v = field_from_function(grid, lambda x, y: np.cos(4 * np.pi * x) * np.sin(2 * np.pi * y))
eps = 1e-4
fd = (energy_J(u + eps * v, p) - energy_J(u - eps * v, p)) / (2 * eps)
print(f"   directional derivative:  fd = {fd:.10f},  <residual, v> = {integrate(r * v):.10f}")

print("\n-- deficit along a concentrating family --")
print("   D(u) = 1/2 |grad u|^2 - a1 log int e^(u-ub) - a2/2 log int e^(-2(u-ub))")
grid256 = build_grid(256)
one = constant_field(grid256, 1.0)
zeta = default_join_config(grid256, 1, 1, 0.0)
for a1_label, a1 in [("below (6 pi)", 6 * np.pi), ("sharp (8 pi)", 8 * np.pi), ("above (10 pi)", 10 * np.pi)]:
    # the deficit is J_rho at unit weights with rho = (a1, a2)
    p_unit = Params(a1, 0.0, one, one)
    vals = [energy_J(build_bubble(zeta, lam, grid256), p_unit) for lam in (25.0, 100.0, 400.0)]
    trend = "grows" if vals[-1] > vals[0] else "sinks"
    print(f"   a1 {a1_label:13s}: D = {vals[0]:9.2f} -> {vals[1]:9.2f} -> {vals[2]:9.2f}   ({trend})")
print("   bounded below exactly up to a1 = 8 pi: the sharp constant.")
