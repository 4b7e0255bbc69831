"""tzlab: a numerical laboratory for the Tzitzeica mean-field equation.

Spectral calculus on the unit-area flat torus, the two-exponent
mean-field energy (at unit weights the Moser-Trudinger deficit, sharp
constants 8*pi and 4*pi), concentrating bubble families, Sobolev-gradient
minimization in the coercive regime, and a radial shooting solver with
Pohozaev and mass-quantization oracles.
"""

__version__ = "0.1.0"

from .bubbles import JoinConfig, build_bubble, liouville_bubble, liouville_mass
from .descent import Solution, minimize
from .energy import ExpUnderflow, Params, energy_J, residual_J
from .experiments import (SweepResult, bubble_energy_sweep, component_asymptotics_sweep,
                          default_join_config, fit_slope, mt_threshold_scan)
from .radial import (MassPair, TrajectoryOverflow, alpha_sweep,
                     classify_mass_pair, dirichlet_alpha, limit_mass_relation,
                     pohozaev_residual_profile, quantization_table, shoot)
from .recipes import RecipeError, field_from_recipe, parse_recipe
from .surface import (GridError, ScalarField, build_grid, constant_field,
                      distance_field, field_from_function, grad_norm_sq, integrate)

__all__ = [
    "ExpUnderflow", "GridError", "JoinConfig", "MassPair", "Params",
    "RecipeError", "ScalarField", "Solution", "SweepResult",
    "TrajectoryOverflow", "alpha_sweep", "bubble_energy_sweep",
    "build_bubble", "build_grid", "classify_mass_pair",
    "component_asymptotics_sweep", "constant_field", "default_join_config",
    "dirichlet_alpha", "distance_field", "energy_J", "field_from_function",
    "field_from_recipe", "fit_slope", "grad_norm_sq", "integrate",
    "limit_mass_relation", "liouville_bubble", "liouville_mass",
    "minimize", "mt_threshold_scan", "parse_recipe", "pohozaev_residual_profile",
    "quantization_table", "residual_J", "shoot",
]
