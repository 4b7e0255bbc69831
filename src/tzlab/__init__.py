"""tzlab: a numerical laboratory for the Tzitzeica mean-field equation.

Spectral calculus on the unit-area flat torus, the two-exponent
mean-field energy and its Moser-Trudinger deficits (sharp constants
8*pi and 4*pi), concentrating bubble families, Sobolev-gradient
minimization in the coercive regime, and a radial shooting solver with
Pohozaev and mass-quantization oracles.
"""

__version__ = "0.1.0"

from .bubbles import (JoinConfig, build_bubble, lambda_split,
                      liouville_bubble, liouville_mass)
from .descent import (DescentConfig, LineSearchStall, NonConvergence,
                      Solution, minimize, precondition_gradient)
from .energy import (ExpUnderflow, MTCoefficients, Params, check_spread,
                     energy_I, energy_J, improved_mt_deficit, mt_deficit,
                     residual_J)
from .experiments import (DEFAULT_LAMBDAS, AlphaRow, SweepResult,
                          ThresholdScan, alpha_sweep, bubble_energy_sweep,
                          component_asymptotics_sweep, default_join_config,
                          fit_slope, grid_adequate, mt_deficit_sweep,
                          mt_threshold_scan, parallel_map)
from .radial import (MassPair, RadialProfile, StepTooLarge,
                     TrajectoryOverflow, classify_mass_pair, dirichlet_alpha,
                     limit_mass_relation, pohozaev_residual_profile,
                     quantization_table, shoot)
from .recipes import RecipeError, field_from_recipe, parse_recipe
from .surface import (GridError, ScalarField, TorusGrid, build_grid,
                      constant_field, distance_field, field_from_function,
                      grad_norm_sq, integrate, laplacian, mean,
                      solve_helmholtz, torus_distance)

__all__ = [
    "AlphaRow", "DEFAULT_LAMBDAS", "DescentConfig", "ExpUnderflow",
    "GridError", "JoinConfig", "LineSearchStall", "MTCoefficients",
    "MassPair", "NonConvergence", "Params", "RadialProfile", "RecipeError",
    "ScalarField", "Solution", "StepTooLarge", "SweepResult",
    "ThresholdScan", "TorusGrid", "TrajectoryOverflow", "alpha_sweep",
    "bubble_energy_sweep", "build_bubble", "build_grid", "check_spread",
    "classify_mass_pair", "component_asymptotics_sweep", "constant_field",
    "default_join_config", "dirichlet_alpha", "distance_field", "energy_I",
    "energy_J", "field_from_function", "field_from_recipe", "fit_slope",
    "grad_norm_sq", "grid_adequate", "improved_mt_deficit", "integrate",
    "lambda_split", "laplacian", "limit_mass_relation", "liouville_bubble",
    "liouville_mass", "mean", "minimize", "mt_deficit", "mt_deficit_sweep",
    "mt_threshold_scan", "parallel_map", "parse_recipe",
    "pohozaev_residual_profile", "precondition_gradient",
    "quantization_table", "residual_J", "shoot", "solve_helmholtz",
    "torus_distance",
]
