"""Damped Sobolev-gradient descent for the mean-field equation.

In the coercive regime (rho1 < 8*pi, rho2 < 4*pi) the energy J_rho is
bounded below and a direct minimizer solves the equation; this module
finds it by preconditioned gradient descent with an Armijo line search.
The default preconditioner applies (-Lap + I)^{-1} spectrally (an H^1
gradient): the raw L^2 flow is stiff on fine grids.  The iterate is
projected to zero mean every step -- the energy is shift invariant, so
this only removes the flat direction from the search.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .energy import Params, energy_J, residual_J
from .surface import ScalarField, integrate, mean, solve_helmholtz

# Energy decrements below roundoff resolution cannot be certified by the
# Armijo test; steps predicted to decrease by less than this slack are
# accepted on the strength of the descent direction alone.
_ROUNDOFF_SLACK = 1e-13


@dataclass(frozen=True)
class DescentConfig:
    max_iters: int = 2000
    tol_residual: float = 1e-9
    step0: float = 1.0
    armijo_c: float = 1e-4
    armijo_backtrack: float = 0.5
    precondition: bool = True
    min_step: float = 1e-13

    def __post_init__(self):
        if self.tol_residual <= 0:
            raise ValueError("tol_residual must be positive")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError("armijo_c must lie in (0, 1)")
        if not 0.0 < self.armijo_backtrack < 1.0:
            raise ValueError("armijo_backtrack must lie in (0, 1)")


@dataclass
class Solution:
    """Converged (or best-so-far) iterate, reported in the zero-mean gauge."""

    u: ScalarField
    energy: float
    residual_norm: float
    iterations: int
    converged: bool


class NonConvergence(RuntimeError):
    """Iteration cap reached with the residual above tolerance."""

    def __init__(self, best: Solution):
        super().__init__(
            f"no convergence in {best.iterations} iterations "
            f"(residual {best.residual_norm:.3e})"
        )
        self.best = best


class LineSearchStall(RuntimeError):
    """No energy decrease at the minimal step size."""

    def __init__(self, best: Solution):
        super().__init__(
            f"line search stalled at iteration {best.iterations} "
            f"(residual {best.residual_norm:.3e})"
        )
        self.best = best


def precondition_gradient(r: ScalarField) -> ScalarField:
    """H^1 preconditioner: spectral solve of (-Lap + I) g = r.

    Exact on the grid; the zero mode is divided by 1, so the mean of r is
    preserved.
    """
    return solve_helmholtz(r, shift=1.0)


def _l2_norm(f: ScalarField) -> float:
    return float(np.sqrt(integrate(f * f)))


def minimize(p: Params, u0: ScalarField, cfg: DescentConfig = DescentConfig()) -> Solution:
    """Minimize J_rho from u0; returns the zero-mean solution.

    The energy sequence is nonincreasing (Armijo-enforced, up to roundoff
    resolution).  Raises NonConvergence or LineSearchStall carrying the
    best iterate when the tolerance is not met.
    """
    if not p.coercive:
        warnings.warn(
            "rho outside the coercive region (rho1 < 8*pi, rho2 < 4*pi): "
            "the energy may be unbounded below and descent may not converge",
            stacklevel=2,
        )
    u = u0 - mean(u0)
    e = energy_J(u, p)
    r = residual_J(u, p)
    rnorm = _l2_norm(r)
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        if rnorm <= cfg.tol_residual:
            return Solution(u, e, rnorm, iterations - 1, True)
        d = -precondition_gradient(r) if cfg.precondition else -r
        slope = integrate(r * d)
        t = cfg.step0
        guard = _ROUNDOFF_SLACK * (1.0 + abs(e))
        while True:
            u_new = u + t * d
            u_new = u_new - mean(u_new)
            e_new = energy_J(u_new, p)
            if e_new <= e + cfg.armijo_c * t * slope + guard:
                break
            t *= cfg.armijo_backtrack
            if t < cfg.min_step:
                raise LineSearchStall(Solution(u, e, rnorm, iterations, False))
        u, e = u_new, e_new
        r = residual_J(u, p)
        rnorm = _l2_norm(r)
    if rnorm <= cfg.tol_residual:
        return Solution(u, e, rnorm, iterations, True)
    raise NonConvergence(Solution(u, e, rnorm, iterations, False))
