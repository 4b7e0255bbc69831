"""Damped Sobolev-gradient descent for the mean-field equation.

In the coercive regime (rho1 < 8*pi, rho2 < 4*pi) the energy J_rho is
bounded below and a direct minimizer solves the equation; this module
finds it by preconditioned gradient descent with an Armijo line search.
The search direction is the H^1 gradient -(-Lap + I)^{-1} r, applied
spectrally as -r^/(|k|^2 + 1): the raw L^2 flow is stiff on fine grids.
The iterate is kept at zero mean -- the energy is shift invariant, so this
only removes the flat direction from the search.

The iterate u is carried together with its half-spectrum transform u^, so
one iteration costs one real transform pair: an ``rfft2`` of the density
term g of the residual, r^ = |k|^2 u^ + g^, and an ``irfft2`` of the
search direction d^.  Norms and the Armijo slope are Parseval sums.  Along
u + t d the Dirichlet term 1/2 int |grad(u + t d)|^2 = 1/2 (A + 2tB + t^2 C)
is quadratic in t with coefficients from u^ and d^, so a trial step costs
no transform, only the two exps of the energy's potential, whose densities
the accepted step hands on to the next residual.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .energy import Params, _potential
from .surface import ScalarField, mean

# Energy decrements below roundoff resolution cannot be certified by the
# Armijo test; steps predicted to decrease by less than this slack are
# accepted on the strength of the descent direction alone.
_ROUNDOFF_SLACK = 1e-13
# Armijo line search: first step, decrease constant, backtrack factor, stall step.
_STEP0 = 1.0
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_MIN_STEP = 1e-13


@dataclass
class Solution:
    """Converged (or best-so-far) iterate, reported in the zero-mean gauge.

    ``energy_evals`` counts evaluations of the energy (the start and every
    trial step); ``backtracks`` counts rejected trial steps.
    """

    u: ScalarField
    energy: float
    residual_norm: float
    iterations: int
    converged: bool
    energy_evals: int
    backtracks: int


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


def minimize(p: Params, u0: ScalarField, max_iters: int = 2000,
             tol_residual: float = 1e-9) -> Solution:
    """Minimize J_rho from u0; returns the zero-mean solution.

    The energy sequence is nonincreasing (Armijo-enforced, up to roundoff
    resolution).  Raises NonConvergence (after max_iters iterations) or
    LineSearchStall carrying the best iterate when the residual norm stays
    above tol_residual.
    """
    if tol_residual <= 0:
        raise ValueError("tol_residual must be positive")
    if not p.coercive:
        warnings.warn(
            "rho outside the coercive region (rho1 < 8*pi, rho2 < 4*pi): "
            "the energy may be unbounded below and descent may not converge",
            stacklevel=2,
        )
    grid = p.grid
    dx2 = grid.dx**2
    k2 = grid.k2_half
    # int f g = sum(weight * Re(conj(f^) g^)) over the half spectrum
    weight = grid.multiplicity / float(grid.n) ** 4

    def inner(fh, gh) -> float:
        return float(np.vdot(fh, weight * gh).real)

    def residual(uh, g):
        # the residual has zero mean; its zero mode is pure roundoff
        k2uh = k2 * uh
        rh = k2uh + np.fft.rfft2(g)
        rh[0, 0] = 0.0
        return k2uh, rh, float(np.sqrt(inner(rh, rh)))

    u = u0.values - mean(u0)
    uh = np.fft.rfft2(u)
    pot, g = _potential(u, p, dx2)
    k2uh, rh, rnorm = residual(uh, g)
    e = 0.5 * inner(uh, k2uh) + pot
    evals, backtracks = 1, 0

    def solution(iterations: int, converged: bool) -> Solution:
        return Solution(ScalarField(grid, u), e, rnorm, iterations, converged,
                        evals, backtracks)

    iterations = 0
    for iterations in range(1, max_iters + 1):
        if rnorm <= tol_residual:
            return solution(iterations - 1, True)
        dh = -rh / (k2 + 1.0)
        d = np.fft.irfft2(dh, s=u.shape)
        slope = inner(rh, dh)
        a, b, c = inner(uh, k2uh), inner(k2uh, dh), inner(dh, k2 * dh)
        t = _STEP0
        guard = _ROUNDOFF_SLACK * (1.0 + abs(e))
        while True:
            u_new = u + t * d
            pot, g = _potential(u_new, p, dx2)
            evals += 1
            e_new = 0.5 * (a + t * (2.0 * b + t * c)) + pot
            if e_new <= e + _ARMIJO_C * t * slope + guard:
                break
            backtracks += 1
            t *= _BACKTRACK
            if t < _MIN_STEP:
                raise LineSearchStall(solution(iterations, False))
        u, uh, e = u_new, uh + t * dh, e_new
        k2uh, rh, rnorm = residual(uh, g)
    if rnorm <= tol_residual:
        return solution(iterations, True)
    raise NonConvergence(solution(iterations, False))
