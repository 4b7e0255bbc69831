"""Mean-field-preconditioned L-BFGS descent for the mean-field equation.

In the coercive regime (rho1 < 8*pi, rho2 < 4*pi) the energy J_rho is
bounded below and a direct minimizer solves the equation; this module
finds it by a quasi-Newton descent with an Armijo line search.  The
search direction is -H r, where H is the L-BFGS inverse Hessian built by
the two-loop recursion from the last few steps s and residual changes y.
Its initial inverse Hessian H0 is (-Lap + 1 - theta)^{-1}, applied
spectrally as 1/(|k|^2 + 1 - theta).  At constant weights the Hessian of
J_rho on zero-mean fields is -Lap - rho1 - 2 rho2, so theta is the
mean-field curvature shift rho1 + 2 rho2, capped at half the first
eigenvalue 4 pi^2 of -Lap on the unit torus: off the zero mode the symbol
stays at least 2 pi^2 + 1 for every rho.  The unshifted H^1 preconditioner
(-Lap + I)^{-1} overstates the curvature of the first Fourier shell
|k|^2 = 4 pi^2 by the factor (4 pi^2 + 1)/(4 pi^2 - rho1 - 2 rho2), about
23 at rho = (6 pi, 3 pi), and L-BFGS would spend iterations unlearning it.
With no curvature pairs the direction is -r^/(|k|^2 + 1 - theta).  A pair
is kept only when s.y > 0, and a direction that is not a descent direction
clears the pairs and falls back to -H0 r.
The iterate is kept at zero mean -- the energy is shift invariant, so this
only removes the flat direction from the search.

The iterate u is carried together with its half-spectrum transform u^, so
one iteration costs one real transform pair, both ``surface``'s: a forward
one (``_half_spectrum``) of the density term g of the residual
``energy._residual``, r^ = |k|^2 u^ + g^, and an inverse one
(``_from_half_spectrum``) of the search direction d^.  Every half spectrum
is pre-weighted in ``surface``'s one convention, so norms, the Armijo
slope and the recursion's inner products are ``surface._dot``, and the
start's 1/2 _dot(u^, |k|^2 u^) is ``energy_J``'s Dirichlet term bit for
bit.  The pairs are kept in the half spectrum, and the two-loop recursion
updates its vectors in place.
Along u + t d the Dirichlet term 1/2 int |grad(u + t d)|^2 =
1/2 (A + 2tB + t^2 C) is quadratic in t with coefficients from u^ and d^,
so a trial step costs no transform, only the two exps of the energy's
potential, whose densities the accepted step hands on to the next residual.

``minimize`` returns its last accepted iterate, the best one.  Its loop
condition is its one stop rule: a carried residual norm at or below tol is
replaced at once by a fresh spectrum's, on which ``converged`` is decided.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .energy import ExpUnderflow, Params, _potential, _residual
from .surface import ScalarField, _dot, _from_half_spectrum, _half_spectrum, integrate

# Energy decrements below roundoff resolution cannot be certified by the
# Armijo test; steps predicted to decrease by less than this slack are
# accepted on the strength of the descent direction alone.
_ROUNDOFF_SLACK = 1e-13
# Armijo line search: first step, decrease constant, backtrack factor, stall step.
_STEP0 = 1.0
_ARMIJO_C = 1e-4
_BACKTRACK = 0.5
_MIN_STEP = 1e-13
# L-BFGS memory: curvature pairs kept for the two-loop recursion.
_MEMORY = 5
# Cap of the curvature shift theta of H0: half the first eigenvalue 4 pi^2
# of -Lap on the unit torus.  A cap of 0.95 * 4 pi^2 leaves weighted solves
# at rho = (6 pi, 3 pi) without convergence; 0.5 and 0.9 converge everywhere.
_SHIFT_CAP = 2.0 * np.pi**2


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


class _InverseHessian:
    """L-BFGS inverse Hessian H of J_rho over the pre-weighted half spectrum.

    Keeps the last ``_MEMORY`` curvature pairs s^ = t d^, y^ = r^_new - r^_old
    of accepted steps; the L^2 inner product of two pre-weighted spectra is
    ``_dot(f, g)``.  The initial inverse Hessian H0 divides by the
    Fourier symbol |k|^2 + 1 - theta of -Lap + 1 - theta, where theta is
    the curvature shift, so with no pairs the direction is
    -r^/(|k|^2 + 1 - theta).
    """

    def __init__(self, k2, theta):
        self.symbol = k2 + (1.0 - theta)
        # r^ has no zero mode; a unit symbol there keeps 0/0 out at theta = 1
        self.symbol[0, 0] = 1.0
        self.pairs = deque(maxlen=_MEMORY)  # (s^, y^, 1/(s.y)), oldest first

    def direction(self, rh):
        """The search direction -H r^ by the two-loop recursion, and its
        slope int r d.  A direction whose slope is not negative (roundoff
        has spoiled the pairs) clears them and gives -H0 r^."""
        q = rh.copy()
        scaled = np.empty_like(q)  # a * y^ or b * s^, without a temporary per pair
        alphas = []
        for sh, yh, rho in reversed(self.pairs):
            a = rho * _dot(sh, q)
            q -= np.multiply(yh, a, out=scaled)
            alphas.append(a)
        z = q
        z /= self.symbol
        for (sh, yh, rho), a in zip(self.pairs, reversed(alphas)):
            z += np.multiply(sh, a - rho * _dot(yh, z), out=scaled)
        dh = np.negative(z, out=z)
        slope = _dot(rh, dh)
        if not slope < 0.0:
            self.pairs.clear()
            dh = -rh / self.symbol
            slope = _dot(rh, dh)
        return dh, slope

    def update(self, sh, yh):
        """Keep the pair (s^, y^) if its curvature s.y is positive."""
        sy = _dot(sh, yh)
        if sy > 0.0:
            self.pairs.append((sh, yh, 1.0 / sy))


def minimize(p: Params, u0: ScalarField, max_iters: int = 2000,
             tol_residual: float = 1e-9) -> Solution:
    """Minimize J_rho from u0; returns the best iterate in the zero-mean gauge.

    Each iteration searches along the L-BFGS direction, started from H0 with
    the curvature shift theta = min(rho1 + 2 rho2, 2 pi^2), from a unit
    first step.  The energy sequence is nonincreasing
    (Armijo-enforced, up to roundoff resolution), so the last accepted
    iterate is the best.  The descent stops when the residual norm is at
    most tol_residual on a fresh spectrum of the iterate (the figure it
    reports), after max_iters iterations, or when the line search finds no
    decrease above the minimal step; ``converged`` tells whether the
    residual met tol_residual.  A floating-point overflow, invalid value or
    division by zero in the descent (at a huge rho, say) raises ExpUnderflow.
    """
    if not tol_residual > 0:
        raise ValueError("tol_residual must be positive")
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return _descend(p, u0, max_iters, tol_residual)
    except FloatingPointError as exc:
        raise ExpUnderflow(f"descent: {exc}") from exc


def _descend(p: Params, u0: ScalarField, max_iters: int, tol_residual: float) -> Solution:
    """``minimize``'s descent, under its floating-point error state."""
    grid = p.grid
    k2 = grid.k2_half
    u = u0.values - integrate(u0)
    uh = _half_spectrum(u, grid)
    pot, g = _potential(u, p)
    k2uh, rh, rnorm = _residual(uh, g, grid)
    e = 0.5 * _dot(uh, k2uh) + pot
    hessian = _InverseHessian(k2, min(p.rho1 + 2.0 * p.rho2, _SHIFT_CAP))
    evals, backtracks = 1, 0
    iterations = 0
    while rnorm > tol_residual and iterations < max_iters:
        iterations += 1
        dh, slope = hessian.direction(rh)
        d = _from_half_spectrum(dh, grid)
        a, b, c = _dot(uh, k2uh), _dot(k2uh, dh), _dot(dh, k2 * dh)
        t = _STEP0
        guard = _ROUNDOFF_SLACK * (1.0 + abs(e))
        while t >= _MIN_STEP:
            u_new = t * d
            u_new += u
            pot, g = _potential(u_new, p)
            evals += 1
            e_new = 0.5 * (a + t * (2.0 * b + t * c)) + pot
            if e_new <= e + _ARMIJO_C * t * slope + guard:
                break
            backtracks += 1
            t *= _BACKTRACK
        else:
            break  # the line search stalled; keep the last accepted iterate
        sh = t * dh
        u, uh, e, rh_old = u_new, uh + sh, e_new, rh
        k2uh, rh, rnorm = _residual(uh, g, grid)
        hessian.update(sh, rh - rh_old)
        if rnorm <= tol_residual:
            # the carried u^ drifts by roundoff: decide on a fresh spectrum, go on from it
            uh = _half_spectrum(u, grid)
            k2uh, rh, rnorm = _residual(uh, g, grid)
    return Solution(ScalarField(grid, u), e, rnorm, iterations,
                    rnorm <= tol_residual, evals, backtracks)
