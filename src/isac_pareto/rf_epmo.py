"""RF precoder solver by exact penalty plus Riemannian conjugate gradient.

The SINR and power constraints are folded into the objective as squared
hinges weighted by a penalty factor, and the resulting smooth function is
minimized over the complex-circle manifold with a conjugate-gradient loop:
project the ambient gradient onto the tangent space, line-search with Armijo
backtracking, retract entrywise onto the circle, and transport the previous
direction for a nonnegative Polak-Ribiere update. Whenever the converged
point still violates the constraints, the penalty factor is divided by the
contraction constant and the loop reruns from the current point.

Hinges act on the normalized residuals (noise units for SINR, budget units
for power); in raw watts the constraint scale is ~1e-12 and the penalty
terms would vanish into rounding error. The ambient gradient follows the
convention that the first-order change along a perturbation dz is
Re(grad^H dz).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .numerics import fast_unit, phase_project
from .quadratics import QuadraticForms

__all__ = [
    "PenaltyConfig",
    "EpmoResult",
    "penalty_objective",
    "constraint_violation",
    "euclidean_gradient",
    "riemannian_gradient",
    "transport",
    "retract",
    "epmo_solve",
]


# stationarity tolerances on the squared Riemannian gradient norm: the
# accepted round is polished to TOL_GRAD, interim rounds of the escalation
# ramp stop at TOL_GRAD_COARSE
TOL_GRAD = 1e-8
TOL_GRAD_COARSE = 1e-5
# Armijo backtracking: initial step, contraction per backtrack, sufficient
# decrease constant, and the backtrack cap
ARMIJO_STEP = 1.0
ARMIJO_CONTRACTION = 0.5
ARMIJO_SIGMA = 1e-4
ARMIJO_MAX_BACKTRACKS = 40


@dataclass(frozen=True)
class PenaltyConfig:
    """Penalty schedule and iteration caps of the manifold solver."""

    mu0: float = 10.0
    c: float = 0.5                 # growth divisor: mu <- mu / c per round
    tol_violation: float = 1e-8    # on the summed squared hinges
    max_outer: int = 12
    max_inner: int = 400

    def __post_init__(self):
        if self.mu0 <= 1.0:
            raise ValueError("initial penalty factor must exceed 1")
        if not 0.0 < self.c < 1.0:
            raise ValueError("contraction constant must lie in (0, 1)")


@dataclass
class EpmoResult:
    d: np.ndarray
    feasible: bool
    violation: float
    trace: List[dict] = field(default_factory=list)
    outer_rounds: int = 0


def constraint_violation(q: QuadraticForms, d: np.ndarray) -> float:
    """Summed squared hinge violations of the normalized constraints."""
    _, sinr_res, power_res = q.probe_eval(d)
    hinge = float(np.sum(np.maximum(0.0, sinr_res) ** 2))
    return hinge + max(0.0, power_res) ** 2


def penalty_objective(q: QuadraticForms, d: np.ndarray, mu: float) -> float:
    """RBE plus mu times the summed squared constraint hinges."""
    objective, sinr_res, power_res = q.probe_eval(d)
    hinge = float(np.sum(np.maximum(0.0, sinr_res) ** 2)) + max(0.0, power_res) ** 2
    return objective + mu * hinge


def euclidean_gradient(q: QuadraticForms, d: np.ndarray, mu: float) -> np.ndarray:
    """Ambient-space gradient 2*Xi*d - 2*a + mu * (hinge terms).

    Each active hinge contributes 4 * residual * (matrix @ d) in its
    normalized units; inactive hinges contribute nothing. All terms share
    one composite-precoder product.
    """
    f_rf = q.mat(d)
    eff = f_rf @ q.f_bb
    xi_d = q.vec(eff @ q.f_bb.conj().T)  # Xi @ d = vec(F (Fbb Fbb^H))
    grad = 2.0 * (xi_d - q.a_r)
    if mu != 0.0:
        acc = np.zeros_like(grad)
        if q.active.size:
            t = q.h.conj() @ eff
            powers = np.abs(t) ** 2
            totals = powers.sum(axis=1)
            for k, m in enumerate(q.active):
                res = (totals[m] - powers[m, m]
                       - powers[m, m] / q.gamma[m] + q.noise) / q.noise
                if res >= 0.0:
                    weights = np.ones(q.m_users)
                    weights[m] = -1.0 / q.gamma[m]
                    row = (q.f_bb.conj() * (weights * t[m])).sum(axis=1)
                    acc += (4.0 * res / q.noise) * q.vec(np.outer(q.h[m], row))
        power_res = (float(np.real(np.vdot(eff, eff))) - q.p_max) / q.p_max
        if power_res >= 0.0:
            acc += (4.0 * power_res / q.p_max) * xi_d
        grad = grad + mu * acc
    return grad


def riemannian_gradient(d: np.ndarray, egrad: np.ndarray) -> np.ndarray:
    """Project an ambient gradient onto the tangent space at d."""
    return egrad - np.real(egrad * np.conj(d)) * d


def transport(zeta: np.ndarray, d_next: np.ndarray) -> np.ndarray:
    """Carry a tangent vector into the tangent space at d_next."""
    return zeta - np.real(zeta * np.conj(d_next)) * d_next


def retract(d: np.ndarray, step: float, zeta: np.ndarray) -> np.ndarray:
    """Step along zeta and renormalize entrywise back onto the circle."""
    return phase_project(d + step * zeta)


def _grad_norm_sq(grad: np.ndarray) -> float:
    return float(np.real(np.vdot(grad, grad)))


def epmo_solve(
    q: QuadraticForms,
    d_init: np.ndarray,
    pcfg: Optional[PenaltyConfig] = None,
) -> EpmoResult:
    """Penalty-escalation loop around the Riemannian CG inner solver.

    The start need not be feasible; the penalty pulls iterates toward the
    constraint set. Returns an infeasibility report (feasible=False with the
    residual violation) if the escalation budget runs out.
    """
    pcfg = pcfg or PenaltyConfig()
    d = phase_project(np.asarray(d_init, dtype=np.complex128))
    mu = pcfg.mu0
    trace: List[dict] = []
    rounds = 0

    # interim escalation rounds only need a coarse stationary point: the
    # weight is about to change anyway; the accepted round gets the full
    # gradient polish before the feasibility verdict
    prev_violation = np.inf
    for rounds in range(1, pcfg.max_outer + 1):
        d = _rcg_minimize(q, d, mu, pcfg.max_inner, trace, TOL_GRAD_COARSE)
        violation = constraint_violation(q, d)
        if violation <= pcfg.tol_violation:
            d = _rcg_minimize(q, d, mu, pcfg.max_inner, trace, TOL_GRAD)
            violation = constraint_violation(q, d)
            if violation <= pcfg.tol_violation:
                return EpmoResult(d=d, feasible=True, violation=violation,
                                  trace=trace, outer_rounds=rounds)
        if rounds >= 3 and violation >= 0.9 * prev_violation:
            break  # escalation stopped shrinking the violation: unattainable
        prev_violation = violation
        mu = mu / pcfg.c
    return EpmoResult(d=d, feasible=False, violation=constraint_violation(q, d),
                      trace=trace, outer_rounds=rounds)


def _rcg_minimize(q, d, mu, max_inner: int, trace: List[dict],
                  tol_grad: float) -> np.ndarray:
    f_val = penalty_objective(q, d, mu)
    grad = riemannian_gradient(d, euclidean_gradient(q, d, mu))
    gsq = _grad_norm_sq(grad)
    direction = -grad
    step_seed = ARMIJO_STEP

    for it in range(max_inner):
        if gsq <= tol_grad:
            break
        slope = float(np.real(np.vdot(grad, direction)))
        if slope >= 0.0:
            direction = -grad
            slope = -gsq
        step = step_seed
        accepted = False
        backtracks = 0
        for backtracks in range(ARMIJO_MAX_BACKTRACKS):
            probe = fast_unit(d + step * direction)
            f_new = penalty_objective(q, probe, mu)
            if f_new <= f_val + ARMIJO_SIGMA * step * slope:
                accepted = True
                break
            step *= ARMIJO_CONTRACTION
        if not accepted:
            break  # stationary to line-search resolution
        # remember the accepted scale: start the next search just above it
        if backtracks == 0:
            step_seed = min(ARMIJO_STEP, step / ARMIJO_CONTRACTION)
        else:
            step_seed = min(ARMIJO_STEP, step / ARMIJO_CONTRACTION ** 2)

        candidate = retract(d, step, direction)
        f_new = penalty_objective(q, candidate, mu)
        grad_new = riemannian_gradient(candidate, euclidean_gradient(q, candidate, mu))
        gsq_new = _grad_norm_sq(grad_new)
        diff = grad_new - transport(grad, candidate)
        beta = max(0.0, float(np.real(np.vdot(grad_new, diff))) / max(gsq, 1e-300))
        direction = -grad_new + beta * transport(direction, candidate)
        d, grad, gsq, f_val = candidate, grad_new, gsq_new, f_new
        trace.append({
            "iteration": it,
            "objective": f_val,
            "grad_norm_sq": gsq,
            "mu": mu,
        })
    return d
