"""RF precoder solver by exact penalty plus Riemannian conjugate gradient.

The SINR and power constraints are folded into the objective as squared
hinges weighted by a penalty factor, and the resulting smooth function is
minimized over the complex-circle manifold with a conjugate-gradient loop:
project the ambient gradient onto the tangent space, line-search with Armijo
backtracking, retract entrywise onto the circle, and carry the previous
direction over by the same tangent projection (vector transport by
projection; Absil, Mahony & Sepulchre 2008, "Optimization Algorithms on
Matrix Manifolds") for a nonnegative Polak-Ribiere update. Whenever the
converged point still violates the constraints, the penalty factor is
divided by the contraction constant and the loop reruns from the current
point. The schedule is the module constants MU0, C, MAX_OUTER and
MAX_INNER, read at call time, and TOL_VIOLATION, the default tolerance.

Each accepted CG step evaluates the composite precoder F_rf F_bb, the
cross gains and the residuals at the new iterate once, and takes both the
penalty value and the ambient gradient from them; only the Armijo probes
evaluate the penalty value alone.

The same conjugate-gradient loop serves fit_rf_stage, the RF step of a
subproblem with no SINR threshold whose least-squares baseband fits the
budget: there the baseband is eliminated and the loop minimizes the fit
left over by the least-squares baseband directly (variable projection;
Golub & Pereyra 1973, "The differentiation of pseudo-inverses and nonlinear
least squares problems whose variables separate").

Hinges act on the normalized residuals (noise units for SINR, budget units
for power); in raw watts the constraint scale is ~1e-12 and the penalty
terms would vanish into rounding error. The ambient gradient follows the
convention that the first-order change along a perturbation dz is
Re(grad^H dz).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import fit_error, power
from .numerics import fast_unit, phase_project
from .quadratics import QuadraticForms

__all__ = [
    "EpmoResult",
    "penalty_objective",
    "constraint_violation",
    "euclidean_gradient",
    "riemannian_gradient",
    "retract",
    "epmo_solve",
    "fit_rf_stage",
]


# penalty schedule: initial factor, contraction (mu <- mu / C per round),
# caps on penalty rounds and on CG iterations per round, and the default
# feasibility tolerance on the summed squared hinges. The ramp is steep and
# short: inside the coordinate descent each RF subproblem is re-solved many
# times, and a fast escalation with an early coarse phase wins without
# hurting the converged point
MU0 = 10.0
C = 0.1
MAX_OUTER = 8
MAX_INNER = 400
TOL_VIOLATION = 1e-8
# A verdict at TOL_VIOLATION bounds each normalized residual by its square
# root, 1e-4. A normalized SINR residual is the relative shortfall
# 1 - SINR/Gamma of model.constraint_margins times (interference + noise) /
# noise, and the power residual is the relative excess itself, so a feasible
# verdict may miss the shared measure model.FEAS_SLACK by up to 100 times

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


@dataclass
class EpmoResult:
    d: np.ndarray
    feasible: bool


def _squared_hinges(sinr_res: np.ndarray, power_res: float) -> float:
    # a scalar sum without array temporaries; numpy sums fewer than eight
    # terms left to right too, so below eight active users it returns the
    # bits of float(np.sum(np.maximum(0.0, sinr_res) ** 2)). From eight on
    # numpy sums pairwise and the two may differ in the last few bits (both
    # stay within the usual n eps bound of the exact sum). A NaN residual
    # propagates as it does through np.maximum
    total = 0.0
    for res in sinr_res.tolist():
        if not res <= 0.0:
            total += res * res
    return total + max(0.0, power_res) ** 2


def constraint_violation(q: QuadraticForms, d: np.ndarray) -> float:
    """Summed squared hinge violations of the normalized constraints."""
    _, sinr_res, power_res = q.probe_eval(d)
    return _squared_hinges(sinr_res, power_res)


def _penalty(objective: float, sinr_res: np.ndarray, power_res: float,
             mu: float) -> float:
    return objective + mu * _squared_hinges(sinr_res, power_res)


def penalty_objective(q: QuadraticForms, d: np.ndarray, mu: float) -> float:
    """RBE plus mu times the summed squared constraint hinges."""
    return _penalty(*q.probe_eval(d), mu)


def _penalty_parts(q: QuadraticForms, d: np.ndarray, mu: float):
    """Penalty value at d with the parts its gradient reuses: the composite
    precoder F_rf F_bb, its cross gains and its residuals."""
    eff = q.mat(d) @ q.f_bb
    t, sinr_res, power_res = q.residuals(eff)
    value = _penalty(fit_error(eff, q.f_r_u), sinr_res, power_res, mu)
    return value, (eff, t, sinr_res, power_res)


def euclidean_gradient(q: QuadraticForms, d: np.ndarray, mu: float,
                       parts=None) -> np.ndarray:
    """Ambient-space gradient 2*Xi*d - 2*a + mu * (hinge terms).

    Each active hinge contributes 4 * residual * (matrix @ d) in its
    normalized units; inactive hinges contribute nothing. All terms share
    one composite-precoder product, which parts (from _penalty_parts at
    the same d) supplies together with the residuals when given.
    """
    eff = q.mat(d) @ q.f_bb if parts is None else parts[0]
    xi_d = q.xi_dot(eff)
    grad = 2.0 * (xi_d - q.a_r)
    if mu != 0.0:
        acc = np.zeros(grad.shape, grad.dtype)
        t, sinr_res, power_res = q.residuals(eff) if parts is None else parts[1:]
        for res, m in zip(sinr_res.tolist(), q.active.tolist()):
            if res >= 0.0:
                acc += (4.0 * res / q.noise) * q.delta_from_gains(t[m], m)
        if power_res >= 0.0:
            acc += (4.0 * power_res / q.p_max) * xi_d
        grad = grad + mu * acc
    return grad


def riemannian_gradient(d: np.ndarray, egrad: np.ndarray) -> np.ndarray:
    """Project an ambient vector onto the tangent space at d."""
    return _tangent(d, np.conj(d), egrad)


def _tangent(d: np.ndarray, d_conj: np.ndarray, v: np.ndarray) -> np.ndarray:
    return v - (v * d_conj).real * d


def retract(d: np.ndarray, step: float, zeta: np.ndarray) -> np.ndarray:
    """Step along zeta and renormalize entrywise back onto the circle."""
    return phase_project(d + step * zeta)


def _grad_norm_sq(grad: np.ndarray) -> float:
    return float(np.vdot(grad, grad).real)


def epmo_solve(q: QuadraticForms, d_init: np.ndarray,
               tol_violation: float = TOL_VIOLATION) -> EpmoResult:
    """Penalty-escalation loop around the Riemannian CG inner solver.

    The start need not be feasible; the penalty pulls iterates toward the
    constraint set until the summed squared hinges are at most
    tol_violation. Returns the last iterate with feasible=False if the
    escalation budget runs out.
    """
    d = phase_project(np.asarray(d_init, dtype=np.complex128))
    mu = MU0

    # interim escalation rounds only need a coarse stationary point: the
    # weight is about to change anyway; the accepted round gets the full
    # gradient polish before the feasibility verdict
    prev_violation = np.inf
    for rounds in range(1, MAX_OUTER + 1):
        functions = _penalty_functions(q, mu)
        d = _rcg_minimize(*functions, d, TOL_GRAD_COARSE)
        violation = constraint_violation(q, d)
        if violation <= tol_violation:
            d = _rcg_minimize(*functions, d, TOL_GRAD)
            violation = constraint_violation(q, d)
            if violation <= tol_violation:
                return EpmoResult(d=d, feasible=True)
        if rounds >= 3 and violation >= 0.9 * prev_violation:
            break  # escalation stopped shrinking the violation: unattainable
        prev_violation = violation
        mu = mu / C
    return EpmoResult(d=d, feasible=False)


def fit_rf_stage(f_rf: np.ndarray, f_r: np.ndarray) -> np.ndarray:
    """Unit-modulus RF stage from f_rf that minimizes min_B ||F_rf B - F_r||^2.

    The inner minimum is the residual of projecting F_r onto the columns
    of F_rf. At the least-squares B its partial gradient in B vanishes, so
    the ambient gradient in F_rf is that of the fit at fixed B,
    -2 (F_r - F_rf B) B^H. Descends to TOL_GRAD or MAX_INNER iterations.
    """
    n_tx, n_rf = f_rf.shape

    def residual(d):
        x = d.reshape(n_tx, n_rf, order="F")
        b = np.linalg.lstsq(x, f_r, rcond=None)[0]
        return f_r - x @ b, b

    def value(d):
        return power(residual(d)[0])

    def value_grad(d):
        r, b = residual(d)
        return power(r), (-2.0 * (r @ b.conj().T)).reshape(-1, order="F")

    d = phase_project(f_rf.reshape(-1, order="F"))
    return _rcg_minimize(value, value_grad, d, TOL_GRAD).reshape(n_tx, n_rf, order="F")


def _penalty_functions(q: QuadraticForms, mu: float):
    """(value, value and ambient gradient) of the penalty at weight mu."""

    def value(d):
        return penalty_objective(q, d, mu)

    def value_grad(d):
        f_val, parts = _penalty_parts(q, d, mu)
        return f_val, euclidean_gradient(q, d, mu, parts)

    return value, value_grad


def _rcg_minimize(value, value_grad, d, tol_grad: float) -> np.ndarray:
    """Riemannian CG on the complex circle from d; value(d) is the
    objective and value_grad(d) returns it with its ambient gradient."""
    f_val = value(d)
    grad = riemannian_gradient(d, value_grad(d)[1])
    gsq = _grad_norm_sq(grad)
    direction = -grad
    step_seed = ARMIJO_STEP

    for _ in range(MAX_INNER):
        if gsq <= tol_grad:
            break
        slope = float(np.vdot(grad, direction).real)
        if slope >= 0.0:
            direction = -grad
            slope = -gsq
        step = step_seed
        accepted = False
        backtracks = 0
        for backtracks in range(ARMIJO_MAX_BACKTRACKS):
            probe = fast_unit(d + step * direction)
            f_new = value(probe)
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
        f_new, egrad = value_grad(candidate)
        cand_conj = np.conj(candidate)
        grad_new = _tangent(candidate, cand_conj, egrad)
        gsq_new = _grad_norm_sq(grad_new)
        diff = grad_new - _tangent(candidate, cand_conj, grad)
        beta = max(0.0, float(np.vdot(grad_new, diff).real) / max(gsq, 1e-300))
        direction = -grad_new + beta * _tangent(candidate, cand_conj, direction)
        d, grad, gsq, f_val = candidate, grad_new, gsq_new, f_new
    return d
