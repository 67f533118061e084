"""Baseband precoder update by a small interior-point cone solver, plus the
closed-form auxiliary-matrix update.

With the RF stage fixed, the baseband subproblem is one convex program: a
least-squares objective against the sensing target under one second-order
cone per user and a transmit-power ball. Each SINR constraint becomes a cone
once user m's diagonal gain h_m^H rf f_m is rotated onto the real axis, and
solve_bb takes that rotation from the incumbent precoder, so one cone
program per baseband step suffices (see solve_bb for the argument).

The variable count is tiny (two reals per baseband coefficient), so the
program is solved in-repo by a log-barrier path-following Newton method: a
slack-minimizing phase recovers a strictly feasible point, then the central
path is followed with the barrier weight raised per stage until the duality
gap bound is negligible. SINR cones are expressed in units of the root noise
power and the power ball in units of the root budget, which keeps every
barrier term O(1). Newton centering evaluates each iterate's slacks once:
the evaluation that passes a candidate's interior test also gives that
point's gradient and Hessian.

The auxiliary row-orthonormal matrix has an exact solution through the
singular value decomposition (the classic orthogonal Procrustes argument:
its Gram term is constant on the row-orthonormal set, so only the inner
product with the target matters).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import constraint_margins, feasible

__all__ = [
    "SocpSolution",
    "InfeasibleSubproblem",
    "SolverError",
    "solve_bb",
    "update_u",
]


KKT_TOL = 1e-8  # stationarity residual a returned solution must reach


class InfeasibleSubproblem(Exception):
    """No baseband precoder satisfies the cones within the power budget."""


class SolverError(RuntimeError):
    """Newton iterations failed to reach the requested residual."""


@dataclass
class SocpSolution:
    f_bb: np.ndarray
    objective: float


# ---------------------------------------------------------------------------
# real lifting helpers
# ---------------------------------------------------------------------------


def _lift_matrix(a: np.ndarray) -> np.ndarray:
    """Real 2x2-block lift of a complex matrix acting on [Re z; Im z]."""
    return np.block([[a.real, -a.imag], [a.imag, a.real]])


def _lift_vector(b: np.ndarray) -> np.ndarray:
    return np.concatenate([b.real, b.imag])


def _unlift(x: np.ndarray, n_rf: int, m: int) -> np.ndarray:
    half = x.size // 2
    z = x[:half] + 1j * x[half:]
    return z.reshape(n_rf, m, order="F")


class _BarrierProgram:
    """min kappa * (x^T P x - 2 q^T x) + barriers over the cone interiors.

    Cones are u_i(x) = s_i(x)^2 - ||J_i x + y0_i||^2 > 0 with s_i = c_i^T x
    (+ sigma for the phase-1 variant), plus the power ball
    u_p = 1 - x^T P_ball x > 0.

    Each iterate is evaluated once: `_slacks` gives the ball slack and every
    cone's (s, y, u), the interior test is that evaluation succeeding, and
    Newton centering builds the accepted candidate's gradient and Hessian
    from the evaluation its interior test already made.
    """

    def __init__(self, p_quad, q_lin, cones, p_ball):
        self.p_quad = p_quad
        self.q_lin = q_lin
        self.p_ball = p_ball
        self.n = q_lin.size
        # the x-independent terms are built once: per cone (J, J^T, y0, c, u''),
        # plus 2P, 2q and the ball's u'' = -2 P_ball
        self.cones = [(j_mat, j_mat.T, y0, c,
                       2.0 * np.outer(c, c) - 2.0 * (j_mat.T @ j_mat))
                      for j_mat, y0, c in cones]
        self.two_p_quad = 2.0 * p_quad
        self.two_q_lin = 2.0 * q_lin
        self.d2u_ball = -2.0 * p_ball

    def ball_value(self, x):
        return 1.0 - float(x @ self.p_ball @ x)

    def _slacks(self, x, strict=True):
        """Ball slack u_p and each cone's (s, y, u) at x.

        With strict set, the first rim value or slack that is not positive
        (NaN included) ends the evaluation with None: x lies outside the
        interior.
        """
        ub = self.ball_value(x)
        if strict and not ub > 0:
            return None
        cones = []
        for j_mat, _, y0, c, _ in self.cones:
            s = float(c @ x)
            if strict and not s > 0:
                return None
            y = j_mat @ x + y0
            u = s * s - float(y @ y)
            if strict and not u > 0:
                return None
            cones.append((s, y, u))
        return ub, cones

    def interior(self, x) -> bool:
        return self._slacks(x) is not None

    def _cone_terms(self, cone_slacks):
        """(u_i, u'_i, u''_i) of each cone from its `_slacks` entry (s, y, u)."""
        return [(u, 2.0 * s * c - 2.0 * (j_t @ y), d2u)
                for (s, y, u), (_, j_t, _, c, d2u) in zip(cone_slacks, self.cones)]

    def cone_terms(self, x):
        """Slack u_i, gradient u'_i and Hessian u''_i of each cone at x."""
        return self._cone_terms(self._slacks(x, strict=False)[1])

    def _grad_hess(self, x, kappa, slacks):
        """Barrier gradient and Hessian at x from its `_slacks` evaluation."""
        ub, cone_slacks = slacks
        grad = kappa * (self.two_p_quad @ x - self.two_q_lin)
        hess = kappa * self.two_p_quad
        for u, du, d2u in self._cone_terms(cone_slacks):
            grad -= du / u
            hess += du[:, None] * du / (u * u)
            hess -= d2u / u
        dub = self.d2u_ball @ x
        grad -= dub / ub
        hess += dub[:, None] * dub / (ub * ub) - self.d2u_ball / ub
        return grad, hess

    def newton_center(self, x, kappa, tol=1e-12, max_steps=120):
        """Damped Newton for the self-concordant centering problem.

        The step length 1/(1+lambda) in the damped phase guarantees descent
        without function-value comparisons (which lose all precision once
        kappa * f0 dwarfs the barrier increments), switching to full steps
        in the quadratic phase. The start is evaluated as given; every later
        iterate reuses the evaluation of the interior test that accepted it.
        """
        decrement = np.inf
        slacks = self._slacks(x, strict=False)
        for _ in range(max_steps):
            grad, hess = self._grad_hess(x, kappa, slacks)
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                ridge = 1e-12 * max(1.0, np.trace(hess) / self.n)
                step = np.linalg.solve(hess + ridge * np.eye(self.n), -grad)
            decrement = float(-grad @ step)
            if decrement <= tol:
                break
            lam = math.sqrt(max(decrement, 0.0))
            t = 1.0 if lam <= 0.25 else 1.0 / (1.0 + lam)
            cand = x + t * step
            safety = 0
            while (slacks := self._slacks(cand)) is None:
                t *= 0.5
                cand = x + t * step
                safety += 1
                if safety > 60:
                    return x, decrement
            x = cand
        return x, decrement

    def follow_path(self, x, kappa0, kappa_target, tol=1e-12, factor=30.0):
        kappa = kappa0
        while True:
            x, _ = self.newton_center(x, kappa, tol=tol)
            if kappa >= kappa_target:
                return x, kappa
            kappa = min(kappa * factor, kappa_target)


def _build_cone_rows(h_eff_all: np.ndarray, active: np.ndarray, gammas: np.ndarray,
                     noise: float, phases: np.ndarray):
    """SINR cone data in root-noise units: J x + y0 inside, c^T x on the rim.

    h_eff_all[m] is user m's effective channel h_m^H rf, so the cross gains
    t[m, n] = h_eff_all[m] f_n are linear in the baseband columns; every
    user's row enters the interference terms, but only the active users
    (positive thresholds) get a cone. phases[k] rotates the rim functional
    of active user k to Re(e^{-j phase} t_{m,m}): the rate constraint itself
    is invariant to each column's phase, so the rim may point at any
    representative; solve_bb points it at the incumbent's diagonal gain.
    """
    m_users, n_rf = h_eff_all.shape
    n = 2 * n_rf * m_users
    root_noise = np.sqrt(noise)
    cones = []
    for k, m in enumerate(active):
        h_eff = h_eff_all[m]  # (N_rf,) row: t_{m,n} = h_eff @ f_n
        j_rows = np.zeros((2 * m_users + 1, n))
        y0 = np.zeros(2 * m_users + 1)
        y0[-1] = 1.0
        c_row = np.zeros(n)
        for nn in range(m_users):
            cvec = np.zeros(n_rf * m_users, dtype=np.complex128)
            cvec[nn * n_rf:(nn + 1) * n_rf] = h_eff / root_noise
            # Re t = Re(c) x_re - Im(c) x_im ; Im t = Im(c) x_re + Re(c) x_im
            j_rows[2 * nn, :n // 2] = cvec.real
            j_rows[2 * nn, n // 2:] = -cvec.imag
            j_rows[2 * nn + 1, :n // 2] = cvec.imag
            j_rows[2 * nn + 1, n // 2:] = cvec.real
            if nn == m:
                scale = np.sqrt(1.0 + 1.0 / gammas[m])
                c_row = scale * (np.cos(phases[k]) * j_rows[2 * nn]
                                 + np.sin(phases[k]) * j_rows[2 * nn + 1])
        cones.append((j_rows, y0, c_row))
    return cones


def solve_bb(rf, h, target, gammas, p_max, noise,
             f_ref: Optional[np.ndarray] = None) -> SocpSolution:
    """Minimize ||rf F_bb - target||^2 subject to SINR cones and a power ball.

    h holds the user channels as rows and gammas one SINR threshold per
    user; a zero threshold drops that user's cone. One cone program is
    solved, with each user's rim rotated to the phase of the diagonal gain
    h_m^H rf f_m at f_ref (the incumbent baseband precoder; the
    unconstrained least-squares fit when None). Rotating column m of F_bb
    and of U by one phase changes neither the objective, nor any SINR, nor
    the power, so h_m^H rf f_m may be taken real and positive without loss
    (Wiesel, Eldar & Shamai 2006, "Linear precoding via conic optimization
    for fixed MIMO receivers", here with the RBE-with-U objective of Liu et
    al. 2018, "MU-MIMO communications with MIMO radar"). A feasible f_ref
    therefore lies inside the rotated cones and the solution is never worse
    than it; the next call, seeded with this solution, realigns the rim.

    Raises ValueError on a nonpositive budget or noise, InfeasibleSubproblem
    when the slack-minimization phase certifies an empty interior, and
    SolverError if Newton stalls above KKT_TOL or its point is not
    `model.feasible`.
    """
    rf = np.asarray(rf, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    target = np.asarray(target, dtype=np.complex128)
    gammas = np.asarray(gammas, dtype=float)
    p_max, noise = float(p_max), float(noise)
    if p_max <= 0 or noise <= 0:
        raise ValueError("power budget and noise must be positive")
    h_eff_all = h.conj() @ rf   # row m is h_m^H rf
    active = np.flatnonzero(gammas > 0)
    n_rf = rf.shape[1]
    m_users = target.shape[1]
    n = 2 * n_rf * m_users

    # objective ||rf F_bb - target||^2 = x^T P x - 2 q^T x + const
    a_c = np.kron(np.eye(m_users), rf)
    a_real = _lift_matrix(a_c)
    b_real = _lift_vector(target.reshape(-1, order="F"))
    p_quad = a_real.T @ a_real
    q_lin = a_real.T @ b_real
    p_ball = p_quad / p_max
    x_ls = np.linalg.lstsq(a_real, b_real, rcond=None)[0]

    if f_ref is None:
        f_ref = _unlift(x_ls, n_rf, m_users)
    gains = h_eff_all @ f_ref  # t[m, n] = h_m^H rf f_n
    cones = _build_cone_rows(h_eff_all, active, gammas, noise,
                             np.angle(gains[active, active]))

    ball = float(x_ls @ p_ball @ x_ls)
    x0 = x_ls if ball < 0.81 else x_ls * (0.9 / np.sqrt(max(ball, 1e-300)))
    if np.allclose(x0, 0.0):
        x0 = np.full(n, 1e-3)

    prog = _BarrierProgram(p_quad, q_lin, cones, p_ball)
    if cones and not prog.interior(x0):
        x0 = _phase_one(prog, x0)
        if x0 is None:
            raise InfeasibleSubproblem(
                "no baseband precoder meets the SINR cones within the power budget"
            )

    kappa_target = max(1e8, (len(cones) + 1) / KKT_TOL)
    x_center, kappa = prog.follow_path(x0, kappa0=1.0, kappa_target=kappa_target)
    x_opt, kkt_residual = _kkt_refine(prog, x_center, kappa)
    if not kkt_residual <= KKT_TOL:
        # push deeper along the central path from the centre, not from the
        # polished point (which may sit on a rim, where the barrier is
        # undefined), then polish again
        x_center, kappa = prog.follow_path(x_center, kappa, kappa * 1e4, tol=1e-14,
                                           factor=10.0)
        x_opt, kkt_residual = _kkt_refine(prog, x_center, kappa)
    if not kkt_residual <= KKT_TOL:
        raise SolverError(f"stationarity residual {kkt_residual:.3e} above {KKT_TOL:.1e}")

    f_bb = _unlift(x_opt, n_rf, m_users)
    eff = rf @ f_bb
    margins = constraint_margins(eff, h, gammas, noise, p_max)
    if not feasible(margins):
        raise SolverError(f"returned point fails the feasibility measure: {margins}")
    return SocpSolution(f_bb=f_bb, objective=float(np.linalg.norm(eff - target) ** 2))


def _constraint_terms(prog: _BarrierProgram, x: np.ndarray):
    """Slack u_i, gradient u'_i, and Hessian u''_i of every constraint u_i > 0."""
    terms = list(prog.cone_terms(x))
    terms.append((prog.ball_value(x), prog.d2u_ball @ x, prog.d2u_ball))
    return terms


def _stationarity(prog: _BarrierProgram, x: np.ndarray, nus: np.ndarray,
                  terms: list) -> float:
    """Stationarity residual at x, from the `_constraint_terms` of x."""
    grad_f0 = 2.0 * (prog.p_quad @ x - prog.q_lin)
    for nu, (u, du, d2u) in zip(nus, terms):
        grad_f0 -= nu * du
    return float(np.linalg.norm(grad_f0))


def _refine_with_active_set(prog: _BarrierProgram, x: np.ndarray,
                            nus: np.ndarray, active: list):
    """Damped Newton on stationarity + activity for one active-set guess."""
    n = x.size
    xa, nua = x.copy(), nus[active].copy()
    prev_norm = np.inf
    for _ in range(20):
        terms = _constraint_terms(prog, xa)
        grad = 2.0 * (prog.p_quad @ xa - prog.q_lin)
        hess = prog.two_p_quad.copy()
        cols = np.zeros((n, len(active)))
        rhs_act = np.zeros(len(active))
        for k, i in enumerate(active):
            u, du, d2u = terms[i]
            grad -= nua[k] * du
            hess -= nua[k] * d2u
            cols[:, k] = du
            rhs_act[k] = u
        residual = np.concatenate([grad, rhs_act])
        res_norm = float(np.linalg.norm(residual))
        if res_norm >= prev_norm * 0.999:  # stalled
            break
        prev_norm = res_norm
        kkt = np.block([[hess, -cols], [cols.T, np.zeros((len(active), len(active)))]])
        try:
            delta = np.linalg.solve(kkt, -residual)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        norm_d = float(np.linalg.norm(delta))
        if norm_d > 1.0 + np.linalg.norm(xa):
            scale = (1.0 + np.linalg.norm(xa)) / norm_d
        xa = xa + scale * delta[:n]
        nua = nua + scale * delta[n:]
    refined_nus = np.zeros_like(nus)
    refined_nus[active] = np.maximum(nua, 0.0)
    terms = _constraint_terms(prog, xa)
    feasible = all(u >= -1e-10 for u, _, _ in terms)
    if feasible and np.all(nua >= -1e-10):
        return xa, _stationarity(prog, xa, refined_nus, terms)
    return None, np.inf


def _kkt_refine(prog: _BarrierProgram, x: np.ndarray, kappa: float):
    """Active-set Newton polish of the barrier solution.

    The barrier center solves a perturbed optimality system; identifying the
    active constraints from the implied multipliers nu_i = 1/(kappa u_i) and
    running Newton on the exact stationarity-plus-activity equations removes
    the centering floor. Several activity thresholds are tried because a
    weakly active cone can sit on either side of the barrier's soft boundary;
    the best feasible refinement wins, with the unrefined center as fallback.
    """
    terms = _constraint_terms(prog, x)
    nus = np.array([1.0 / (kappa * u) for u, _, _ in terms])
    best_x, best_res = x, _stationarity(prog, x, nus, terms)

    seen = set()
    for threshold in (1e-5, 1e-3, 1e-7, 1e-1):
        active = tuple(i for i, nu in enumerate(nus)
                       if nu > threshold * (1.0 + nus.max()))
        if active in seen:
            continue
        seen.add(active)
        if not active:
            # interior optimum: stationarity with zero multipliers
            res = _stationarity(prog, x, np.zeros_like(nus), terms)
            if res < best_res:
                best_x, best_res = x, res
            continue
        xa, res = _refine_with_active_set(prog, x, nus, list(active))
        if xa is not None and res < best_res:
            best_x, best_res = xa, res
    return best_x, best_res


def _phase_one(prog: _BarrierProgram, x0: np.ndarray) -> Optional[np.ndarray]:
    """Minimize the worst cone slack; return a strictly feasible x or None.

    Augmented variable sigma relaxes every cone rim to s + sigma, which is
    always strictly feasible for large sigma, and the barrier drives sigma
    down. Success is any iterate whose true slacks are all positive. At
    the kappa-centre sigma exceeds the least sigma* by at most nu/kappa, with
    barrier parameter nu = 2K+1 (two per cone, one for the power ball;
    Boyd & Vandenberghe 2004, "Convex Optimization", 11.6). Centering stops
    at a Newton decrement lambda > 0, and as sigma is linear, self-
    concordance adds at most (lambda + sqrt(nu)) lambda / (1 - lambda) to
    that gap (the point is within lambda / (1 - lambda) of the centre in
    its local norm). An iterate whose sigma exceeds the sum proves
    sigma* > 0: the interior is empty. The certificate is taken only at
    lambda <= 1/4, where a last full Newton step cannot have raised the
    decrement that centering reports.
    """
    n = x0.size
    aug_cones = []
    for j_mat, _, y0, c, _ in prog.cones:
        j_aug = np.hstack([j_mat, np.zeros((j_mat.shape[0], 1))])
        c_aug = np.concatenate([c, [1.0]])
        aug_cones.append((j_aug, y0, c_aug))
    p_aug = np.zeros((n + 1, n + 1))
    q_aug = np.zeros(n + 1)
    q_aug[-1] = -0.5          # objective x^T P x - 2 q^T x = +sigma
    ball_aug = np.zeros((n + 1, n + 1))
    ball_aug[:n, :n] = prog.p_ball
    aug = _BarrierProgram(p_aug, q_aug, aug_cones, ball_aug)

    worst = max(np.sqrt(float((j @ x0 + y0) @ (j @ x0 + y0))) - float(c @ x0)
                for j, _, y0, c, _ in prog.cones)
    x = np.concatenate([x0, [worst + 1.0]])
    if not aug.interior(x):
        raise SolverError("phase-one start is not interior")

    nu = 2 * len(prog.cones) + 1
    kappa = 1.0
    for _ in range(16):
        x, decrement = aug.newton_center(x, kappa, tol=1e-12)
        candidate = x[:n]
        if prog.interior(candidate):
            return candidate
        lam = math.sqrt(max(decrement, 0.0))
        if lam <= 0.25 and x[-1] > (nu + (lam + math.sqrt(nu)) * lam / (1.0 - lam)) / kappa:
            break  # duality-gap certificate of an empty interior
        kappa *= 10.0
    return None


def update_u(f_rf: np.ndarray, f_bb: np.ndarray, f_r: np.ndarray) -> np.ndarray:
    """Row-orthonormal matrix minimizing ||f_rf f_bb - f_r U||_F.

    U = Utilde I Vtilde^H from the SVD of f_r^H f_rf f_bb; rows of U are
    orthonormal, and among all such matrices it attains the trace bound
    sum of singular values. Left singular vectors are phase-fixed (largest
    entry made real-positive) so the output is platform-deterministic.
    """
    n_tar = f_r.shape[1]
    m = f_bb.shape[1]
    if n_tar > m:
        raise ValueError("need n_tar <= M for a row-orthonormal auxiliary matrix")
    w = f_r.conj().T @ (f_rf @ f_bb)  # (N_tar, M)
    u_l, _, v_h = np.linalg.svd(w, full_matrices=True)
    for k in range(u_l.shape[1]):
        idx = int(np.argmax(np.abs(u_l[:, k])))
        pivot = u_l[idx, k]
        if pivot != 0:
            phase = pivot / abs(pivot)
            u_l[:, k] = u_l[:, k] / phase
            if k < v_h.shape[0]:
                v_h[k, :] = v_h[k, :] * phase  # keep u_k sigma v_k^H invariant
    eye_rect = np.eye(n_tar, m)
    return u_l @ eye_rect @ v_h
