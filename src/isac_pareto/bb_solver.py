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
barrier term O(1).

The auxiliary row-orthonormal matrix has an exact solution through the
singular value decomposition (the classic orthogonal Procrustes argument:
its Gram term is constant on the row-orthonormal set, so only the inner
product with the target matters).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import constraint_margins

__all__ = [
    "SocpInstance",
    "SocpSolution",
    "InfeasibleSubproblem",
    "SolverError",
    "make_socp_instance",
    "solve_bb",
    "update_u",
]


KKT_TOL = 1e-8  # stationarity residual a returned solution must reach


class InfeasibleSubproblem(Exception):
    """No baseband precoder satisfies the cones within the power budget."""


class SolverError(RuntimeError):
    """Newton iterations failed to reach the requested residual."""


@dataclass(frozen=True)
class SocpInstance:
    """Baseband subproblem data; only active (positive) thresholds get a cone.

    h_eff_all[m] is the effective channel h_m^H rf of user m, so the cross
    gains t[m, n] = h_eff_all[m] f_n are linear in the baseband columns.
    It keeps every user's effective channel (interference sources include
    users whose own SINR constraint was dropped).
    """

    rf: np.ndarray            # (N_t, N_rf) fixed mixing stage
    h: np.ndarray             # (M, N_t) user channels
    h_eff_all: np.ndarray     # (M, N_rf)
    target: np.ndarray        # (N_t, M) sensing target rf-stage output should match
    gamma: np.ndarray         # (M,) thresholds; zero marks a dropped constraint
    active: np.ndarray        # (K,) active user indices
    p_max: float
    noise: float

    def __post_init__(self):
        if np.any(self.gamma[self.active] <= 0):
            raise ValueError("active thresholds must be positive")
        if self.p_max <= 0 or self.noise <= 0:
            raise ValueError("power budget and noise must be positive")


@dataclass
class SocpSolution:
    f_bb: np.ndarray
    objective: float
    kkt_residual: float


def make_socp_instance(rf, h, target, gammas, p_max, noise) -> SocpInstance:
    """Assemble the subproblem, dropping zero-threshold constraints."""
    rf = np.asarray(rf, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    gammas = np.asarray(gammas, dtype=float)
    active = np.flatnonzero(gammas > 0)
    return SocpInstance(
        rf=rf,
        h=h,
        h_eff_all=h.conj() @ rf,   # row m is h_m^H rf
        target=np.asarray(target, dtype=np.complex128),
        gamma=gammas,
        active=active,
        p_max=float(p_max),
        noise=float(noise),
    )


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
    """

    def __init__(self, p_quad, q_lin, cones, p_ball):
        self.p_quad = p_quad
        self.q_lin = q_lin
        self.p_ball = p_ball
        self.n = q_lin.size
        # the x-independent terms are built once: per cone (J, J^T, y0, c, u''),
        # plus 2P and the ball's u'' = -2 P_ball
        self.cones = [(j_mat, j_mat.T, y0, c,
                       2.0 * np.outer(c, c) - 2.0 * (j_mat.T @ j_mat))
                      for j_mat, y0, c in cones]
        self.two_p_quad = 2.0 * p_quad
        self.d2u_ball = -2.0 * p_ball

    def ball_value(self, x):
        return 1.0 - float(x @ self.p_ball @ x)

    def interior(self, x) -> bool:
        if self.ball_value(x) <= 0:
            return False
        for j_mat, _, y0, c, _ in self.cones:
            s = float(c @ x)
            if s <= 0:
                return False
            y = j_mat @ x + y0
            if s * s - float(y @ y) <= 0:
                return False
        return True

    def cone_terms(self, x):
        """Slack u_i, gradient u'_i and Hessian u''_i of each cone at x."""
        for j_mat, j_t, y0, c, d2u in self.cones:
            s = float(c @ x)
            y = j_mat @ x + y0
            yield s * s - float(y @ y), 2.0 * s * c - 2.0 * (j_t @ y), d2u

    def grad_hess(self, x, kappa):
        grad = kappa * (self.two_p_quad @ x - 2.0 * self.q_lin)
        hess = kappa * self.two_p_quad
        for u, du, d2u in self.cone_terms(x):
            grad -= du / u
            hess += np.outer(du, du) / (u * u)
            hess -= d2u / u
        ub = self.ball_value(x)
        dub = self.d2u_ball @ x
        grad -= dub / ub
        hess += np.outer(dub, dub) / (ub * ub) - self.d2u_ball / ub
        return grad, hess

    def newton_center(self, x, kappa, tol=1e-12, max_steps=120):
        """Damped Newton for the self-concordant centering problem.

        The step length 1/(1+lambda) in the damped phase guarantees descent
        without function-value comparisons (which lose all precision once
        kappa * f0 dwarfs the barrier increments), switching to full steps
        in the quadratic phase.
        """
        decrement = np.inf
        for _ in range(max_steps):
            grad, hess = self.grad_hess(x, kappa)
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                ridge = 1e-12 * max(1.0, np.trace(hess) / self.n)
                step = np.linalg.solve(hess + ridge * np.eye(self.n), -grad)
            decrement = float(-grad @ step)
            if decrement <= tol:
                break
            lam = np.sqrt(max(decrement, 0.0))
            t = 1.0 if lam <= 0.25 else 1.0 / (1.0 + lam)
            cand = x + t * step
            safety = 0
            while not self.interior(cand):
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


def _build_cone_rows(inst: SocpInstance, n_rf: int, m_users: int, phases: np.ndarray):
    """SINR cone data in root-noise units: J x + y0 inside, c^T x on the rim.

    phases[k] rotates the rim functional of active user k to
    Re(e^{-j phase} t_{m,m}): the rate constraint itself is invariant to each
    column's phase, so the rim may point at any representative; solve_bb
    points it at the incumbent's diagonal gain.
    """
    n = 2 * n_rf * m_users
    root_noise = np.sqrt(inst.noise)
    cones = []
    for k, m in enumerate(inst.active):
        h_eff = inst.h_eff_all[m]  # (N_rf,) row: t_{m,n} = h_eff @ f_n
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
                scale = np.sqrt(1.0 + 1.0 / inst.gamma[m])
                c_row = scale * (np.cos(phases[k]) * j_rows[2 * nn]
                                 + np.sin(phases[k]) * j_rows[2 * nn + 1])
        cones.append((j_rows, y0, c_row))
    return cones


def solve_bb(inst: SocpInstance, f_ref: Optional[np.ndarray] = None) -> SocpSolution:
    """Minimize the sensing mismatch subject to SINR cones and a power ball.

    One cone program is solved, with each user's rim rotated to the phase of
    the diagonal gain h_m^H rf f_m at f_ref (the incumbent baseband
    precoder; the unconstrained least-squares fit when None). Rotating
    column m of F_bb and of U by one phase changes neither the objective,
    nor any SINR, nor the power, so h_m^H rf f_m may be taken real and
    positive without loss (Wiesel, Eldar & Shamai 2006, "Linear precoding
    via conic optimization for fixed MIMO receivers", here with the
    RBE-with-U objective of Liu et al. 2018, "MU-MIMO communications with
    MIMO radar"). A feasible f_ref therefore lies inside the rotated cones
    and the solution is never worse than it; the next call, seeded with this
    solution, realigns the rim.

    Raises InfeasibleSubproblem when the slack-minimization phase certifies
    an empty interior, SolverError if Newton stalls above KKT_TOL.
    """
    n_rf = inst.rf.shape[1]
    m_users = inst.target.shape[1]
    n = 2 * n_rf * m_users

    # objective ||rf F_bb - target||^2 = x^T P x - 2 q^T x + const
    a_c = np.kron(np.eye(m_users), inst.rf)
    a_real = _lift_matrix(a_c)
    b_real = _lift_vector(inst.target.reshape(-1, order="F"))
    p_quad = a_real.T @ a_real
    q_lin = a_real.T @ b_real
    p_ball = p_quad / inst.p_max
    x_ls = np.linalg.lstsq(a_real, b_real, rcond=None)[0]

    if f_ref is None:
        f_ref = _unlift(x_ls, n_rf, m_users)
    gains = inst.h_eff_all @ f_ref  # t[m, n] = h_m^H rf f_n
    cones = _build_cone_rows(inst, n_rf, m_users,
                             np.angle(gains[inst.active, inst.active]))

    ball = float(x_ls @ p_ball @ x_ls)
    x0 = x_ls if ball < 0.81 else x_ls * (0.9 / np.sqrt(max(ball, 1e-300)))
    if np.allclose(x0, 0.0):
        x0 = np.full(n, 1e-3)

    prog = _BarrierProgram(p_quad, q_lin, cones, p_ball)
    if cones and not prog.interior(x0):
        x0 = _phase_one(prog, x0, n)
        if x0 is None:
            raise InfeasibleSubproblem(
                "no baseband precoder meets the SINR cones within the power budget"
            )

    kappa_target = max(1e8, (len(cones) + 1) / KKT_TOL)
    x_opt, kappa = prog.follow_path(x0, kappa0=1.0, kappa_target=kappa_target)
    x_opt, kkt_residual = _kkt_refine(prog, x_opt, kappa)
    if kkt_residual > KKT_TOL:
        # push deeper along the central path, then polish again
        x_opt, kappa = prog.follow_path(x_opt, kappa, kappa * 1e4, tol=1e-14,
                                        factor=10.0)
        x_opt, kkt_residual = _kkt_refine(prog, x_opt, kappa)
    if kkt_residual > KKT_TOL:
        raise SolverError(f"stationarity residual {kkt_residual:.3e} above {KKT_TOL:.1e}")

    f_bb = _unlift(x_opt, n_rf, m_users)
    eff = inst.rf @ f_bb
    shortfall, power_excess = constraint_margins(eff, inst.h, inst.gamma,
                                                 inst.noise, inst.p_max)
    worst = np.max(shortfall, initial=-np.inf)
    if worst > 1e-6:
        raise SolverError(f"returned point misses an SINR threshold by {worst:.3e} (relative)")
    if power_excess > 1e-8:
        raise SolverError(f"returned point exceeds the power budget by {power_excess:.3e} (relative)")
    objective = float(np.linalg.norm(eff - inst.target) ** 2)
    return SocpSolution(f_bb=f_bb, objective=objective, kkt_residual=kkt_residual)


def _constraint_terms(prog: _BarrierProgram, x: np.ndarray):
    """Slack u_i, gradient u'_i, and Hessian u''_i of every constraint u_i > 0."""
    terms = list(prog.cone_terms(x))
    terms.append((prog.ball_value(x), prog.d2u_ball @ x, prog.d2u_ball))
    return terms


def _stationarity(prog: _BarrierProgram, x: np.ndarray, nus: np.ndarray) -> float:
    grad_f0 = 2.0 * (prog.p_quad @ x - prog.q_lin)
    for nu, (u, du, d2u) in zip(nus, _constraint_terms(prog, x)):
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
    feasible = all(u >= -1e-10 for u, _, _ in _constraint_terms(prog, xa))
    if feasible and np.all(nua >= -1e-10):
        return xa, _stationarity(prog, xa, refined_nus)
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
    best_x, best_res = x, _stationarity(prog, x, nus)

    seen = set()
    for threshold in (1e-5, 1e-3, 1e-7, 1e-1):
        active = tuple(i for i, nu in enumerate(nus)
                       if nu > threshold * (1.0 + nus.max()))
        if active in seen:
            continue
        seen.add(active)
        if not active:
            # interior optimum: stationarity with zero multipliers
            res = _stationarity(prog, x, np.zeros_like(nus))
            if res < best_res:
                best_x, best_res = x, res
            continue
        xa, res = _refine_with_active_set(prog, x, nus, list(active))
        if xa is not None and res < best_res:
            best_x, best_res = xa, res
    return best_x, best_res


def _phase_one(prog: _BarrierProgram, x0: np.ndarray, n: int) -> Optional[np.ndarray]:
    """Minimize the worst cone slack; return a strictly feasible x or None.

    Augmented variable sigma relaxes every cone rim to s + sigma, which is
    always strictly feasible for large sigma, and the barrier drives sigma
    down. Success is any iterate whose true slacks are all positive.
    """
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

    kappa = 1.0
    for _ in range(16):
        x, _ = aug.newton_center(x, kappa, tol=1e-12)
        candidate = x[:n]
        if prog.interior(candidate):
            return candidate
        if x[-1] > -1e-12 and kappa > 1e9:
            break  # slack cannot be driven negative: empty interior
        kappa *= 10.0
    candidate = x[:n]
    return candidate if prog.interior(candidate) else None


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
