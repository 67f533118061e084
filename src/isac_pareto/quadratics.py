"""Quadratic forms over the vectorized RF precoder, shared by both RF solvers.

With the baseband stage, auxiliary matrix, channels, and SINR thresholds
fixed, the RF subproblem's objective and constraints are quadratics in
d = vec(F_rf). The Kronecker-structured matrices are kept implicit:
everything is evaluated through the (N_t x N_RF) factors in
O(N_t * N_RF * M).

The per-instance constants of the hot paths are built once in the
constructor. Every evaluation starts from the composite precoder F_rf F_bb
and takes its gains, power and RBE from the `model` kernels, so the RF
solvers and the closed-form metrics read the same bits for one precoder.

Feasibility is judged by the scale-free margins of
`model.constraint_margins`. The penalty and majorization solvers instead
work with residuals in normalized form (SINR constraints in units of the
noise power, the power constraint in units of the budget) because the raw
wattage scale spans ten orders of magnitude and would otherwise starve
penalty and multiplier updates of precision.
"""

from __future__ import annotations

import numpy as np

from .model import constraint_margins, fit_error, gains, power

__all__ = ["QuadraticForms"]


class QuadraticForms:
    """Immutable bundle of the RF-subproblem quadratics.

    gamma holds one threshold per user; entries equal to zero mark dropped
    constraints (a zero threshold is vacuous and its reciprocal undefined).
    """

    def __init__(self, f_bb, u, h, f_r, gamma, noise, p_max):
        self.f_bb = np.asarray(f_bb, dtype=np.complex128)
        self.u = np.asarray(u, dtype=np.complex128)
        self.h = np.asarray(h, dtype=np.complex128)
        self.f_r = np.asarray(f_r, dtype=np.complex128)
        self.gamma = np.asarray(gamma, dtype=float)
        self.noise = float(noise)
        self.p_max = float(p_max)

        self.n_rf, self.m_users = self.f_bb.shape
        self.n_tx = self.h.shape[1]
        self.d_dim = self.n_tx * self.n_rf
        if self.h.shape[0] != self.m_users or self.gamma.size != self.m_users:
            raise ValueError("channel / threshold count must match baseband columns")
        if not np.all(self.gamma >= 0):
            raise ValueError("thresholds must be nonnegative")
        self.active = np.flatnonzero(self.gamma > 0)
        self.gamma_active = self.gamma[self.active]
        # flat positions of the active users' own gains in an M x M array
        self._own_gain = self.active * (self.m_users + 1)

        self.h_conj = self.h.conj()
        self.f_bb_conj = self.f_bb.conj()
        self.f_bb_h = self.f_bb_conj.T                      # F_bb^H
        # Delta_m weights per active user: 1 on the interferers' gains,
        # -1/Gamma_m on user m's own
        self._delta_weights = {}
        for m, g in zip(self.active, self.gamma_active):
            weights = np.ones(self.m_users)
            weights[m] = -1.0 / g
            self._delta_weights[m] = weights

        self.f_r_u = self.f_r @ self.u                      # (N_t, M)
        self.a_r = self.vec(self.f_r_u @ self.f_bb_h)
        self.e_r = power(self.f_r_u)
        bb_energy = power(self.f_bb)
        self.c_r = self.n_tx * bb_energy                    # tr(Xi_r)
        self.c_p = self.c_r                                 # tr(Omega_p) coincides
        col_power = np.sum(np.abs(self.f_bb) ** 2, axis=0)  # ||f_n||^2
        h_power = np.sum(np.abs(self.h) ** 2, axis=1)       # ||h_m||^2
        self.c_m = h_power * (bb_energy - col_power)        # tr(sum_{n!=m} Upsilon)

    # ----- vec / mat conventions (column stacking) -----

    def vec(self, mat: np.ndarray) -> np.ndarray:
        return np.asarray(mat).reshape(-1, order="F")

    def mat(self, d: np.ndarray) -> np.ndarray:
        return np.asarray(d).reshape(self.n_tx, self.n_rf, order="F")

    # ----- factored evaluation (hot paths) -----

    def objective(self, d: np.ndarray) -> float:
        """RBE as a function of d: `model.rbe` of the precoder d encodes."""
        return fit_error(self.mat(d) @ self.f_bb, self.f_r_u)

    def constraint_margins(self, d: np.ndarray):
        """`model.constraint_margins` of the precoder encoded by d."""
        return constraint_margins(self.mat(d) @ self.f_bb, self.h, self.gamma,
                                  self.noise, self.p_max)

    def probe_eval(self, d: np.ndarray):
        """(objective, normalized SINR residuals, normalized power residual)
        sharing one composite-precoder product; the hot path of the penalty
        solver."""
        eff = self.mat(d) @ self.f_bb
        _, sinr_res, power_res = self.residuals(eff)
        return fit_error(eff, self.f_r_u), sinr_res, power_res

    def residuals(self, eff: np.ndarray):
        """(cross gains t = H^H F_rf F_bb, normalized SINR residuals of the
        active users, normalized power residual) of the composite precoder
        eff; each residual is feasible iff <= 0."""
        power_res = (power(eff) - self.p_max) / self.p_max
        t, powers, totals = gains(self.h_conj, eff)
        sig = powers.take(self._own_gain)
        interference = totals.take(self.active) - sig
        sinr_res = (interference - sig / self.gamma_active
                    + self.noise) / self.noise
        return t, sinr_res, power_res

    # ----- factored matrix-vector products -----

    def xi_dot(self, eff: np.ndarray) -> np.ndarray:
        """Xi_r @ d (= Omega_p @ d) as vec(eff F_bb^H), from the composite
        precoder eff = F_rf F_bb that d encodes."""
        return self.vec(eff @ self.f_bb_h)

    def delta_from_gains(self, t_m: np.ndarray, m: int) -> np.ndarray:
        """Delta_m @ d from user m's cross gains t_m = h_m^H F_rf F_bb; m
        must be an active user (Delta_m of a dropped user is undefined)."""
        row = np.add.reduce(self.f_bb_conj * (self._delta_weights[m] * t_m), axis=1)  # (N_RF,)
        # vec(h_m row^T): the products of np.outer(h_m, row), laid out
        # row-major by RF chain so the column-stacking needs no copy
        return (self.h[m] * row[:, None]).ravel()

