"""Quadratic forms over the vectorized RF precoder, shared by both RF solvers.

With the baseband stage, auxiliary matrix, channels, and SINR thresholds
fixed, the RF subproblem's objective and constraints are quadratics in
d = vec(F_rf). The Kronecker-structured matrices are kept implicit:
everything is evaluated through the (N_t x N_RF) factors in
O(N_t * N_RF * M).

The per-instance constants of the hot paths (the conjugated channels and
baseband stage, F_bb^H, the active thresholds and the per-user Delta_m
weights) are built once in the constructor, as the same arrays with the
same memory layouts the inline expressions produced, so every product
returns the same bits.

Feasibility is judged by the scale-free margins of
`model.constraint_margins`. The penalty and majorization solvers instead
work with residuals in normalized form (SINR constraints in units of the
noise power, the power constraint in units of the budget) because the raw
wattage scale spans ten orders of magnitude and would otherwise starve
penalty and multiplier updates of precision.
"""

from __future__ import annotations

import numpy as np

from .model import constraint_margins

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
        if np.any(self.gamma < 0):
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
        self.t_gram = self.f_bb @ self.f_bb_h               # T = F_bb F_bb^H
        self.a_r = self.vec(self.f_r_u @ self.f_bb_h)
        self.e_r = float(np.linalg.norm(self.f_r_u) ** 2)
        bb_energy = float(np.linalg.norm(self.f_bb) ** 2)
        self.c_r = self.n_tx * bb_energy                    # tr(Xi_r)
        self.c_p = self.c_r                                 # tr(Omega_p) coincides
        col_power = np.sum(np.abs(self.f_bb) ** 2, axis=0)  # ||f_n||^2
        h_power = np.sum(np.abs(self.h) ** 2, axis=1)       # ||h_m||^2
        self.c_m = h_power * (col_power.sum() - col_power)  # tr(sum_{n!=m} Upsilon)

    # ----- vec / mat conventions (column stacking) -----

    def vec(self, mat: np.ndarray) -> np.ndarray:
        return np.asarray(mat).reshape(-1, order="F")

    def mat(self, d: np.ndarray) -> np.ndarray:
        return np.asarray(d).reshape(self.n_tx, self.n_rf, order="F")

    # ----- factored evaluation (hot paths) -----

    def objective(self, d: np.ndarray) -> float:
        """RBE as a function of d; nonnegative by construction."""
        return self._rbe(self.mat(d) @ self.f_bb)

    def _rbe(self, eff: np.ndarray) -> float:
        diff = eff - self.f_r_u
        return float(np.vdot(diff, diff).real)

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
        return self._rbe(eff), sinr_res, power_res

    def residuals(self, eff: np.ndarray):
        """(cross gains t = H^H F_rf F_bb, normalized SINR residuals of the
        active users, normalized power residual) of the composite precoder
        eff; each residual is feasible iff <= 0."""
        power_res = (float(np.vdot(eff, eff).real) - self.p_max) / self.p_max
        t = self.h_conj @ eff
        powers = np.abs(t) ** 2
        totals = np.add.reduce(powers, axis=1)  # powers.sum(axis=1), unwrapped
        sig = powers.take(self._own_gain)
        interference = totals.take(self.active) - sig
        sinr_res = (interference - sig / self.gamma_active
                    + self.noise) / self.noise
        return t, sinr_res, power_res

    # ----- factored matrix-vector products -----

    def xi_dot(self, d: np.ndarray) -> np.ndarray:
        """Xi_r @ d (identical to Omega_p @ d): vec(F_rf T)."""
        return self.vec(self.mat(d) @ self.t_gram)

    def delta_dot(self, d: np.ndarray, m: int) -> np.ndarray:
        """Delta_m @ d through the rank-structured factors."""
        return self.delta_from_gains(self.h_conj[m] @ self.mat(d) @ self.f_bb, m)

    def delta_from_gains(self, t_m: np.ndarray, m: int) -> np.ndarray:
        """Delta_m @ d from user m's cross gains t_m = h_m^H F_rf F_bb; m
        must be an active user (Delta_m of a dropped user is undefined)."""
        row = np.add.reduce(self.f_bb_conj * (self._delta_weights[m] * t_m), axis=1)  # (N_RF,)
        # vec(h_m row^T): the products of np.outer(h_m, row), laid out
        # row-major by RF chain so the column-stacking needs no copy
        return (self.h[m] * row[:, None]).ravel()

