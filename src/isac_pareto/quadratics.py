"""Quadratic forms over the vectorized RF precoder, shared by both RF solvers.

With the baseband stage, auxiliary matrix, channels, and SINR thresholds
fixed, the RF subproblem's objective and constraints are quadratics in
d = vec(F_rf). The Kronecker-structured matrices are kept implicit:
everything is evaluated through the (N_t x N_RF) factors in
O(N_t * N_RF * M).

Feasibility is judged by the scale-free margins of
`model.constraint_margins`. The penalty and majorization solvers instead
work with residuals in normalized form (SINR constraints in units of the
noise power, the power constraint in units of the budget) because the raw
wattage scale spans ten orders of magnitude and would otherwise starve
penalty and multiplier updates of precision.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .channel import ChannelSet
from .model import RadarSpec, constraint_margins

__all__ = ["QuadraticForms", "build_quadratics"]


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

        self.f_r_u = self.f_r @ self.u                      # (N_t, M)
        self.t_gram = self.f_bb @ self.f_bb.conj().T        # T = F_bb F_bb^H
        self.a_r = self.vec(self.f_r_u @ self.f_bb.conj().T)
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
        diff = self.mat(d) @ self.f_bb - self.f_r_u
        return float(np.real(np.vdot(diff, diff)))

    def constraint_margins(self, d: np.ndarray):
        """`model.constraint_margins` of the precoder encoded by d."""
        return constraint_margins(self.mat(d) @ self.f_bb, self.h, self.gamma,
                                  self.noise, self.p_max)

    def probe_eval(self, d: np.ndarray):
        """(objective, normalized SINR residuals, normalized power residual)
        sharing one composite-precoder product; the hot path of the penalty
        solver."""
        eff = self.mat(d) @ self.f_bb
        diff = eff - self.f_r_u
        objective = float(np.real(np.vdot(diff, diff)))
        power_res = (float(np.real(np.vdot(eff, eff))) - self.p_max) / self.p_max
        if self.active.size:
            t = self.h.conj() @ eff
            powers = np.abs(t) ** 2
            totals = powers.sum(axis=1)
            sig = powers[self.active, self.active]
            interference = totals[self.active] - sig
            sinr_res = (interference - sig / self.gamma[self.active]
                        + self.noise) / self.noise
        else:
            sinr_res = np.zeros(0)
        return objective, sinr_res, power_res

    # ----- factored matrix-vector products -----

    def xi_dot(self, d: np.ndarray) -> np.ndarray:
        """Xi_r @ d (identical to Omega_p @ d): vec(F_rf T)."""
        return self.vec(self.mat(d) @ self.t_gram)

    def delta_dot(self, d: np.ndarray, m: int) -> np.ndarray:
        """Delta_m @ d through the rank-structured factors."""
        t = self.h[m].conj() @ self.mat(d) @ self.f_bb
        weights = np.ones(self.m_users)
        weights[m] = -1.0 / self.gamma[m]
        row = (self.f_bb.conj() * (weights * t)).sum(axis=1)  # (N_RF,)
        return self.vec(np.outer(self.h[m], row))


def build_quadratics(
    f_bb: np.ndarray,
    u: np.ndarray,
    ch: ChannelSet,
    rs: RadarSpec,
    gammas: Sequence[float],
    noise: float,
    p_max: float,
) -> QuadraticForms:
    """Assemble the RF-subproblem forms for fixed baseband and auxiliary stages."""
    return QuadraticForms(f_bb=f_bb, u=u, h=ch.h, f_r=rs.f_r, gamma=gammas,
                          noise=noise, p_max=p_max)
