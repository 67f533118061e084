"""Output checks made apart from the solver package.

Every formula here is written out again from the paper's system model:
SINR, the normal-approximation short-packet rate, its inversion to an SINR
threshold, the radar beamforming error and the single-user optimum. The
inverse Gaussian Q-function comes from the standard library, not from
`isac_pareto.numerics`, so a fault shared by the solver and its own
validators cannot hide here. Only plain arrays and configuration fields
cross the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import List, Optional, Tuple

import numpy as np

# Tolerances of the checks. They mirror the slack the solver promises for a
# returned point: exact structure to rounding, power and RBE to 1e-8, and
# rates to 1e-6 nats. SINR thresholds get the relative slack 1e-6 that the
# baseband stage is allowed on a cone.
UNIT_TOL = 1e-10
POWER_TOL = 1e-8
RBE_CAP_TOL = 1e-8
RBE_MATCH_REL = 1e-6
RATE_TOL = 1e-6
SINR_REL_TOL = 1e-6
# grid error and rounding allowed when a point is compared with the
# single-user closed form (the same slack the repository's brute-force
# test grants on top of the bisection tolerance)
OPTIMUM_SLACK = 1e-3


@dataclass
class Point:
    """One returned solution, reduced to arrays and numbers.

    rate is the sum rate the solve claims: the bisection's accepted rate
    for a Pareto point, the requested rate for a fixed-rate solve.
    """

    feasible: bool
    rate: float
    rbe: float
    f_rf: Optional[np.ndarray]
    f_bb: Optional[np.ndarray]
    u: Optional[np.ndarray]
    beta: Optional[np.ndarray]


def inv_q(eps: float) -> float:
    """x with P(Z > x) = eps for a standard normal Z."""
    return -NormalDist().inv_cdf(eps)


def sinr(h: np.ndarray, f: np.ndarray, noise: float) -> np.ndarray:
    """Per-user SINR of composite precoder f (N_t x M); h is (M, N_t)."""
    gains = np.abs(h.conj() @ f) ** 2
    signal = np.diag(gains)
    return signal / (gains.sum(axis=1) - signal + noise)


def short_packet_rate(gamma: float, beta: float, eps: float) -> float:
    """ln(1+gamma) - sqrt(V(gamma)/beta) Q^{-1}(eps), in nats per use."""
    dispersion = 1.0 - (1.0 + gamma) ** -2
    return math.log1p(gamma) - math.sqrt(dispersion / beta) * inv_q(eps)


def gamma_threshold(target: float, beta: float, eps: float) -> float:
    """Smallest SINR whose short-packet rate reaches target, by bisection.

    The Shannon SINR e^target - 1 falls short (the dispersion penalty is
    positive), and doubling finds a point above; the rate increases in
    between for every target the workloads use.
    """
    if target <= 0.0:
        return 0.0
    lo = math.expm1(target)
    hi = 2.0 * lo + 1.0
    while short_packet_rate(hi, beta, eps) < target:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if short_packet_rate(mid, beta, eps) < target:
            lo = mid
        else:
            hi = mid
    return hi


def shannon_sum_bound(h: np.ndarray, p_max: float, noise: float) -> float:
    """Sum of single-user full-power Shannon rates: no sum rate exceeds it."""
    gains = np.sum(np.abs(h) ** 2, axis=1)
    return float(np.sum(np.log1p(p_max * gains / noise)))


def single_user_optimum(h: np.ndarray, p_max: float, noise: float,
                        frame: int, eps: float) -> float:
    """Best short-packet rate of one user, two antennas, one RF chain.

    The RF stage co-phases both antennas, so |h^H F_rf| = |h_1| + |h_2|;
    the scalar baseband spreads p_max over two unit-modulus entries. The
    single user holds the whole frame.
    """
    h = np.asarray(h).reshape(-1)
    gamma = (abs(h[0]) + abs(h[1])) ** 2 * p_max / (2.0 * noise)
    return short_packet_rate(gamma, frame, eps)


def check_point(cfg, h: np.ndarray, f_r: np.ndarray, point: Point, *,
                hybrid: bool, fixed_rate: bool) -> List[str]:
    """Every invariant a returned point must meet; empty when clean.

    cfg supplies the scenario numbers (p_max, noise, e_max, frame budget,
    eps, eta); h and f_r are the user channels and the radar reference.
    """
    if not point.feasible:
        return ["solve returned no feasible point"]
    out: List[str] = []
    f_rf, f_bb, u = point.f_rf, point.f_bb, point.u
    if hybrid and np.max(np.abs(np.abs(f_rf) - 1.0)) > UNIT_TOL:
        out.append("RF precoder entries are not unit modulus")
    if np.max(np.abs(u @ u.conj().T - np.eye(u.shape[0]))) > UNIT_TOL:
        out.append("rows of U are not orthonormal")
    f = f_rf @ f_bb
    power = float(np.sum(np.abs(f) ** 2))
    if power > cfg.p_max + POWER_TOL:
        out.append(f"power {power:.9g} exceeds {cfg.p_max:.9g}")
    error = float(np.sum(np.abs(f - f_r @ u) ** 2))
    if abs(error - point.rbe) > RBE_MATCH_REL * max(1.0, error):
        out.append(f"reported RBE {point.rbe:.9g} but the precoder gives {error:.9g}")
    if error > cfg.e_max + RBE_CAP_TOL:
        out.append(f"RBE {error:.9g} exceeds the cap {cfg.e_max:.9g}")
    beta = point.beta
    if beta is None or not np.issubdtype(np.asarray(beta).dtype, np.integer):
        return out + ["blocklengths are missing or not integers"]
    if np.any(beta < 1) or int(beta.sum()) != cfg.frame_budget:
        out.append(f"blocklengths {beta.tolist()} do not split the frame "
                   f"of {cfg.frame_budget}")
        return out
    gam = sinr(h, f, cfg.noise)
    for m in range(cfg.n_cu):
        share = cfg.eta[m] * point.rate
        achieved = short_packet_rate(float(gam[m]), int(beta[m]), cfg.eps[m])
        if achieved < share - RATE_TOL:
            out.append(f"user {m} rate {achieved:.9g} below its share {share:.9g}")
        if fixed_rate:
            need = gamma_threshold(share, int(beta[m]), cfg.eps[m])
            if gam[m] < need * (1.0 - SINR_REL_TOL):
                out.append(f"user {m} SINR {gam[m]:.9g} below threshold {need:.9g}")
    bound = shannon_sum_bound(h, cfg.p_max, cfg.noise)
    if point.rate > bound:
        out.append(f"sum rate {point.rate:.9g} above the Shannon bound {bound:.9g}")
    return out


def check_single_user(cfg, h: np.ndarray, point: Point,
                      tol_rate: float) -> Tuple[List[str], bool]:
    """(violations, shortfall) of a single-user point against its optimum.

    Above the optimum by more than the bisection tolerance is impossible;
    below it by more than that plus OPTIMUM_SLACK is a shortfall.
    """
    best = single_user_optimum(h, cfg.p_max, cfg.noise, cfg.frame_budget,
                               cfg.eps[0])
    if point.rate > best + tol_rate:
        return [f"rate {point.rate:.9g} above the optimum {best:.9g}"], False
    return [], point.rate < best - tol_rate - OPTIMUM_SLACK


def achieved_sum_rate(cfg, h: np.ndarray, point: Point) -> float:
    """Short-packet sum rate the returned precoder and blocklengths deliver."""
    gam = sinr(h, point.f_rf @ point.f_bb, cfg.noise)
    return sum(max(0.0, short_packet_rate(float(gam[m]), int(point.beta[m]),
                                          cfg.eps[m]))
               for m in range(cfg.n_cu))
