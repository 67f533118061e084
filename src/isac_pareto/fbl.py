"""Short-packet feasibility logic: SINR thresholds and blocklength allocation.

Inverting the short-packet rate at a fixed blocklength reduces to a scalar
transcendental equation e^k (k^2 - 4 tau^2) + 4 delta^2 tau^2 = 0 whose root
is bracketed analytically in [0, 2*tau), so plain bisection solves it without
any special-function branch bookkeeping. The integer blocklength split then
follows from per-user lower bounds plus the fact that a boundary point must
spend the whole frame.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .model import dispersion, shannon_rate
from .numerics import bracketed_root, inv_q

__all__ = [
    "solve_gamma_threshold",
    "min_blocklength",
    "allocate_blocklengths",
]


def solve_gamma_threshold(target: float, beta: int, eps: float) -> float:
    """SINR threshold Gamma with fbl_rate(Gamma, beta, eps) = target.

    target is the per-user rate goal in nats. With tau = Q^{-1}(eps)/sqrt(beta)
    the normalized dispersion penalty and delta = exp(-target), the root k of
    e^k (k^2 - 4 tau^2) = -4 delta^2 tau^2 is found by bisection on
    [0, 2*tau), where the bracket endpoints have opposite signs because
    delta <= 1; Gamma = exp(target + k/2) - 1, so
    exp(target) - 1 <= Gamma < exp(target + tau) - 1.
    """
    if not target >= 0:
        raise ValueError("rate target must be nonnegative")
    if not beta >= 1:
        raise ValueError("blocklength must be >= 1")
    if not 0.0 < eps < 0.5:
        raise ValueError("error probability must lie in (0, 1/2)")
    if target == 0.0:
        return 0.0

    tau = inv_q(eps) / math.sqrt(beta)
    delta = math.exp(-target)
    four_tau_sq = 4.0 * tau * tau
    const = delta * delta * four_tau_sq

    def f(k):
        return math.exp(k) * (k * k - four_tau_sq) + const

    kappa = bracketed_root(f, 0.0, 2.0 * tau)
    return math.exp(target + 0.5 * kappa) - 1.0


def min_blocklength(gamma: float, target: float, eps: float) -> float:
    """Smallest (real) blocklength at which SINR gamma supports the target.

    (sqrt(V(gamma)) * Q^{-1}(eps) / (ln(1+gamma) - target))^2. A zero
    target is vacuous and returns 0; a target at or above the Shannon rate
    ln(1+gamma) needs an infinite blocklength and returns math.inf.
    """
    if not gamma >= 0:
        raise ValueError("SINR must be nonnegative")
    if target <= 0.0:
        return 0.0
    headroom = float(shannon_rate(gamma)) - target
    if headroom <= 0.0:
        return math.inf
    return (math.sqrt(dispersion(gamma)) * inv_q(eps) / headroom) ** 2


def allocate_blocklengths(
    gammas: Sequence[float],
    rate: float,
    eta: Sequence[float],
    eps: Sequence[float],
    frame: int,
) -> Optional[np.ndarray]:
    """Integer blocklengths summing exactly to the frame budget, or None.

    Each user gets at least ceil of its real lower bound (and at least one
    symbol); a bound beyond the frame, infinite ones included, means no
    split exists. Leftover symbols go one at a time to the user with the
    smallest ratio of current blocklength to lower bound, ties to the
    lowest index, so the split tracks the relative slack.
    """
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    m = gammas.size
    if frame < m:
        raise ValueError("frame budget must cover at least one symbol per user")

    lower = np.empty(m, dtype=np.int64)
    for i in range(m):
        bound = min_blocklength(float(gammas[i]), eta[i] * rate, eps[i])
        if bound > frame:
            return None
        lower[i] = max(1, math.ceil(bound))
    if int(lower.sum()) > frame:
        return None

    betas = lower.copy()
    for _ in range(frame - int(betas.sum())):
        ratios = betas / lower
        betas[int(np.argmin(ratios))] += 1
    return betas
