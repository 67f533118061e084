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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import dispersion
from .numerics import RootBracket, bracketed_root, inv_q

__all__ = [
    "GammaThreshold",
    "InfeasibleAllocation",
    "solve_gamma_threshold",
    "min_blocklength",
    "allocate_blocklengths",
]


class InfeasibleAllocation(Exception):
    """Raised when no integer blocklength split can meet the rate targets."""


@dataclass(frozen=True)
class GammaThreshold:
    """Minimum SINR meeting a per-user rate target at fixed blocklength.

    kappa is the root of the transcendental equation, tau the normalized
    dispersion penalty Q^{-1}(eps)/sqrt(beta), delta = exp(-target).
    """

    gamma_min: float
    kappa: float
    tau: float
    delta: float

    def __post_init__(self):
        if not 0.0 <= self.kappa < 2.0 * self.tau + 1e-15:
            raise ValueError("kappa must lie in [0, 2*tau)")
        if self.gamma_min < 0:
            raise ValueError("gamma_min must be nonnegative")


def solve_gamma_threshold(target: float, beta: int, eps: float) -> GammaThreshold:
    """SINR threshold Gamma with fbl_rate(Gamma, beta, eps) = target.

    target is the per-user rate goal in nats. The root k of
    e^k (k^2 - 4 tau^2) = -4 delta^2 tau^2 is found by bisection on
    [0, 2*tau), where the bracket endpoints have opposite signs because
    delta <= 1; Gamma = exp(target + k/2) - 1.
    """
    if target < 0:
        raise ValueError("rate target must be nonnegative")
    if beta < 1:
        raise ValueError("blocklength must be >= 1")
    if not 0.0 < eps < 0.5:
        raise ValueError("error probability must lie in (0, 1/2)")

    tau = inv_q(eps) / math.sqrt(beta)
    delta = math.exp(-target)
    if target == 0.0:
        return GammaThreshold(gamma_min=0.0, kappa=0.0, tau=tau, delta=delta)

    four_tau_sq = 4.0 * tau * tau
    const = delta * delta * four_tau_sq

    def f(k):
        return math.exp(k) * (k * k - four_tau_sq) + const

    kappa = bracketed_root(f, RootBracket(0.0, 2.0 * tau, tol=1e-12))
    gamma = math.exp(target + 0.5 * kappa) - 1.0
    return GammaThreshold(gamma_min=gamma, kappa=kappa, tau=tau, delta=delta)


def min_blocklength(gamma: float, target: float, eps: float) -> float:
    """Smallest (real) blocklength at which SINR gamma supports the target.

    (sqrt(V(gamma)) * Q^{-1}(eps) / (ln(1+gamma) - target))^2. A zero
    target at zero SINR is vacuous and returns 0.
    """
    if gamma < 0:
        raise ValueError("SINR must be nonnegative")
    if target <= 0.0:
        return 0.0
    headroom = math.log1p(gamma) - target
    if headroom <= 0.0:
        raise InfeasibleAllocation(
            f"rate target {target:.6g} nats exceeds the Shannon rate "
            f"{math.log1p(gamma):.6g} at SINR {gamma:.6g}"
        )
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
    symbol). Leftover symbols go one at a time to the user with the
    smallest ratio of current blocklength to lower bound, ties to the
    lowest index, so the split tracks the relative slack.
    """
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    m = gammas.size
    if frame < m:
        raise ValueError("frame budget must cover at least one symbol per user")

    lower = np.empty(m, dtype=np.int64)
    for i in range(m):
        try:
            bound = min_blocklength(float(gammas[i]), eta[i] * rate, eps[i])
        except InfeasibleAllocation:
            return None
        lower[i] = max(1, math.ceil(bound))
    if int(lower.sum()) > frame:
        return None

    betas = lower.copy()
    for _ in range(frame - int(betas.sum())):
        ratios = betas / lower
        betas[int(np.argmin(ratios))] += 1
    return betas
