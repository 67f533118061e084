"""Scenario configuration and closed-form performance metrics.

Holds the full system description (array, users, targets, power, noise,
frame budget, reliability targets) and the metrics every solver and
experiment is judged by: per-user SINR, the SINR/power constraint margins
every solver layer checks feasibility with, the short-packet achievable
rate with its dispersion penalty, and the radar beamforming error against
an ideal steering precoder. Every layer takes cross gains, power and fit
error from the kernels `gains`, `power` and `fit_error`, so each quantity
has the same bits wherever it is read.

Rates are handled in nats throughout; conversion to bits happens only at
the reporting boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .channel import ArrayGeometry, ChannelSet, steering_matrix
from .numerics import inv_q

__all__ = [
    "SystemConfig",
    "HybridPrecoder",
    "RadarSpec",
    "ideal_radar_precoder",
    "sinr",
    "gains",
    "power",
    "fit_error",
    "effective_sinr",
    "constraint_margins",
    "feasible",
    "within_cap",
    "dispersion",
    "shannon_rate",
    "fbl_rate",
    "rbe",
    "NATS_PER_BIT",
    "CAP_RTOL",
    "FEAS_SLACK",
]

NATS_PER_BIT = float(np.log(2.0))
# relative slack of the power budget and the sensing cap: an absolute slack
# would void the check for a budget or cap near its size (see `within_cap`)
CAP_RTOL = 1e-8
# slack of each relative SINR shortfall: the barrier solution sits a gap of
# order 1/kappa off a binding cone and its polish accepts slacks just below
# zero, so a zero slack would reject points that meet a threshold to the cone
# solver's accuracy (see `feasible`)
FEAS_SLACK = 1e-6


@dataclass(frozen=True)
class SystemConfig:
    """Complete scenario description, all quantities in linear units.

    Powers are watts, rates are nats, angles are degrees.
    """

    n_tx: int = 128
    n_rf: int = 4
    n_cu: int = 2
    n_tar: int = 2
    p_max: float = 1.0            # 30 dBm
    noise: float = 1e-12          # -90 dBm
    frame_budget: int = 128
    eps: tuple = (1e-5, 1e-5)
    eta: tuple = (0.5, 0.5)
    e_max: float = 0.15
    target_angles_deg: tuple = (-60.0, -20.0)
    cu_angles_deg: Optional[tuple] = (30.0, 60.0)
    distances_m: Optional[tuple] = None
    n_clu: int = 5
    n_ray: int = 10
    angular_spread_deg: float = 10.0
    shadow_std_db: float = 5.8
    spacing_over_lambda: float = 0.5

    def __post_init__(self):
        for name in ("n_tx", "n_rf", "n_cu", "n_tar", "n_clu", "n_ray"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ValueError(f"{name} must be an integer")
        if not (self.n_cu <= self.n_rf <= self.n_tx):
            raise ValueError(
                f"need n_cu <= n_rf <= n_tx, got {self.n_cu}, {self.n_rf}, {self.n_tx}"
            )
        if len(self.eps) != self.n_cu or len(self.eta) != self.n_cu:
            raise ValueError("eps and eta must have one entry per user")
        # the SINR-threshold inversion needs Q^{-1}(eps) > 0
        if any(not 0 < e < 0.5 for e in self.eps):
            raise ValueError("error probabilities must lie in (0, 1/2)")
        # eta entries in (0, 1]; a single-user scenario forces eta = 1
        if any(not 0 < v <= 1 for v in self.eta):
            raise ValueError("rate fractions must lie in (0, 1]")
        if abs(sum(self.eta) - 1.0) > 1e-12:
            raise ValueError(f"rate fractions must sum to 1, got {sum(self.eta)}")
        if not (0 < self.p_max < math.inf and 0 < self.noise < math.inf):
            raise ValueError("p_max and noise must be positive and finite")
        if not self.e_max >= 0:  # +inf means no sensing cap
            raise ValueError("e_max must be nonnegative")
        if not isinstance(self.frame_budget, (int, np.integer)):
            raise ValueError("frame budget must be an integer number of symbols")
        if self.frame_budget < self.n_cu:
            raise ValueError("frame budget must cover at least one symbol per user")
        if len(self.target_angles_deg) != self.n_tar:
            raise ValueError("target_angles_deg must have one entry per target")
        if not 1 <= self.n_tar <= self.n_cu:
            raise ValueError("need 1 <= n_tar <= n_cu so the auxiliary matrix is wide")
        if any(not -90.0 <= a <= 90.0 for a in self.target_angles_deg):
            raise ValueError("target angles must lie in [-90, 90] degrees")
        # channel fields, checked here rather than inside generate_channels
        if self.cu_angles_deg is not None and len(self.cu_angles_deg) != self.n_cu:
            raise ValueError("cu_angles_deg must have one entry per user")
        if self.distances_m is not None:
            if len(self.distances_m) != self.n_cu:
                raise ValueError("distances_m must have one entry per user")
            if any(not d > 0 for d in self.distances_m):
                raise ValueError("distances must be positive")
        if self.n_clu < 1 or self.n_ray < 1:
            raise ValueError("need at least one cluster and one ray per cluster")
        if not self.angular_spread_deg >= 0:
            raise ValueError("angular spread must be nonnegative")
        if not self.shadow_std_db >= 0:
            raise ValueError("shadowing standard deviation must be nonnegative")
        if not self.spacing_over_lambda > 0:
            raise ValueError("antenna spacing must be positive")

    @property
    def geometry(self) -> ArrayGeometry:
        return ArrayGeometry(self.n_tx, self.spacing_over_lambda)

    def with_updates(self, **kwargs) -> "SystemConfig":
        return replace(self, **kwargs)


@dataclass
class HybridPrecoder:
    """RF stage (unit-modulus), baseband stage, and the auxiliary row-unitary.

    f_rf: (N_t, N_RF), f_bb: (N_RF, M), u: (N_tar, M).
    """

    f_rf: np.ndarray
    f_bb: np.ndarray
    u: np.ndarray

    def effective(self) -> np.ndarray:
        """Composite transmit precoder F_rf @ F_bb, shape (N_t, M)."""
        return self.f_rf @ self.f_bb

    def transmit_power(self) -> float:
        return power(self.effective())


@dataclass(frozen=True)
class RadarSpec:
    """Ideal sensing precoder: one steering column per target.

    Columns are unit-norm steering vectors, optionally scaled so the
    reference radiates a given total power (the sensing error is then
    measured against a full-budget radar transmission, which is what makes
    small error caps attainable at all within the power budget).
    """

    f_r: np.ndarray
    target_angles_deg: tuple


def ideal_radar_precoder(angles_deg: Sequence[float], geom: ArrayGeometry,
                         power: Optional[float] = None) -> RadarSpec:
    """Steering columns toward each target angle.

    With power=None the columns stay unit norm; otherwise each column is
    scaled by sqrt(power / n_targets) so the reference spends exactly
    `power` watts in total.
    """
    angles = tuple(float(a) for a in angles_deg)
    if len(angles) == 0:
        raise ValueError("need at least one target angle")
    f_r = steering_matrix(angles, geom)
    if power is not None:
        if not 0 < power < math.inf:
            raise ValueError("reference power must be positive and finite")
        f_r = f_r * np.sqrt(power / len(angles))
    return RadarSpec(f_r=f_r, target_angles_deg=angles)


def gains(h_conj: np.ndarray, eff: np.ndarray):
    """(t = H^H eff, |t|^2, row totals of |t|^2) of a composite precoder,
    h_conj holding the conjugated user channels as rows: t[m, n] = h_m^H f_n."""
    t = h_conj @ eff
    powers = np.abs(t) ** 2
    return t, powers, np.add.reduce(powers, axis=1)  # powers.sum(axis=1), unwrapped


def power(eff: np.ndarray) -> float:
    """Squared Frobenius norm ||eff||_F^2, the transmit power of a precoder."""
    return float(np.vdot(eff, eff).real)


def fit_error(eff: np.ndarray, ref: np.ndarray) -> float:
    """Squared Frobenius gap ||eff - ref||_F^2."""
    return power(eff - ref)


def effective_sinr(eff: np.ndarray, h: np.ndarray, noise: float) -> np.ndarray:
    """Per-user SINR of the composite precoder eff = F_rf F_bb, shape (N_t, M)."""
    _, powers, totals = gains(h.conj(), eff)
    signal = np.diag(powers)
    return signal / (totals - signal + noise)


def sinr(ch: ChannelSet, pc: HybridPrecoder, noise: float) -> np.ndarray:
    """Per-user SINR of a hybrid precoder."""
    return effective_sinr(pc.effective(), ch.h, noise)


def constraint_margins(eff: np.ndarray, h: np.ndarray, gamma: np.ndarray,
                       noise: float, p_max: float):
    """(relative SINR shortfall per active user, relative power excess).

    The shortfall 1 - SINR_m/Gamma_m covers the users with a positive
    threshold (a zero threshold marks a dropped constraint); the power
    excess is ||eff||_F^2 / P_max - 1. Both are feasible iff <= 0. Unlike a
    noise-normalized residual, this scale-free measure does not blow up
    when interference dwarfs the noise, so the BCD, the cone solver and BMM
    judge feasibility with it. EPMO's penalty verdict bounds the
    noise-normalized residuals instead, each at least as large as the
    matching margin here.
    """
    power_excess = power(eff) / p_max - 1.0
    active = np.flatnonzero(gamma > 0)
    if active.size == 0:
        return np.zeros(0), power_excess
    achieved = effective_sinr(eff, h, noise)[active]
    return 1.0 - achieved / gamma[active], power_excess


def feasible(margins) -> bool:
    """The one feasibility verdict of every solver layer, on a
    `constraint_margins` pair: each SINR shortfall at most FEAS_SLACK and
    the power excess at most CAP_RTOL. A NaN margin fails."""
    shortfall, power_excess = margins
    return bool(np.all(shortfall <= FEAS_SLACK)) and power_excess <= CAP_RTOL


def within_cap(value: float, cap: float) -> bool:
    """Whether value <= cap * (1 + CAP_RTOL); a NaN value fails."""
    return value <= cap * (1.0 + CAP_RTOL)


def dispersion(gamma: float):
    """Channel dispersion 1 - 1/(1+gamma)^2 of the normal approximation."""
    gamma = np.asarray(gamma, dtype=float)
    if not np.all(gamma >= 0):
        raise ValueError("SINR must be nonnegative")
    out = 1.0 - 1.0 / (1.0 + gamma) ** 2
    return float(out) if out.ndim == 0 else out


def shannon_rate(gamma: float):
    """Infinite-blocklength rate ln(1 + gamma), in nats."""
    return np.log1p(np.asarray(gamma, dtype=float))


def fbl_rate(gamma: float, beta, eps: float):
    """Short-packet achievable rate in nats per channel use.

    ln(1+gamma) minus the dispersion penalty sqrt(V/beta) * Q^{-1}(eps).
    May be negative at small blocklengths; callers clamp where appropriate.
    """
    gamma = np.asarray(gamma, dtype=float)
    beta_arr = np.asarray(beta, dtype=float)
    if not np.all(gamma >= 0):
        raise ValueError("SINR must be nonnegative")
    if not np.all(beta_arr >= 1):
        raise ValueError("blocklength must be >= 1")
    penalty = np.sqrt(dispersion(gamma) / beta_arr) * inv_q(eps)
    out = shannon_rate(gamma) - penalty
    return float(out) if out.ndim == 0 else out


def rbe(pc: HybridPrecoder, rs: RadarSpec) -> float:
    """Radar beamforming error: squared Frobenius gap to the ideal precoder."""
    return fit_error(pc.effective(), rs.f_r @ pc.u)
