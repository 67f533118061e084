"""Scalar special functions, deterministic random streams, and phase projection.

These are the shared numerical primitives: the inverse Gaussian Q-function
used by the short-packet rate model, a bracketed bisection root finder, the
unit-modulus phase projection used by both RF precoder solvers (exact, plus
a one-pass variant for interior probe points), and a
counter-based random generator that gives every Monte-Carlo trial its own
reproducible stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

__all__ = [
    "Rng",
    "RootBracket",
    "inv_q",
    "q_function",
    "bracketed_root",
    "phase_project",
    "fast_unit",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Acklam's rational approximation of the standard normal quantile.
_ACKLAM_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_ACKLAM_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_ACKLAM_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_ACKLAM_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)


@dataclass(frozen=True)
class Rng:
    """Counter-based random stream keyed by (seed, stream_id).

    Philox streams are platform independent, so identical keys reproduce
    identical draws no matter how trials are scheduled across workers.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 bits")
        if not (0 <= self.stream_id < 2**64):
            raise ValueError("stream_id must fit in 64 bits")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream_id]))


@dataclass(frozen=True)
class RootBracket:
    """Search interval [lo, hi] with an absolute width tolerance."""

    lo: float
    hi: float
    tol: float = 1e-12

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")
        if not self.tol > 0:
            raise ValueError("tol must be positive")


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x) = P(Z > x)."""
    return 0.5 * erfc(x / _SQRT2)


def _normal_quantile_guess(p: float) -> float:
    """Acklam's rational approximation for the standard normal quantile."""
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        return num / den
    if p > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        return -num / den
    q = p - 0.5
    r = q * q
    num = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
    den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    return num / den


def inv_q(p: float) -> float:
    """Inverse Gaussian Q-function: the x with Q(x) = p.

    A rational initial guess is polished with Newton steps on the
    complementary error function, giving absolute error below 1e-10
    across the full open interval (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"inv_q requires p in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    # Q^{-1}(p) = -Phi^{-1}(p)
    x = -_normal_quantile_guess(p)
    for _ in range(3):
        residual = q_function(x) - p
        pdf = _INV_SQRT_2PI * math.exp(-0.5 * x * x)
        if pdf == 0.0:
            break
        x += residual / pdf
    return x


def bracketed_root(f, bracket: RootBracket) -> float:
    """Bisection root of f on [lo, hi] down to interval width <= tol.

    One endpoint being an exact root is accepted; otherwise f(lo) and
    f(hi) must differ in sign.
    """
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}"
        )
    while hi - lo > bracket.tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval at floating-point resolution
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return 0.5 * (lo + hi)


def _canonical_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Deterministic representative of an unordered pair, entrywise."""
    take_a = (a.real < b.real) | ((a.real == b.real) & (a.imag <= b.imag))
    return np.where(take_a, a, b)


def phase_project(v) -> np.ndarray:
    """Entrywise projection onto the unit circle, preserving phases.

    Zero entries map to 1 (any unit-modulus value is feasible there, and
    phase 0 is the deterministic choice). The output is an exact fixed
    point of the projection: renormalization in floating point either
    reaches a fixed point or enters a 2-cycle within four passes, so the
    orbit is resolved explicitly and 2-cycles are collapsed to a canonical
    representative, which makes phase_project(phase_project(v)) identical
    to phase_project(v) bit for bit.
    """
    v = np.asarray(v, dtype=np.complex128)
    w0 = np.where(v == 0, 1.0 + 0.0j, v)
    w0 = w0 / np.abs(w0)
    w1 = w0 / np.abs(w0)
    w2 = w1 / np.abs(w1)
    w3 = w2 / np.abs(w2)
    w4 = w3 / np.abs(w3)

    out = w3.copy()
    done = np.zeros(v.shape, dtype=bool)
    for result, cond in (
        (w0, w1 == w0),
        (w1, w2 == w1),
        (_canonical_pair(w0, w1), w2 == w0),
        (w2, w3 == w2),
        (_canonical_pair(w1, w2), w3 == w1),
        (w3, w4 == w3),
        (_canonical_pair(w2, w3), w4 == w2),
    ):
        pick = cond & ~done
        out[pick] = result[pick]
        done |= pick
    return out


def fast_unit(v: np.ndarray) -> np.ndarray:
    """One-pass circle normalization for interior probe points (EPMO
    line-search probes and the BMM surrogate-dual Lagrangian, whose
    multiplier steps use its closed form); points a solver returns go
    through phase_project for the exact-projection contract."""
    v = np.where(v == 0, 1.0 + 0.0j, v)
    return v / np.abs(v)
