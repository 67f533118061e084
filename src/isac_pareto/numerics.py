"""Scalar special functions, deterministic random streams, and phase projection.

These are the shared numerical primitives: the inverse Gaussian Q-function
used by the short-packet rate model, a bisection root finder on plain
bounds [lo, hi] with an absolute width tolerance, the unit-modulus phase
projection used by both RF precoder solvers (exact, plus a one-pass variant
for interior probe points), and a counter-based random generator that gives
every Monte-Carlo trial its own reproducible stream.
The exact projection computes its renormalization passes lazily, stopping
once every entry's orbit is resolved, and keeps the fixed-point contract:
its output bits are those of the eager five-pass resolution, so projecting
twice changes nothing.

The normal quantile behind the Q-function is the standard library's
(`statistics.NormalDist.inv_cdf`, Wichura 1988, "Algorithm AS 241: The
percentage points of the normal distribution"): importing scipy.special
would cost every fresh process about 0.2 s, for this one scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

__all__ = [
    "Rng",
    "inv_q",
    "bracketed_root",
    "phase_project",
    "fast_unit",
]


@dataclass(frozen=True)
class Rng:
    """Counter-based random stream keyed by (seed, stream_id).

    Philox streams are platform independent, so identical keys reproduce
    identical draws no matter how trials are scheduled across workers.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            key = getattr(self, name)
            if not isinstance(key, (int, np.integer)) or not 0 <= key < 2**64:
                raise ValueError(f"{name} must be an integer that fits in 64 bits")

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream_id]))


def inv_q(p: float) -> float:
    """Inverse Gaussian Q-function: the x with Q(x) = p.

    Q^{-1}(p) = -Phi^{-1}(p), with the standard normal quantile of
    `statistics.NormalDist`.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"inv_q requires p in (0, 1), got {p}")
    return -NormalDist().inv_cdf(float(p))


def bracketed_root(f, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Bisection root of f on [lo, hi] down to interval width <= tol.

    One endpoint being an exact root is accepted; otherwise f(lo) and
    f(hi) must differ in sign.
    """
    if not lo < hi:
        raise ValueError(f"bracket requires lo < hi, got [{lo}, {hi}]")
    if not tol > 0:
        raise ValueError("tol must be positive")
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise ValueError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}"
        )
    while hi - lo > tol:
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


def _unit(v: np.ndarray) -> np.ndarray:
    """v / |v| entrywise with zero entries mapped to 1; the zero test and
    its replacement are skipped when |v| has no zero (|v| = 0 only at 0)."""
    # here and in phase_project the ufunc reductions return what
    # ndarray.all/any do without their Python wrapper: both run millions
    # of times per solve
    mag = np.abs(v)
    if not np.logical_and.reduce(mag, axis=None):
        v = np.where(v == 0, 1.0 + 0.0j, v)
        mag = np.abs(v)
    return v / mag


def phase_project(v) -> np.ndarray:
    """Entrywise projection onto the unit circle, preserving phases.

    Zero entries map to 1 (any unit-modulus value is feasible there, and
    phase 0 is the deterministic choice). The output is an exact fixed
    point of the projection: renormalization in floating point either
    reaches a fixed point or enters a 2-cycle within four passes, so the
    orbit is resolved explicitly and 2-cycles are collapsed to a canonical
    representative, which makes phase_project(phase_project(v)) identical
    to phase_project(v) bit for bit.

    The orbit is followed lazily: a further pass is computed only while
    some entry is undecided, and a canonical pair only for the entries
    that entered that 2-cycle. An entry still undecided after four
    passes (a NaN or infinite input) takes the fourth pass.
    """
    v = np.asarray(v, dtype=np.complex128)
    passes = [_unit(v)]
    passes.append(passes[0] / np.abs(passes[0]))
    undecided = passes[1] != passes[0]
    out = passes[0].copy()
    for k in range(2, 5):
        prev2, prev = passes[k - 2], passes[k - 1]
        cur = prev / np.abs(prev)
        passes.append(cur)
        fixed = undecided & (cur == prev)
        np.copyto(out, prev, where=fixed)
        undecided &= ~fixed
        cycle = undecided & (cur == prev2)
        if np.logical_or.reduce(cycle, axis=None):
            out[cycle] = _canonical_pair(prev2[cycle], prev[cycle])
            undecided &= ~cycle
        if not np.logical_or.reduce(undecided, axis=None):
            return out
    out[undecided] = passes[3][undecided]
    return out


def fast_unit(v: np.ndarray) -> np.ndarray:
    """One-pass circle normalization for interior probe points (EPMO
    line-search probes and the BMM surrogate-dual Lagrangian, whose
    multiplier steps use its closed form); points a solver returns go
    through phase_project for the exact-projection contract. Zero entries
    map to 1."""
    return _unit(np.asarray(v, dtype=np.complex128))
