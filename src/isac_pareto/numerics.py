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

The normal quantile behind the Q-function is a pure-Python port of Cephes
`ndtri` (S. L. Moshier), the routine scipy.special.ndtri runs, and
tests/test_numerics.py checks it against scipy bit for bit. The port exists
because importing scipy.special costs every fresh process about 0.2 s, for
this one scalar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


# Cephes ndtri: a rational approximation in y - 1/2 on (e^-2, 1 - e^-2), and
# outside it two in z = 1/x with x = sqrt(-2 ln y), switching at x = 8
# (y = e^-32). Coefficients lead with the highest power; the denominators'
# leading 1 is Cephes' p1evl, and 1.0 * z + c rounds as its z + c does.
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x: float, coef: tuple) -> float:
    """Horner evaluation, highest power first (Cephes polevl)."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(y: float) -> float:
    """Standard normal quantile Phi^{-1}(y) for y in (0, 1), Cephes order."""
    negate = True
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _polevl(y2, _Q0))
        return x * _SQRT_2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _polevl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _polevl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


def inv_q(p: float) -> float:
    """Inverse Gaussian Q-function: the x with Q(x) = p.

    Q^{-1}(p) = -Phi^{-1}(p), with the standard normal quantile from the
    Cephes ndtri port above, which returns scipy.special.ndtri's doubles bit
    for bit without importing scipy.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"inv_q requires p in (0, 1), got {p}")
    return -_ndtri(float(p))


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
