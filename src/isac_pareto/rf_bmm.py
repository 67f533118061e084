"""RF precoder solver by majorization-minimization with a surrogate dual.

Each iteration linearizes the quadratic objective and constraints around the
current unit-modulus iterate (the trace-scaled identity majorizer keeps the
surrogates tight at the anchor and dominating everywhere on the circle
manifold), then solves the surrogate program exactly: the Lagrangian is
linear in the precoder, so the primal minimizer is a closed-form phase
projection, and each dual multiplier is driven to complementary slackness
by coordinate ascent. One multiplier's surrogate constraint at the primal
minimizer is a closed-form, nonincreasing real scalar function with a
closed-form slope, so it is solved by Newton steps safeguarded by a
bisection bracket (Sun, Babu & Palomar 2017, "Majorization-Minimization
Algorithms in Signal Processing", on solving MM subproblems), warm-started
at the multiplier of the previous iteration.

SINR surrogates are handled in noise-normalized units and the power
surrogate in budget-normalized units so the multiplier windows are
dimensionless.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .numerics import fast_unit, phase_project
from .quadratics import QuadraticForms

__all__ = [
    "DualState",
    "MajorizerSet",
    "BmmResult",
    "InfeasibleStart",
    "DualDivergence",
    "majorize",
    "primal_step",
    "dual_bisection",
    "bmm_solve",
]

MAX_DUAL_SWEEPS = 50
MAX_BRACKET_DOUBLINGS = 64
# a surrogate still violated at this multiplier counts as unattainable
_BRACKET_LIMIT = 2.0 ** MAX_BRACKET_DOUBLINGS
MAX_BISECT_STEPS = 200
# relative size below which |v + x*u|^2 in closed form is rounding noise
_CANCEL = 64.0 * np.finfo(float).eps
# surrogate-constraint window of the dual step, feasibility gate on the
# iterates (relative constraint margins), and relative objective change that
# ends the outer loop
TOL = 1e-6
MAX_ITER = 500


class InfeasibleStart(ValueError):
    """The starting point violates the constraints it must be feasible for."""


class DualDivergence(RuntimeError):
    """A dual bracket grew past 2^64: the surrogate constraint is unattainable."""


@dataclass
class DualState:
    """Multipliers for the active SINR constraints and the power constraint."""

    lam: np.ndarray
    vartheta: float = 0.0
    lagrangian_trace: List[float] = field(default_factory=list)

    def __post_init__(self):
        self.lam = np.asarray(self.lam, dtype=float)
        if np.any(self.lam < 0) or self.vartheta < 0:
            raise ValueError("dual multipliers must be nonnegative")

    @classmethod
    def zeros(cls, n_active: int) -> "DualState":
        return cls(lam=np.zeros(n_active), vartheta=0.0)


@dataclass(frozen=True)
class MajorizerSet:
    """Linear-plus-constant surrogates anchored at one unit-modulus point.

    Every surrogate evaluates as 2*Re(d^H u) + k. The objective surrogate is
    in raw units; constraint surrogates are normalized (noise / budget).
    """

    anchor: np.ndarray
    u_obj: np.ndarray
    k_obj: float
    u_g: np.ndarray       # (n_active, D)
    k_g: np.ndarray       # (n_active,)
    u_p: np.ndarray
    k_p: float

    def surrogate_objective(self, d: np.ndarray) -> float:
        return 2.0 * float(np.real(np.vdot(self.u_obj, d))) + self.k_obj

    def surrogate_sinr(self, d: np.ndarray, k: int) -> float:
        return 2.0 * float(np.real(np.vdot(self.u_g[k], d))) + self.k_g[k]

    def surrogate_power(self, d: np.ndarray) -> float:
        return 2.0 * float(np.real(np.vdot(self.u_p, d))) + self.k_p


@dataclass
class BmmResult:
    d: np.ndarray
    objective_trace: List[float]
    duals: DualState
    iterations: int
    converged: bool


def _require_unit_modulus(d: np.ndarray, what: str) -> np.ndarray:
    d = np.asarray(d, dtype=np.complex128)
    if np.max(np.abs(np.abs(d) - 1.0)) > 1e-9:
        raise ValueError(f"{what} must have unit-modulus entries")
    return d


def majorize(q: QuadraticForms, d_anchor: np.ndarray) -> MajorizerSet:
    """Touching, dominating linear surrogates of the objective and constraints.

    For a quadratic x^H Q x (+ linear + const) the surrogate at anchor x0 is
    2*Re(x^H [(Q - tI) x0 (- p)]) - x0^H Q x0 + 2*t*D (+ const) with
    t = tr(Q), which is exact at x0 and an upper bound whenever |x_l| = 1.
    """
    d0 = _require_unit_modulus(d_anchor, "majorizer anchor")
    dim = q.d_dim

    xi_d0 = q.xi_dot(d0)
    quad0 = float(np.real(np.vdot(d0, xi_d0)))  # d0^H Xi d0 = ||F0 Fbb||^2
    u_obj = xi_d0 - q.c_r * d0 - q.a_r
    k_obj = -quad0 + 2.0 * dim * q.c_r + q.e_r

    n_act = q.active.size
    u_g = np.zeros((n_act, dim), dtype=np.complex128)
    k_g = np.zeros(n_act)
    for k, m in enumerate(q.active):
        delta_d0 = q.delta_dot(d0, m) / q.noise
        c_hat = q.c_m[m] / q.noise
        u_g[k] = delta_d0 - c_hat * d0
        k_g[k] = -float(np.real(np.vdot(d0, delta_d0))) + 2.0 * dim * c_hat + 1.0

    c_p_hat = q.c_p / q.p_max
    u_p = xi_d0 / q.p_max - c_p_hat * d0
    k_p = -quad0 / q.p_max + 2.0 * dim * c_p_hat - 1.0

    return MajorizerSet(anchor=d0, u_obj=u_obj, k_obj=k_obj,
                        u_g=u_g, k_g=k_g, u_p=u_p, k_p=k_p)


def _combined(ms: MajorizerSet, lam: np.ndarray, vartheta: float) -> np.ndarray:
    v = ms.u_obj + ms.u_p * vartheta
    if lam.size:
        v = v + lam @ ms.u_g
    return v


def primal_step(ms: MajorizerSet, duals: DualState) -> np.ndarray:
    """Closed-form minimizer of the surrogate Lagrangian on the circle manifold."""
    return phase_project(-_combined(ms, duals.lam, duals.vartheta))


def _lagrangian_at_minimizer(ms: MajorizerSet, lam: np.ndarray, vartheta: float) -> float:
    d = fast_unit(-_combined(ms, lam, vartheta))
    value = ms.surrogate_objective(d) + vartheta * ms.surrogate_power(d)
    for k in range(lam.size):
        value += lam[k] * ms.surrogate_sinr(d, k)
    return value


class _ConstraintProbe:
    """g(x) = 2*Re(u^H fast_unit(-(v + x*u))) + k and g'(x) in closed form.

    With w = conj(v)*u, p = Re(w), s = |u|^2 and r = |v|^2 per entry,
    q = |v + x*u|^2 = r + 2xp + x^2 s, so

        g(x)  = k - 2 * sum((p + x*s) / sqrt(q))
        g'(x) = -2 * sum(Im(w)^2 / q^(3/2)) <= 0

    (s*r - p^2 = Im(w)^2), and each probe is a few real vector operations.
    s and its largest entry s_max are passed in, as they do not depend on v.
    An entry whose q is within rounding of zero (fast_unit maps an exact
    zero of v + x*u to 1) takes its term from fast_unit itself, and g' is
    then returned as nan.
    """

    def __init__(self, v: np.ndarray, u: np.ndarray, s: np.ndarray, s_max: float,
                 k: float):
        w = np.conj(v) * u
        self.v, self.u, self.s, self.s_max, self.k = v, u, s, s_max, k
        self.p = w.real
        self.t2 = w.imag * w.imag
        self.r = v.real * v.real + v.imag * v.imag
        self.r_max = float(self.r.max())

    def at_zero(self):
        """g(0) and g'(0) without the x terms: g(0) decides whether the
        multiplier is slack, and about half of all solves stop there."""
        r = self.r
        if r.min() > 0.0:
            inv = 1.0 / np.sqrt(r)
            value = self.k - 2.0 * float(np.dot(self.p, inv))
            return value, -2.0 * float(np.dot(self.t2, inv / r))
        return self(0.0)

    def __call__(self, x: float):
        p, s, r = self.p, self.s, self.r
        xs = x * s
        q = r + x * (2.0 * p + xs)
        # rounding moves q by at most a few eps * (r + x^2 s) per entry
        if q.min() > _CANCEL * (self.r_max + x * x * self.s_max):
            inv = 1.0 / np.sqrt(q)
            value = self.k - 2.0 * float(np.dot(p + xs, inv))
            return value, -2.0 * float(np.dot(self.t2, inv / q))
        near = q <= _CANCEL * (r + x * xs)
        far = ~near
        d_near = fast_unit(-(self.v[near] + x * self.u[near]))
        value = (self.k + 2.0 * float(np.real(np.vdot(self.u[near], d_near)))
                 - 2.0 * float(np.sum((p[far] + xs[far]) / np.sqrt(q[far]))))
        return value, np.nan


def _solve_multiplier(probe: _ConstraintProbe, x_start: float) -> float:
    """A multiplier driving the surrogate constraint into (-TOL, 0].

    probe(x) returns the surrogate constraint and its slope at the primal
    minimizer with this multiplier set to x and the rest held fixed; the
    constraint is nonincreasing in x. Returns 0 when it is slack at 0.
    Otherwise safeguarded Newton ("rtsafe"): the first probe is x_start
    (the multiplier's previous value, or 1 when that is 0), and each step
    aims at the middle of the window from the bracket end nearer to it. A
    step that leaves the bracket, or has no negative slope, is replaced by
    a bisection; while no feasible side is known, a step that did not
    halve the violation is followed by at least a doubling (to 1 or more).
    """
    value, slope = probe.at_zero()
    if value <= 0.0:
        return 0.0
    lower, upper = (0.0, value, slope), None
    x = x_start if x_start > 0.0 else 1.0
    for _ in range(MAX_BRACKET_DOUBLINGS + MAX_BISECT_STEPS):
        value, slope = probe(x)
        if -TOL < value <= 0.0:
            return x
        if value > 0.0:
            if x >= _BRACKET_LIMIT:
                raise DualDivergence(
                    "dual bracket exceeded 2^64; surrogate constraint unattainable"
                )
            halved = value <= 0.5 * lower[1]
            lower = (x, value, slope)
        else:
            upper = (x, value, slope)
        base = lower
        if upper is not None and -(upper[1] + 0.5 * TOL) < lower[1] + 0.5 * TOL:
            base = upper
        x_base, value, slope = base
        newton = x_base - (value + 0.5 * TOL) / slope if slope < 0.0 else -np.inf
        if upper is None:
            if not (halved and newton > x_base):
                newton = max(newton, 2.0 * x_base, 1.0)
            x = min(newton, _BRACKET_LIMIT)
        elif lower[0] < newton < upper[0]:
            x = newton
        else:
            x = 0.5 * (lower[0] + upper[0])
    if upper is None:
        raise DualDivergence("no multiplier within the probe budget met the surrogate")
    return upper[0]  # feasible side if the tolerance window was never hit


def dual_bisection(ms: MajorizerSet, duals_in: DualState) -> DualState:
    """Coordinate ascent on the surrogate dual: each multiplier is either
    slack (set to zero) or solved, warm-started at its incoming value,
    until its constraint sits in (-TOL, 0].

    Sweeps repeat until the Lagrangian value at the primal minimizer is
    stable to relative tolerance TOL, with a hard cap of 50 sweeps.
    """
    lam = duals_in.lam.copy()
    vth = duals_in.vartheta
    trace: List[float] = []
    s_g = ms.u_g.real ** 2 + ms.u_g.imag ** 2
    s_p = ms.u_p.real ** 2 + ms.u_p.imag ** 2
    s_g_max = s_g.max(axis=1)
    s_p_max = float(s_p.max())

    for _ in range(MAX_DUAL_SWEEPS):
        for k in range(lam.size):
            # other multipliers frozen: the probe direction is u_g[k] alone
            others = lam.copy()
            others[k] = 0.0
            probe = _ConstraintProbe(_combined(ms, others, vth), ms.u_g[k],
                                     s_g[k], s_g_max[k], ms.k_g[k])
            lam[k] = _solve_multiplier(probe, lam[k])

        probe = _ConstraintProbe(_combined(ms, lam, 0.0), ms.u_p, s_p, s_p_max,
                                 ms.k_p)
        vth = _solve_multiplier(probe, vth)
        value = _lagrangian_at_minimizer(ms, lam, vth)
        trace.append(value)
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= TOL * max(abs(trace[-1]), 1e-30):
            break
    return DualState(lam=lam, vartheta=vth, lagrangian_trace=trace)


def _worst_violation(q: QuadraticForms, d: np.ndarray) -> float:
    """Worst relative constraint violation (SINR shortfall or power excess)."""
    shortfall, power_excess = q.constraint_margins(d)
    return float(np.max(shortfall, initial=power_excess))


def bmm_solve(q: QuadraticForms, d_init: np.ndarray, max_iter: int = MAX_ITER) -> BmmResult:
    """Full majorize / dual-bisect / phase-project loop from a feasible start.

    Iterates keep the original problem feasible (surrogate feasibility
    implies it), and a monotonicity guard stops the loop if numerical noise
    would ever let the true objective tick upward, so the returned trace is
    nonincreasing by construction.
    """
    d = _require_unit_modulus(d_init, "starting point")
    if _worst_violation(q, d) > TOL:
        raise InfeasibleStart(
            f"starting point violates constraints by {_worst_violation(q, d):.3e} "
            "(relative)"
        )
    duals = DualState.zeros(q.active.size)
    trace = [q.objective(d)]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        ms = majorize(q, d)
        duals = dual_bisection(ms, duals)
        candidate = primal_step(ms, duals)
        cand_obj = q.objective(candidate)
        if cand_obj > trace[-1] or _worst_violation(q, candidate) > TOL:
            converged = True  # stalled at numerical resolution
            break
        d = candidate
        trace.append(cand_obj)
        denom = max(abs(trace[-1]), 1e-30)
        if abs(trace[-1] - trace[-2]) / denom <= TOL:
            converged = True
            break
    return BmmResult(d=d, objective_trace=trace, duals=duals,
                     iterations=iterations, converged=converged)
