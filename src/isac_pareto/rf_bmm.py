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

The constraint surrogates form one stack, a row per active SINR
constraint in noise-normalized units and the power budget last in
budget-normalized units, so every multiplier window is dimensionless and
the multipliers are one nonnegative vector with the power multiplier last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import feasible
from .numerics import fast_unit, phase_project
from .quadratics import QuadraticForms

__all__ = [
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
# surrogate-constraint window of the dual step, and relative objective
# change that ends the outer loop; the start and every iterate are gated on
# the shared verdict model.feasible
TOL = 1e-6
MAX_ITER = 500


class InfeasibleStart(ValueError):
    """The starting point violates the constraints it must be feasible for."""


class DualDivergence(RuntimeError):
    """A dual bracket grew past 2^64: the surrogate constraint is unattainable."""


@dataclass(frozen=True)
class MajorizerSet:
    """Linear-plus-constant surrogates anchored at one unit-modulus point.

    Every surrogate evaluates as 2*Re(d^H u) + k. The objective surrogate is
    in raw units; the constraint rows are normalized, one per active SINR
    constraint (by the noise) and the power budget last (by the budget).
    """

    u_obj: np.ndarray
    k_obj: float
    u_c: np.ndarray       # (n_active + 1, D)
    k_c: np.ndarray       # (n_active + 1,)

    def surrogate_objective(self, d: np.ndarray) -> float:
        return 2.0 * float(np.real(np.vdot(self.u_obj, d))) + self.k_obj

    def surrogate_constraint(self, d: np.ndarray, k: int) -> float:
        return 2.0 * float(np.real(np.vdot(self.u_c[k], d))) + self.k_c[k]


@dataclass
class BmmResult:
    d: np.ndarray
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
    u_c = np.empty((n_act + 1, dim), dtype=np.complex128)
    k_c = np.empty(n_act + 1)
    for k, m in enumerate(q.active):
        delta_d0 = q.delta_dot(d0, m) / q.noise
        c_hat = q.c_m[m] / q.noise
        u_c[k] = delta_d0 - c_hat * d0
        k_c[k] = -float(np.real(np.vdot(d0, delta_d0))) + 2.0 * dim * c_hat + 1.0

    c_p_hat = q.c_p / q.p_max
    u_c[-1] = xi_d0 / q.p_max - c_p_hat * d0
    k_c[-1] = -quad0 / q.p_max + 2.0 * dim * c_p_hat - 1.0

    return MajorizerSet(u_obj=u_obj, k_obj=k_obj, u_c=u_c, k_c=k_c)


def _combined(ms: MajorizerSet, y: np.ndarray) -> np.ndarray:
    return ms.u_obj + y @ ms.u_c


def primal_step(ms: MajorizerSet, y: np.ndarray) -> np.ndarray:
    """Closed-form minimizer of the surrogate Lagrangian on the circle manifold."""
    return phase_project(-_combined(ms, y))


def _lagrangian_at_minimizer(ms: MajorizerSet, y: np.ndarray) -> float:
    d = fast_unit(-_combined(ms, y))
    value = ms.surrogate_objective(d)
    for k in range(y.size):
        value += y[k] * ms.surrogate_constraint(d, k)
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
        # the ufunc reductions here return what ndarray.min/max do
        # without their Python wrapper, which probes pay ~10^5 times a run
        self.r_max = float(np.maximum.reduce(self.r, axis=None))

    def at_zero(self):
        """g(0) and g'(0) without the x terms: g(0) decides whether the
        multiplier is slack, and about half of all solves stop there."""
        r = self.r
        if np.minimum.reduce(r, axis=None) > 0.0:
            inv = 1.0 / np.sqrt(r)
            value = self.k - 2.0 * float(np.dot(self.p, inv))
            return value, -2.0 * float(np.dot(self.t2, inv / r))
        return self(0.0)

    def __call__(self, x: float):
        p, s, r = self.p, self.s, self.r
        xs = x * s
        q = r + x * (2.0 * p + xs)
        # rounding moves q by at most a few eps * (r + x^2 s) per entry
        bound = _CANCEL * (self.r_max + x * x * self.s_max)
        if np.minimum.reduce(q, axis=None) > bound:
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


def dual_bisection(ms: MajorizerSet, y_in: np.ndarray) -> np.ndarray:
    """Coordinate ascent on the surrogate dual: each multiplier, in row
    order, is either slack (set to zero) or solved, warm-started at its
    incoming value, until its constraint sits in (-TOL, 0].

    Sweeps repeat until the Lagrangian value at the primal minimizer is
    stable to relative tolerance TOL, with a hard cap of 50 sweeps.
    """
    y = np.array(y_in, dtype=float)
    prev = None
    s = ms.u_c.real ** 2 + ms.u_c.imag ** 2
    s_max = s.max(axis=1)

    for _ in range(MAX_DUAL_SWEEPS):
        for k in range(y.size):
            # other multipliers frozen: the probe direction is u_c[k] alone
            others = y.copy()
            others[k] = 0.0
            probe = _ConstraintProbe(_combined(ms, others), ms.u_c[k],
                                     s[k], s_max[k], ms.k_c[k])
            y[k] = _solve_multiplier(probe, y[k])
        value = _lagrangian_at_minimizer(ms, y)
        if prev is not None and abs(value - prev) <= TOL * max(abs(value), 1e-30):
            break
        prev = value
    return y


def bmm_solve(q: QuadraticForms, d_init: np.ndarray) -> BmmResult:
    """Full majorize / dual-bisect / phase-project loop from a feasible start.

    Iterates keep the original problem feasible (surrogate feasibility
    implies it), and a monotonicity guard stops the loop if numerical noise
    would ever let the true objective tick upward, so the objective of the
    accepted iterates is nonincreasing by construction.
    """
    d = _require_unit_modulus(d_init, "starting point")
    margins = q.constraint_margins(d)
    if not feasible(margins):
        raise InfeasibleStart(f"starting point fails the feasibility measure: {margins}")
    y = np.zeros(q.active.size + 1)
    obj = q.objective(d)
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        ms = majorize(q, d)
        y = dual_bisection(ms, y)
        candidate = primal_step(ms, y)
        cand_obj = q.objective(candidate)
        if not cand_obj <= obj or not feasible(q.constraint_margins(candidate)):
            converged = True  # stalled at numerical resolution
            break
        d, prev, obj = candidate, obj, cand_obj
        if abs(obj - prev) / max(abs(obj), 1e-30) <= TOL:
            converged = True
            break
    return BmmResult(d=d, iterations=iterations, converged=converged)
