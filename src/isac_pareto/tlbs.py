"""Two-layer search for Pareto points of the sensing-rate trade-off.

The inner layer holds the sum rate fixed, converts it to per-user SINR
thresholds, and minimizes the radar beamforming error by block-coordinate
descent over the RF stage (majorization-minimization or penalty manifold
descent), the baseband stage (cone program), and the auxiliary matrix
(closed-form Procrustes). The outer layer bisects on the sum rate: a
midpoint is feasible when the converged error fits under the sensing cap,
the power budget holds, and an integer blocklength split exists for the
achieved SINRs; the bracket then tightens until its width reaches the rate
tolerance.

A fully digital mode ("fdb") replaces the hybrid factorization with one
unconstrained precoder. Any optimal digital precoder lies in the span of
the user channels and the sensing steering columns (components orthogonal
to both only spend power), so the digital stage is solved exactly in that
subspace, with the orthonormal basis standing in for the RF matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import List, Optional

import numpy as np

from .bb_solver import (
    InfeasibleSubproblem,
    make_socp_instance,
    solve_bb,
    update_u,
)
from .channel import ChannelSet
from .fbl import allocate_blocklengths, solve_gamma_threshold
from .model import (
    NATS_PER_BIT,
    HybridPrecoder,
    RadarSpec,
    SystemConfig,
    constraint_margins,
    fbl_rate,
    rbe,
    sinr,
)
from .numerics import Rng, phase_project
from .quadratics import QuadraticForms, build_quadratics
from .rf_bmm import TOL as BMM_TOL
from .rf_bmm import DualDivergence, InfeasibleStart, bmm_solve
from .rf_epmo import PenaltyConfig, epmo_solve

__all__ = [
    "SolveOptions",
    "ParetoPoint",
    "InnerResult",
    "init_precoder",
    "inner_bcd",
    "tlbs_solve",
    "rate_upper_bound",
    "validate_point",
]

RF_METHODS = ("bmm", "epmo", "fdb")
RATE_MODES = ("fbl", "ibl")
FEAS_SLACK = 1e-6  # relative slack when re-checking constraint satisfaction
# the inner problem aims a hair above the probed rate so the converged SINRs
# keep real margin: without it, solver slack of ~1e-6 at a binding threshold
# flips the ceil in the blocklength bounds and spuriously rejects midpoints
RATE_PAD = 1e-4


@dataclass(frozen=True)
class SolveOptions:
    """Knobs for one Pareto-point solve."""

    rf_method: str = "epmo"
    rate_mode: str = "fbl"
    tol_bcd: float = 1e-4        # inner relative RBE tolerance
    tol_rate: float = 0.01       # outer bracket width, nats
    max_bcd: int = 50
    seed: int = 0
    # faster escalation than the module default: inside the coordinate
    # descent each RF subproblem is re-solved many times, so a steep ramp
    # with an early coarse phase wins without hurting the converged point
    epmo: PenaltyConfig = field(
        default_factory=lambda: PenaltyConfig(c=0.1, max_outer=8)
    )

    def __post_init__(self):
        if self.rf_method not in RF_METHODS:
            raise ValueError(f"rf_method must be one of {RF_METHODS}")
        if self.rate_mode not in RATE_MODES:
            raise ValueError(f"rate_mode must be one of {RATE_MODES}")
        if self.tol_bcd <= 0 or self.tol_rate <= 0:
            raise ValueError("tolerances must be positive")


@dataclass
class InnerResult:
    feasible: bool
    precoder: Optional[HybridPrecoder]
    rbe: float
    trace: List[float]
    reason: str = ""


@dataclass
class ParetoPoint:
    """One point of the error-rate region with everything that realized it."""

    feasible: bool
    rate_nats: float
    rate_bits: float
    rbe: float
    precoder: Optional[HybridPrecoder]
    beta: Optional[np.ndarray]
    scheme: str
    outer_trace: List[dict] = field(default_factory=list)
    inner_trace: List[float] = field(default_factory=list)
    bisection_iterations: int = 0
    rate_upper_init: float = 0.0


def rate_upper_bound(cfg: SystemConfig, ch: ChannelSet) -> float:
    """Sum of single-user full-power Shannon rates: provably above any
    achievable sum rate, so it seeds the bisection's upper bracket."""
    gains = np.sum(np.abs(ch.h) ** 2, axis=1)
    return float(np.sum(np.log1p(cfg.p_max * gains / cfg.noise)))


def fdb_basis(ch: ChannelSet, rs: RadarSpec) -> np.ndarray:
    """Orthonormal basis of span(channels, steering columns) for digital mode.

    h_m^H f depends only on the component of f along the vector h_m, so any
    digital precoder can be projected onto this span without changing a
    single gain while only shedding power and sensing mismatch.
    """
    stack = np.column_stack([ch.h.T, rs.f_r])
    q, _ = np.linalg.qr(stack)
    return q


def init_precoder(cfg: SystemConfig, ch: ChannelSet, rs: RadarSpec, rng: Rng,
                  rf_method: str = "epmo") -> HybridPrecoder:
    """Starting point: random RF phases, baseband fitted to the sensing
    target through them, transmit power scaled onto the budget exactly."""
    if rf_method == "fdb":
        f_rf = fdb_basis(ch, rs)
    else:
        gen = rng.generator()
        f_rf = phase_project(
            np.exp(1j * gen.uniform(-np.pi, np.pi, (cfg.n_tx, cfg.n_rf)))
        )
    u0 = np.eye(cfg.n_tar, cfg.n_cu, dtype=complex)
    f_bb = np.linalg.lstsq(f_rf, rs.f_r @ u0, rcond=None)[0]
    u = update_u(f_rf, f_bb, rs.f_r)
    f_bb = np.linalg.lstsq(f_rf, rs.f_r @ u, rcond=None)[0]
    norm = np.linalg.norm(f_rf @ f_bb)
    if norm == 0:
        f_bb = np.ones_like(f_bb)
        norm = np.linalg.norm(f_rf @ f_bb)
    f_bb = f_bb * (math.sqrt(cfg.p_max) / norm)
    return HybridPrecoder(f_rf=f_rf, f_bb=f_bb, u=u)


def _gamma_thresholds(cfg: SystemConfig, rate: float, betas: np.ndarray,
                      rate_mode: str) -> np.ndarray:
    """Per-user SINR thresholds for a candidate sum rate."""
    gammas = np.zeros(cfg.n_cu)
    for m in range(cfg.n_cu):
        target = cfg.eta[m] * rate
        if target <= 0:
            continue
        if rate_mode == "ibl":
            gammas[m] = math.exp(target) - 1.0
        else:
            gammas[m] = solve_gamma_threshold(
                target, int(betas[m]), cfg.eps[m]
            ).gamma_min
    return gammas


def _is_feasible(margins) -> bool:
    """Whether (SINR shortfalls, power excess) all sit within FEAS_SLACK."""
    shortfall, power_excess = margins
    return np.max(shortfall, initial=power_excess) <= FEAS_SLACK


def _rf_step(q: QuadraticForms, d_start: np.ndarray, opts: SolveOptions):
    """One RF-precoder update; returns the new d or None on infeasibility."""
    if opts.rf_method == "bmm":
        d_feas = d_start
        if not _is_feasible(q.constraint_margins(d_feas)):
            # the handoff must clear the majorization solver's feasibility
            # gate, so the repair is asked for a squared-hinge sum whose
            # per-constraint residuals sit safely inside it
            repair_cfg = dc_replace(
                opts.epmo,
                tol_violation=min(opts.epmo.tol_violation, (0.5 * BMM_TOL) ** 2),
            )
            repair = epmo_solve(q, d_feas, repair_cfg)
            if not repair.feasible:
                return None
            d_feas = repair.d
        try:
            result = bmm_solve(q, d_feas)
        except (InfeasibleStart, DualDivergence):
            return None
        return result.d
    result = epmo_solve(q, d_start, opts.epmo)
    if not result.feasible:
        return None
    return result.d


def inner_bcd(
    rate: float,
    cfg: SystemConfig,
    ch: ChannelSet,
    rs: RadarSpec,
    init: HybridPrecoder,
    opts: SolveOptions,
    gammas: Optional[np.ndarray] = None,
    betas: Optional[np.ndarray] = None,
) -> InnerResult:
    """Block-coordinate RBE minimization at a fixed sum rate.

    Cycles RF stage, baseband stage, auxiliary matrix. Every step is
    accepted only if it does not increase the error while staying feasible,
    so the returned trace is nonincreasing; subproblem infeasibility is a
    result, not an exception, because the outer layer consumes it as a
    bisection verdict.
    """
    if betas is None:
        betas = _even_split(cfg.frame_budget, cfg.n_cu)
    if gammas is None:
        gammas = _gamma_thresholds(cfg, rate, betas, opts.rate_mode)

    f_rf = init.f_rf.copy()
    f_bb = init.f_bb.copy()
    u = init.u.copy()
    hybrid = opts.rf_method != "fdb"
    trace: List[float] = []
    prev = np.inf

    # entry repair: a start that violates the SINR thresholds would send the
    # RF stage on a doomed penalty ramp; the cone solver restores (or
    # refutes) baseband feasibility for the incoming RF stage much faster
    if not _is_feasible(constraint_margins(f_rf @ f_bb, ch.h, gammas,
                                           cfg.noise, cfg.p_max)):
        repaired = _bb_step(f_rf, f_bb, u, ch, rs, gammas, cfg)
        if repaired is not None:
            f_bb = repaired

    for iteration in range(opts.max_bcd):
        if hybrid:
            q = build_quadratics(f_bb, u, ch, rs, gammas, cfg.noise, cfg.p_max)
            d = phase_project(q.vec(f_rf))
            d_new = _rf_step(q, d, opts)
            if d_new is None and iteration == 0:
                # last resort at entry: baseband repair again (the RF ladder
                # may have been asked for an unreachable threshold)
                rescued = _bb_step(f_rf, f_bb, u, ch, rs, gammas, cfg)
                if rescued is None:
                    return InnerResult(False, None, np.inf, trace,
                                       "RF and baseband stages both infeasible")
                f_bb = rescued
                q = build_quadratics(f_bb, u, ch, rs, gammas, cfg.noise, cfg.p_max)
                d = phase_project(q.vec(f_rf))
                d_new = _rf_step(q, d, opts)
            if d_new is None:
                return InnerResult(False, None, np.inf, trace, "RF stage infeasible")
            incoming_ok = _is_feasible(q.constraint_margins(d))
            if not incoming_ok or q.objective(d_new) <= q.objective(d):
                f_rf = q.mat(d_new)

        new_bb = _bb_step(f_rf, f_bb, u, ch, rs, gammas, cfg)
        if new_bb is None:
            return InnerResult(False, None, np.inf, trace, "baseband stage infeasible")
        f_bb = new_bb
        u = update_u(f_rf, f_bb, rs.f_r)

        error = float(np.linalg.norm(f_rf @ f_bb - rs.f_r @ u) ** 2)
        trace.append(error)
        if error < 1e-15:
            break
        if iteration > 0 and abs(error - prev) / max(error, 1e-30) <= opts.tol_bcd:
            break
        prev = error

    pc = HybridPrecoder(f_rf=f_rf, f_bb=f_bb, u=u)
    return InnerResult(True, pc, trace[-1] if trace else np.inf, trace)


def _bb_step(f_rf, f_bb, u, ch, rs, gammas, cfg):
    """Cone-program baseband update at the incumbent's rim, with monotone acceptance."""
    inst = make_socp_instance(f_rf, ch.h, rs.f_r @ u, gammas, cfg.p_max, cfg.noise)
    try:
        sol = solve_bb(inst, f_ref=f_bb)
    except InfeasibleSubproblem:
        return None
    current = float(np.linalg.norm(f_rf @ f_bb - rs.f_r @ u) ** 2)
    if sol.objective <= current or not _is_feasible(
            constraint_margins(f_rf @ f_bb, ch.h, gammas, cfg.noise, cfg.p_max)):
        return sol.f_bb
    return f_bb


def _even_split(frame: int, m: int) -> np.ndarray:
    base = frame // m
    betas = np.full(m, base, dtype=np.int64)
    betas[: frame - base * m] += 1
    return betas


def _attempt_rate(rate, cfg, ch, rs, init, opts, incumbent_beta):
    """One bisection probe: inner solve plus blocklength allocation."""
    gammas = _gamma_thresholds(cfg, rate + RATE_PAD, incumbent_beta, opts.rate_mode)
    inner = inner_bcd(rate, cfg, ch, rs, init, opts, gammas=gammas,
                      betas=incumbent_beta)
    if not inner.feasible:
        return None, inner
    pc = inner.precoder
    if inner.rbe > cfg.e_max + 1e-8:
        return None, inner
    if pc.transmit_power() > cfg.p_max * (1.0 + 1e-8):
        return None, inner
    if opts.rate_mode == "ibl":
        return (pc, incumbent_beta.copy(), inner), inner
    achieved = sinr(ch, pc, cfg.noise)
    betas = allocate_blocklengths(achieved, rate, cfg.eta, cfg.eps, cfg.frame_budget)
    if betas is None:
        return None, inner
    return (pc, betas, inner), inner


def tlbs_solve(
    cfg: SystemConfig,
    ch: ChannelSet,
    rs: RadarSpec,
    opts: SolveOptions,
    rng: Optional[Rng] = None,
) -> ParetoPoint:
    """Outer bisection on the sum rate around the inner RBE minimization.

    The bracket starts at [0, sum of single-user Shannon bounds] and halves
    a fixed number of times (ceil(log2(width/tolerance))), keeping the last
    feasible midpoint with its precoders, blocklengths, and traces. The
    SINR thresholds at each midpoint use the blocklengths of the incumbent
    feasible point (even split initially); allocation afterwards uses the
    SINRs the converged precoder actually achieves.
    """
    rng = rng or Rng(opts.seed)
    scheme = f"{'tlbs' if opts.rate_mode == 'fbl' else 'ibl'}_{opts.rf_method}"
    init = init_precoder(cfg, ch, rs, rng, opts.rf_method)

    rate_low = 0.0
    rate_upper_init = rate_upper_bound(cfg, ch)
    rate_high = rate_upper_init
    incumbent_beta = _even_split(cfg.frame_budget, cfg.n_cu)
    best = None
    best_rate = 0.0
    outer_trace: List[dict] = []

    width = rate_high - rate_low
    n_iter = max(0, math.ceil(math.log2(width / opts.tol_rate))) if width > opts.tol_rate else 0

    for k in range(n_iter):
        rate = 0.5 * (rate_low + rate_high)
        accepted, inner = _attempt_rate(rate, cfg, ch, rs, init, opts, incumbent_beta)
        if accepted is not None:
            pc, betas, inner_res = accepted
            rate_low = rate
            best = accepted
            best_rate = rate
            if opts.rate_mode == "fbl":
                incumbent_beta = betas
        else:
            rate_high = rate
        outer_trace.append({
            "iteration": k,
            "rate_nats": rate,
            "feasible": accepted is not None,
            "rbe": inner.rbe,
        })

    if best is None:
        return ParetoPoint(
            feasible=False, rate_nats=0.0, rate_bits=0.0, rbe=np.inf,
            precoder=None, beta=None, scheme=scheme, outer_trace=outer_trace,
            bisection_iterations=n_iter,
            rate_upper_init=rate_upper_init,
        )
    pc, betas, inner_res = best
    return ParetoPoint(
        feasible=True,
        rate_nats=best_rate,
        rate_bits=best_rate / NATS_PER_BIT,
        rbe=inner_res.rbe,
        precoder=pc,
        beta=np.asarray(betas),
        scheme=scheme,
        outer_trace=outer_trace,
        inner_trace=inner_res.trace,
        bisection_iterations=n_iter,
        rate_upper_init=rate_upper_init,
    )


def probe_rate(cfg, ch, rs, opts, rate, rng: Optional[Rng] = None,
               incumbent_beta: Optional[np.ndarray] = None) -> bool:
    """Re-run one bisection probe at an arbitrary rate (bracketing checks)."""
    rng = rng or Rng(opts.seed)
    init = init_precoder(cfg, ch, rs, rng, opts.rf_method)
    if incumbent_beta is None:
        incumbent_beta = _even_split(cfg.frame_budget, cfg.n_cu)
    accepted, _ = _attempt_rate(rate, cfg, ch, rs, init, opts, incumbent_beta)
    return accepted is not None


def validate_point(cfg: SystemConfig, ch: ChannelSet, rs: RadarSpec,
                   point: ParetoPoint) -> List[str]:
    """Independent recheck of every invariant a feasible point must satisfy.

    Uses only the closed-form metric evaluators, never solver state.
    Returns a list of violation descriptions (empty = clean).
    """
    failures: List[str] = []
    if not point.feasible:
        return ["point is marked infeasible"]
    pc = point.precoder
    hybrid = not point.scheme.endswith("fdb")
    if hybrid and np.max(np.abs(np.abs(pc.f_rf) - 1.0)) > 1e-10:
        failures.append("RF stage entries are not unit modulus")
    gram = pc.u @ pc.u.conj().T
    if np.max(np.abs(gram - np.eye(pc.u.shape[0]))) > 1e-10:
        failures.append("auxiliary matrix rows are not orthonormal")
    if pc.transmit_power() > cfg.p_max + 1e-8:
        failures.append(
            f"power {pc.transmit_power():.9g} exceeds budget {cfg.p_max:.9g}")
    error = rbe(pc, rs)
    if error > cfg.e_max + 1e-8:
        failures.append(f"beamforming error {error:.9g} exceeds cap {cfg.e_max:.9g}")
    if abs(error - point.rbe) > 1e-6 * max(1.0, error):
        failures.append("recorded beamforming error does not match the precoder")
    if point.beta is None or int(np.sum(point.beta)) != cfg.frame_budget:
        failures.append("blocklengths do not sum to the frame budget")
    elif np.any(np.asarray(point.beta) < 1):
        failures.append("a blocklength is below one symbol")
    if point.scheme.startswith("tlbs") and point.beta is not None:
        gam = sinr(ch, pc, cfg.noise)
        for m in range(cfg.n_cu):
            achieved = fbl_rate(float(gam[m]), int(point.beta[m]), cfg.eps[m])
            if achieved < cfg.eta[m] * point.rate_nats - 1e-6:
                failures.append(
                    f"user {m} short-packet rate {achieved:.9g} below its share "
                    f"{cfg.eta[m] * point.rate_nats:.9g}")
    return failures
