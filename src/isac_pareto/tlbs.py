"""Two-layer search for Pareto points of the sensing-rate trade-off.

The inner layer holds the sum rate fixed, converts it to per-user SINR
thresholds, and minimizes the radar beamforming error by block-coordinate
descent over the RF stage (majorization-minimization or penalty manifold
descent), the baseband stage (cone program), and the auxiliary matrix
(closed-form Procrustes). The outer layer bisects on the sum rate. A
midpoint is feasible when the error that BCD reaches when it stops, on the
relative tolerance tol_bcd or on the cap max_bcd, fits under the sensing
cap, the power budget holds, and an integer blocklength split exists for
the achieved SINRs; the bracket then tightens until its width reaches the
rate tolerance.

A fully digital mode ("fdb") replaces the hybrid factorization with one
unconstrained precoder. Any optimal digital precoder lies in the span of
the user channels and the sensing steering columns (components orthogonal
to both only spend power), so the digital stage is solved exactly in that
subspace, with the orthonormal basis standing in for the RF matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .bb_solver import InfeasibleSubproblem, SolverError, solve_bb, update_u
from .channel import ChannelSet
from .fbl import allocate_blocklengths, solve_gamma_threshold
from .model import (
    FEAS_SLACK,
    NATS_PER_BIT,
    HybridPrecoder,
    RadarSpec,
    SystemConfig,
    constraint_margins,
    fbl_rate,
    feasible,
    power,
    rbe,
    shannon_rate,
    sinr,
    within_cap,
)
from .numerics import Rng, phase_project
from .quadratics import QuadraticForms
from .rf_bmm import DualDivergence, InfeasibleStart, bmm_solve
from .rf_epmo import epmo_solve, fit_rf_stage

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

    def __post_init__(self):
        if self.rf_method not in RF_METHODS:
            raise ValueError(f"rf_method must be one of {RF_METHODS}")
        if self.rate_mode not in RATE_MODES:
            raise ValueError(f"rate_mode must be one of {RATE_MODES}")
        if not (0 < self.tol_bcd < math.inf and 0 < self.tol_rate < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if not isinstance(self.max_bcd, (int, np.integer)) or self.max_bcd < 1:
            raise ValueError("max_bcd must be an integer of at least 1")
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an integer that fits in 64 bits")


@dataclass
class InnerResult:
    feasible: bool
    precoder: Optional[HybridPrecoder]
    rbe: float
    trace: List[float]
    reason: str = ""


@dataclass
class ParetoPoint:
    """One point of the error-rate region with everything that realized it.

    The fields belong to the last accepted probe, and outer_trace has one
    dict per probe (iteration, rate_nats, feasible, rbe). Without an
    accepted probe the point is infeasible at rate 0 with rbe inf.
    """

    feasible: bool
    rate_nats: float
    rate_bits: float
    rbe: float
    precoder: Optional[HybridPrecoder]
    beta: Optional[np.ndarray]
    scheme: str
    outer_trace: List[dict] = field(default_factory=list)


def rate_upper_bound(cfg: SystemConfig, ch: ChannelSet) -> float:
    """Sum of single-user full-power Shannon rates: provably above any
    achievable sum rate, so it seeds the bisection's upper bracket."""
    gains = np.sum(np.abs(ch.h) ** 2, axis=1)
    return float(np.sum(shannon_rate(cfg.p_max * gains / cfg.noise)))


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
            gammas[m] = solve_gamma_threshold(target, int(betas[m]), cfg.eps[m])
    return gammas


def _rf_step(q: QuadraticForms, d_start: np.ndarray, opts: SolveOptions):
    """One RF-precoder update; returns the new d or None on infeasibility."""
    if opts.rf_method == "bmm":
        d_feas = d_start
        if not feasible(q.constraint_margins(d_feas)):
            # the handoff must clear the majorization solver's feasibility
            # gate, so the repair is asked for a squared-hinge sum whose
            # per-constraint residuals sit safely inside it
            repair = epmo_solve(q, d_feas, tol_violation=(0.5 * FEAS_SLACK) ** 2)
            if not repair.feasible:
                return None
            d_feas = repair.d
        try:
            result = bmm_solve(q, d_feas)
        except (InfeasibleStart, DualDivergence):
            return None
        return result.d
    result = epmo_solve(q, d_start)
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
) -> InnerResult:
    """Block-coordinate RBE minimization at a fixed sum rate.

    Cycles RF stage, baseband stage, auxiliary matrix. Every step is
    accepted only if it does not increase the error while staying feasible,
    so the returned trace is nonincreasing; subproblem infeasibility is a
    result, not an exception, because the outer layer consumes it as a
    bisection verdict. The thresholds default to an even blocklength split.

    The loop carries one verdict, whether the incumbent (F_rf, F_bb) pair is
    `model.feasible`: measured at entry, and true after every baseband step
    that succeeds (the cone solver returns only feasible points). An RF step
    may leave the SINR cones a hair short (EPMO's verdict is looser than
    FEAS_SLACK), and the cone program is then empty. If the incumbent pair
    is feasible, the loop ends on it instead of rejecting the probe;
    otherwise the probe is rejected.

    With no SINR threshold and a sensing reference within the budget, the
    cone program's optimum at any RF stage is the least-squares baseband,
    whose power ||P F_r U||^2 is at most ||F_r||^2 (P the projector onto
    the RF columns, U row-orthonormal). The RF step then descends the fit
    with the baseband eliminated (`rf_epmo.fit_rf_stage`) instead of the
    fit at the incumbent baseband, which alternating blocks approach only
    a few percent per pass.
    """
    if gammas is None:
        gammas = _gamma_thresholds(cfg, rate, _even_split(cfg.frame_budget, cfg.n_cu),
                                   opts.rate_mode)

    f_rf = init.f_rf.copy()
    f_bb = init.f_bb.copy()
    u = init.u.copy()
    hybrid = opts.rf_method != "fdb"
    eliminated = (hybrid and not np.any(gammas > 0)
                  and within_cap(power(rs.f_r), cfg.p_max))
    trace: List[float] = []
    prev = np.inf

    # entry repair: a start that violates the SINR thresholds would send the
    # RF stage on a doomed penalty ramp; the cone solver restores (or
    # refutes) baseband feasibility for the incoming RF stage much faster
    pair_ok = feasible(constraint_margins(f_rf @ f_bb, ch.h, gammas, cfg.noise, cfg.p_max))
    if not pair_ok:
        repaired = _bb_step(f_rf, f_bb, u, ch, rs, gammas, cfg)
        if repaired is not None:
            f_bb, pair_ok = repaired, True

    for iteration in range(opts.max_bcd):
        f_rf_in = f_rf
        if eliminated:
            f_rf = fit_rf_stage(f_rf, rs.f_r)
        elif hybrid:
            q = QuadraticForms(f_bb, u, ch.h, rs.f_r, gammas, cfg.noise, cfg.p_max)
            d = phase_project(q.vec(f_rf))
            d_new = _rf_step(q, d, opts)
            if d_new is None:
                # a feasible incumbent stage stays
                if not pair_ok:
                    return InnerResult(False, None, np.inf, trace, "RF stage infeasible")
            elif not pair_ok or q.objective(d_new) <= q.objective(d):
                f_rf = q.mat(d_new)

        new_bb = _bb_step(f_rf, f_bb, u, ch, rs, gammas, cfg)
        if new_bb is not None:
            f_bb, pair_ok = new_bb, True
        elif pair_ok:
            f_rf = f_rf_in  # no new baseband: end on the feasible incumbent
        else:
            return InnerResult(False, None, np.inf, trace, "baseband stage infeasible")
        u = update_u(f_rf, f_bb, rs.f_r)

        pc = HybridPrecoder(f_rf=f_rf, f_bb=f_bb, u=u)
        error = rbe(pc, rs)
        trace.append(error)
        if new_bb is None or error < 1e-15:
            break
        if iteration > 0 and abs(error - prev) / max(error, 1e-30) <= opts.tol_bcd:
            break
        prev = error

    return InnerResult(True, pc, trace[-1], trace)


def _bb_step(f_rf, f_bb, u, ch, rs, gammas, cfg):
    """Cone-program baseband update at the incumbent's rim, with monotone acceptance.

    Returns None when the cones are empty, and also when the solver cannot
    certify its point (SolverError): either way the BCD has no new baseband
    to take, and ends on its feasible incumbent or rejects the probe.
    """
    try:
        sol = solve_bb(f_rf, ch.h, rs.f_r @ u, gammas, cfg.p_max, cfg.noise, f_ref=f_bb)
    except (InfeasibleSubproblem, SolverError):
        return None
    current = rbe(HybridPrecoder(f_rf=f_rf, f_bb=f_bb, u=u), rs)
    if sol.objective <= current or not feasible(
            constraint_margins(f_rf @ f_bb, ch.h, gammas, cfg.noise, cfg.p_max)):
        return sol.f_bb
    return f_bb


def _even_split(frame: int, m: int) -> np.ndarray:
    base = frame // m
    betas = np.full(m, base, dtype=np.int64)
    betas[: frame - base * m] += 1
    return betas


def probe_rate(rate, cfg, ch, rs, init, opts, incumbent_beta):
    """One bisection probe from the start `init`, with SINR thresholds set by
    the split `incumbent_beta`: (blocklength split, or None if rejected;
    inner result)."""
    gammas = _gamma_thresholds(cfg, rate + RATE_PAD, incumbent_beta, opts.rate_mode)
    inner = inner_bcd(rate, cfg, ch, rs, init, opts, gammas=gammas)
    if not inner.feasible:
        return None, inner
    pc = inner.precoder
    if not (within_cap(inner.rbe, cfg.e_max)
            and within_cap(pc.transmit_power(), cfg.p_max)):
        return None, inner
    if opts.rate_mode == "ibl":
        return incumbent_beta.copy(), inner
    achieved = sinr(ch, pc, cfg.noise)
    return allocate_blocklengths(achieved, rate, cfg.eta, cfg.eps, cfg.frame_budget), inner


def tlbs_solve(
    cfg: SystemConfig,
    ch: ChannelSet,
    rs: RadarSpec,
    opts: SolveOptions,
) -> ParetoPoint:
    """Outer bisection on the sum rate around the inner RBE minimization.

    The bracket starts at [0, sum of single-user Shannon bounds] and halves
    a fixed number of times (ceil(log2(width/tolerance))), keeping the last
    feasible midpoint with its precoder and blocklengths. The SINR
    thresholds at each midpoint use the blocklengths of the incumbent
    feasible point (even split initially); allocation afterwards uses the
    SINRs the converged precoder actually achieves.
    """
    scheme = f"{'tlbs' if opts.rate_mode == 'fbl' else 'ibl'}_{opts.rf_method}"
    init = init_precoder(cfg, ch, rs, Rng(opts.seed), opts.rf_method)

    rate_low = 0.0
    rate_high = rate_upper_bound(cfg, ch)
    incumbent_beta = _even_split(cfg.frame_budget, cfg.n_cu)
    best = None   # (rate, betas, inner) of the last accepted probe
    outer_trace: List[dict] = []

    width = rate_high - rate_low
    n_iter = max(0, math.ceil(math.log2(width / opts.tol_rate))) if width > opts.tol_rate else 0

    for k in range(n_iter):
        rate = 0.5 * (rate_low + rate_high)
        betas, inner = probe_rate(rate, cfg, ch, rs, init, opts, incumbent_beta)
        if betas is not None:
            rate_low = rate
            incumbent_beta = betas
            best = (rate, betas, inner)
        else:
            rate_high = rate
        outer_trace.append({
            "iteration": k,
            "rate_nats": rate,
            "feasible": betas is not None,
            "rbe": inner.rbe,
        })

    if best is None:
        return ParetoPoint(
            feasible=False, rate_nats=0.0, rate_bits=0.0, rbe=np.inf,
            precoder=None, beta=None, scheme=scheme, outer_trace=outer_trace,
        )
    rate, betas, inner = best
    return ParetoPoint(
        feasible=True,
        rate_nats=rate,
        rate_bits=rate / NATS_PER_BIT,
        rbe=inner.rbe,
        precoder=inner.precoder,
        beta=np.asarray(betas),
        scheme=scheme,
        outer_trace=outer_trace,
    )


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
    if hybrid and not np.max(np.abs(np.abs(pc.f_rf) - 1.0)) <= 1e-10:
        failures.append("RF stage entries are not unit modulus")
    gram = pc.u @ pc.u.conj().T
    if not np.max(np.abs(gram - np.eye(pc.u.shape[0]))) <= 1e-10:
        failures.append("auxiliary matrix rows are not orthonormal")
    if not within_cap(pc.transmit_power(), cfg.p_max):
        failures.append(
            f"power {pc.transmit_power():.9g} exceeds budget {cfg.p_max:.9g}")
    error = rbe(pc, rs)
    if not within_cap(error, cfg.e_max):
        failures.append(f"beamforming error {error:.9g} exceeds cap {cfg.e_max:.9g}")
    if not abs(error - point.rbe) <= 1e-6 * max(1.0, error):
        failures.append("recorded beamforming error does not match the precoder")
    if point.beta is None or int(np.sum(point.beta)) != cfg.frame_budget:
        failures.append("blocklengths do not sum to the frame budget")
    elif np.any(np.asarray(point.beta) < 1):
        failures.append("a blocklength is below one symbol")
    ibl = point.scheme.startswith("ibl")
    if ibl or point.beta is not None:
        gam = sinr(ch, pc, cfg.noise)
        for m in range(cfg.n_cu):
            achieved = (float(shannon_rate(gam[m])) if ibl else
                        fbl_rate(float(gam[m]), int(point.beta[m]), cfg.eps[m]))
            if not achieved >= cfg.eta[m] * point.rate_nats - 1e-6:
                kind = "Shannon" if ibl else "short-packet"
                failures.append(f"user {m} {kind} rate {achieved:.9g} below its "
                                f"share {cfg.eta[m] * point.rate_nats:.9g}")
    return failures
