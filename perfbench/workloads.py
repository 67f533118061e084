"""The benchmark's workloads: fixed scenarios and one solve per operation.

A workload is a list of cases. Each case names a scenario (configuration
and channel stream) and one solve on it: a Pareto point from `tlbs_solve`
or, when a rate is given, one RBE minimisation at that rate from
`inner_bcd`. One round of a workload runs every case once.

The scenarios do not depend on the seed. Measured on these scenarios,
redrawing the channel or the random RF start moves one solve's time by up
to 2x and the fixed-rate RBE by up to 3x, which would put the run-to-run
spread of every end-to-end metric far beyond any useful bound; and the
failures of `single-user-brute` must not depend on the seed at all. The
seed therefore only sets the order in which a round runs its cases.

The solver calls go through module attributes (`tlbs.tlbs_solve`,
`channel.generate_channels`) so that the traced run can wrap them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from isac_pareto import channel, tlbs
from isac_pareto.channel import ChannelSet
from isac_pareto.model import (HybridPrecoder, RadarSpec, SystemConfig,
                               ideal_radar_precoder)
from isac_pareto.numerics import Rng
from isac_pareto.tlbs import SolveOptions

from checks import Point

# The scenario of tests/test_tlbs.py: 16 antennas, 3 RF chains, 2 users and
# 2 targets at fixed distances without shadowing.
SMALL = SystemConfig(
    n_tx=16, n_rf=3, n_cu=2, n_tar=2, p_max=1.0, noise=1e-12,
    frame_budget=128, eps=(1e-5, 1e-5), eta=(0.5, 0.5), e_max=0.5,
    target_angles_deg=(-50.0, 10.0), cu_angles_deg=(30.0, 60.0),
    distances_m=(30.0, 40.0), shadow_std_db=0.0, n_clu=3, n_ray=4,
)
# test_brute_force_single_user: two antennas, one RF chain, one user
SINGLE = SMALL.with_updates(
    n_tx=2, n_rf=1, n_cu=1, n_tar=1, eps=(1e-5,), eta=(1.0,), e_max=1e9,
    target_angles_deg=(-20.0,), cu_angles_deg=(40.0,), distances_m=(30.0,),
)
# paper scale: the SystemConfig defaults (128 antennas, 4 RF chains)
PAPER = SystemConfig()

# channel streams of the test scenarios are Rng(1234, seed)
TEST_KEY = 1234
# the bisection stops at 1 nat instead of 0.01, and BCD at 5 or 10 steps
# instead of 50, so that one round takes seconds rather than minutes
HYBRID_OPTS = SolveOptions(rf_method="epmo", tol_rate=1.0, max_bcd=5)
DIGITAL_OPTS = SolveOptions(rf_method="fdb", tol_rate=1.0, max_bcd=10)
BRUTE_OPTS = SolveOptions(rf_method="epmo", tol_rate=0.005)
BMM_OPTS = SolveOptions(rf_method="bmm", max_bcd=3)


@dataclass(frozen=True)
class Case:
    label: str
    cfg: SystemConfig
    channel_key: Tuple[int, int]
    opts: SolveOptions
    rate: Optional[float] = None           # fixed-rate solve when set
    init_key: Optional[Tuple[int, int]] = None


@dataclass
class Scenario:
    ch: ChannelSet
    rs: RadarSpec
    init: Optional[HybridPrecoder] = None    # start of a fixed-rate solve


def _cases() -> Dict[str, List[Case]]:
    hybrid = [Case("seed4", SMALL, (TEST_KEY, 4), HYBRID_OPTS)]
    bmm = [Case(f"ch{k}-rate{rate:g}", PAPER, (1, k), BMM_OPTS, rate=rate,
                init_key=(2, k))
           for k in (0, 1) for rate in (3.0, 5.0)]
    digital = [Case(f"cap{cap:g}", SMALL.with_updates(e_max=cap), (TEST_KEY, 6),
                    DIGITAL_OPTS)
               for cap in (0.05, 0.2, 0.8)]
    brute = [Case(f"seed{s}", SINGLE, (TEST_KEY, s), BRUTE_OPTS)
             for s in range(100, 140)]
    return {
        "hybrid-epmo-point": hybrid,
        "paper-bmm-fixed-rate": bmm,
        "digital-emax-sweep": digital,
        "single-user-brute": brute,
    }


WORKLOADS = _cases()


def ordered_cases(workload: str, seed: int) -> List[Case]:
    """The workload's cases in the order the seed sets."""
    cases = list(WORKLOADS[workload])
    random.Random(seed).shuffle(cases)
    return cases


def build(case: Case) -> Scenario:
    """Channel draw, radar reference and, for fixed-rate solves, the start."""
    cfg = case.cfg
    ch = channel.generate_channels(cfg, Rng(*case.channel_key))
    rs = ideal_radar_precoder(cfg.target_angles_deg, cfg.geometry, power=cfg.p_max)
    init = None
    if case.rate is not None:
        init = tlbs.init_precoder(cfg, ch, rs, Rng(*case.init_key),
                                  case.opts.rf_method)
    return Scenario(ch=ch, rs=rs, init=init)


def even_split(frame: int, users: int) -> np.ndarray:
    betas = np.full(users, frame // users, dtype=np.int64)
    betas[: frame - int(betas.sum())] += 1
    return betas


@dataclass
class Outcome:
    point: Point
    probes: Tuple[bool, ...]     # bisection verdicts; one entry for fixed rate


def _point(feasible, rate, rbe, pc, beta) -> Point:
    if pc is None:
        return Point(feasible, rate, rbe, None, None, None, beta)
    return Point(feasible, rate, rbe, pc.f_rf, pc.f_bb, pc.u, beta)


def solve(case: Case, scn: Scenario) -> Outcome:
    cfg = case.cfg
    if case.rate is None:
        res = tlbs.tlbs_solve(cfg, scn.ch, scn.rs, case.opts)
        return Outcome(_point(res.feasible, res.rate_nats, res.rbe, res.precoder,
                              res.beta),
                       tuple(bool(o["feasible"]) for o in res.outer_trace))
    res = tlbs.inner_bcd(case.rate, cfg, scn.ch, scn.rs, scn.init, case.opts)
    return Outcome(_point(res.feasible, case.rate, res.rbe, res.precoder,
                          even_split(cfg.frame_budget, cfg.n_cu)),
                   (res.feasible,))
