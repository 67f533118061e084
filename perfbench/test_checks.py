"""Tests of the benchmark's own output checks.

    python3 -m pytest -q perfbench/test_checks.py
"""

import copy

import numpy as np
import pytest

from run import import_package

import_package()

import checks  # noqa: E402
import workloads  # noqa: E402


def solved(label, workload):
    case = next(c for c in workloads.WORKLOADS[workload] if c.label == label)
    scn = workloads.build(case)
    return case, scn, workloads.solve(case, scn).point


@pytest.fixture(scope="module")
def brute_point():
    # seed 103 is the single-user scenario whose point falls short
    return solved("seed103", "single-user-brute")


@pytest.fixture(scope="module")
def fixed_rate_point():
    small = workloads.Case("small", workloads.SMALL, (workloads.TEST_KEY, 2),
                           workloads.SolveOptions(rf_method="epmo", max_bcd=2),
                           rate=3.0, init_key=(5, 0))
    scn = workloads.build(small)
    return small, scn, workloads.solve(small, scn).point


def violations(case, scn, point):
    return checks.check_point(case.cfg, scn.ch.h, scn.rs.f_r, point,
                              hybrid=case.opts.rf_method != "fdb",
                              fixed_rate=case.rate is not None)


def test_inv_q_reference_values():
    assert checks.inv_q(1e-5) == pytest.approx(4.264890793922825, abs=1e-9)
    assert checks.inv_q(0.5) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("target", [0.5, 2.5, 7.0])
def test_gamma_threshold_inverts_the_rate(target):
    gamma = checks.gamma_threshold(target, 64, 1e-5)
    assert checks.short_packet_rate(gamma, 64, 1e-5) == pytest.approx(target, abs=1e-9)
    assert checks.short_packet_rate(gamma * (1 - 1e-6), 64, 1e-5) < target


@pytest.mark.parametrize("stream", [100, 103, 117])
def test_closed_form_matches_phase_grid(stream):
    case = next(c for c in workloads.WORKLOADS["single-user-brute"]
                if c.label == f"seed{stream}")
    cfg, h = case.cfg, workloads.build(case).ch.h[0]
    phases = np.deg2rad(np.arange(0.0, 360.0, 0.01))
    gains = np.abs(h[0].conj() + h[1].conj() * np.exp(1j * phases)) ** 2
    gamma = gains.max() * cfg.p_max / 2.0 / cfg.noise
    grid_best = checks.short_packet_rate(gamma, cfg.frame_budget, cfg.eps[0])
    best = checks.single_user_optimum(h, cfg.p_max, cfg.noise, cfg.frame_budget,
                                      cfg.eps[0])
    assert best >= grid_best
    assert best - grid_best < 1e-6


def test_returned_points_pass(brute_point, fixed_rate_point):
    assert violations(*brute_point) == []
    assert violations(*fixed_rate_point) == []


@pytest.mark.parametrize("tamper, expect", [
    (lambda p: setattr(p, "f_bb", p.f_bb * 3.0), "exceeds"),
    (lambda p: setattr(p, "rbe", p.rbe * 1.01 + 1e-3), "reported RBE"),
    (lambda p: p.f_rf.__setitem__((0, 0), 1.1 * p.f_rf[0, 0]), "unit modulus"),
    (lambda p: setattr(p, "u", 1.01 * p.u), "orthonormal"),
    (lambda p: setattr(p, "beta", p.beta + 1), "do not split"),
    (lambda p: setattr(p, "rate", p.rate + 4.0), "below its share"),
    (lambda p: setattr(p, "feasible", False), "no feasible point"),
])
def test_tampered_point_is_rejected(brute_point, tamper, expect):
    case, scn, point = brute_point
    bad = copy.deepcopy(point)
    tamper(bad)
    assert any(expect in msg for msg in violations(case, scn, bad))


def test_fixed_rate_sinr_threshold_enforced(fixed_rate_point):
    case, scn, point = fixed_rate_point
    bad = copy.deepcopy(point)
    bad.rate += 0.2
    assert any("below threshold" in msg for msg in violations(case, scn, bad))


def test_rbe_cap_enforced(fixed_rate_point):
    case, scn, point = fixed_rate_point
    tight = case.cfg.with_updates(e_max=0.5 * point.rbe)
    msgs = checks.check_point(tight, scn.ch.h, scn.rs.f_r, point,
                              hybrid=True, fixed_rate=True)
    assert any("exceeds the cap" in msg for msg in msgs)


def test_shannon_bound_enforced(brute_point):
    case, scn, point = brute_point
    bad = copy.deepcopy(point)
    bound = checks.shannon_sum_bound(scn.ch.h, case.cfg.p_max, case.cfg.noise)
    bad.rate = bound + 1.0
    assert any("Shannon bound" in msg for msg in violations(case, scn, bad))


def test_single_user_optimum_verdicts(brute_point):
    case, scn, point = brute_point
    cfg, tol = case.cfg, case.opts.tol_rate
    assert checks.check_single_user(cfg, scn.ch.h, point, tol) == ([], True)
    best = checks.single_user_optimum(scn.ch.h, cfg.p_max, cfg.noise,
                                      cfg.frame_budget, cfg.eps[0])
    at_best = copy.deepcopy(point)
    at_best.rate = best - tol
    assert checks.check_single_user(cfg, scn.ch.h, at_best, tol) == ([], False)
    above = copy.deepcopy(point)
    above.rate = best + 2 * tol
    msgs, _ = checks.check_single_user(cfg, scn.ch.h, above, tol)
    assert any("above the optimum" in msg for msg in msgs)
