import math
import os
import subprocess
import sys

import numpy as np
import pytest

import isac_pareto
from isac_pareto import rf_epmo, tlbs
from isac_pareto.bb_solver import InfeasibleSubproblem, SolverError, solve_bb
from isac_pareto.channel import generate_channels
from isac_pareto.model import (
    HybridPrecoder,
    SystemConfig,
    constraint_margins,
    effective_sinr,
    fbl_rate,
    feasible,
    ideal_radar_precoder,
    rbe,
    sinr,
)
from isac_pareto.numerics import Rng, phase_project
from isac_pareto.quadratics import QuadraticForms
from isac_pareto.tlbs import (
    InnerResult,
    ParetoPoint,
    SolveOptions,
    inner_bcd,
    init_precoder,
    probe_rate,
    rate_upper_bound,
    tlbs_solve,
    validate_point,
)
from oracles import random_row_orthonormal


def small_cfg(**kwargs):
    defaults = dict(
        n_tx=16,
        n_rf=3,
        n_cu=2,
        n_tar=2,
        p_max=1.0,
        noise=1e-12,
        frame_budget=128,
        eps=(1e-5, 1e-5),
        eta=(0.5, 0.5),
        e_max=0.5,
        target_angles_deg=(-50.0, 10.0),
        cu_angles_deg=(30.0, 60.0),
        distances_m=(30.0, 40.0),
        shadow_std_db=0.0,
        n_clu=3,
        n_ray=4,
    )
    defaults.update(kwargs)
    return SystemConfig(**defaults)


def scenario(seed=0, **kwargs):
    cfg = small_cfg(**kwargs)
    ch = generate_channels(cfg, Rng(1234, seed))
    rs = ideal_radar_precoder(cfg.target_angles_deg, cfg.geometry, power=cfg.p_max)
    return cfg, ch, rs


def radar_fit_oracle(cfg, ch, rs, init, iters=200):
    """Unconstrained hybrid fit: alternate phase projection (no constraints),
    least squares, and the orthonormal-row update."""
    from isac_pareto.bb_solver import update_u

    f_rf, f_bb, u = init.f_rf.copy(), init.f_bb.copy(), init.u.copy()
    last = np.inf
    for _ in range(iters):
        target = rs.f_r @ u
        # unit-modulus stage by repeated projection of the least-squares fit
        for _ in range(50):
            grad_fit = (target - f_rf @ f_bb) @ f_bb.conj().T
            scale = np.linalg.norm(f_bb @ f_bb.conj().T, 2)
            f_rf = phase_project(f_rf + grad_fit / max(scale, 1e-30))
        f_bb = np.linalg.lstsq(f_rf, target, rcond=None)[0]
        u = update_u(f_rf, f_bb, rs.f_r)
        err = np.linalg.norm(f_rf @ f_bb - rs.f_r @ u) ** 2
        if abs(err - last) <= 1e-12 * max(err, 1e-30):
            break
        last = err
    return err


def _solve(seed, e_max=None, **options):
    """tlbs_solve with EPMO on scenario(seed), its cap optionally replaced."""
    cfg, ch, rs = scenario(seed=seed)
    if e_max is not None:
        cfg = cfg.with_updates(e_max=e_max)
    return tlbs_solve(cfg, ch, rs, SolveOptions(rf_method="epmo", **options))


def _bcd_at_easy_thresholds(method, seed):
    """inner_bcd at 5 nats with comfortably feasible thresholds."""
    cfg, ch, rs = scenario(seed=seed)
    init = init_precoder(cfg, ch, rs, Rng(17, seed), method)
    opts = SolveOptions(rf_method=method)
    gammas = np.full(2, 30.0)  # comfortably feasible thresholds
    return inner_bcd(5.0, cfg, ch, rs, init, opts, gammas=gammas)


# the slow solves of this module, (function, args, keyword args) in the
# order the tests read them; the `solves` fixture (conftest.py) runs them
SLOW_SOLVES = (
    [(_bcd_at_easy_thresholds, (method, seed), {})
     for method in ("epmo", "bmm") for seed in range(20)]
    + [(_solve, (3,), dict(tol_rate=0.02)), (_solve, (4,), {}), (_solve, (5,), {})]
    + [(_solve, (6,), dict(e_max=cap)) for cap in (0.05, 0.2, 0.8)]
    + [(_solve, (8,), {})]
)


class TestInitPrecoder:
    def test_invariants(self):
        cfg, ch, rs = scenario()
        pc = init_precoder(cfg, ch, rs, Rng(7), "epmo")
        assert np.max(np.abs(np.abs(pc.f_rf) - 1.0)) < 1e-12
        np.testing.assert_allclose(pc.u @ pc.u.conj().T, np.eye(cfg.n_tar), atol=1e-10)
        assert pc.transmit_power() == pytest.approx(cfg.p_max, abs=1e-10)

    def test_deterministic(self):
        cfg, ch, rs = scenario()
        a = init_precoder(cfg, ch, rs, Rng(7), "epmo")
        b = init_precoder(cfg, ch, rs, Rng(7), "epmo")
        np.testing.assert_array_equal(a.f_rf, b.f_rf)
        np.testing.assert_array_equal(a.f_bb, b.f_bb)

    def test_fdb_mode_spans_channels_and_targets(self):
        cfg, ch, rs = scenario()
        pc = init_precoder(cfg, ch, rs, Rng(7), "fdb")
        q = pc.f_rf
        np.testing.assert_allclose(q.conj().T @ q, np.eye(q.shape[1]), atol=1e-10)
        # steering columns reproduce exactly inside the span
        proj = q @ (q.conj().T @ rs.f_r)
        np.testing.assert_allclose(proj, rs.f_r, atol=1e-10)


class TestInnerBcd:
    def test_zero_rate_matches_unconstrained_fit_oracle(self):
        # budget large enough that the power cap never binds, so the
        # unconstrained alternating fit is the right comparison
        cfg, ch, rs = scenario(p_max=10.0)
        init = init_precoder(cfg, ch, rs, Rng(3), "epmo")
        opts = SolveOptions(rf_method="epmo", tol_bcd=1e-6, max_bcd=100)
        res = inner_bcd(0.0, cfg, ch, rs, init, opts, gammas=np.zeros(2))
        assert res.feasible
        want = radar_fit_oracle(cfg, ch, rs, init)
        # both are local descent methods from one start; they must agree on
        # the achievable fit quality
        assert res.rbe <= want * 1.25 + 1e-6

    def test_zero_rate_power_capped_floor(self):
        # with budget below the sensing-target energy the fit cannot get
        # closer than (sqrt(target energy) - sqrt(budget))^2
        cfg = small_cfg(p_max=1.0)
        ch = generate_channels(cfg, Rng(1234, 0))
        rs = ideal_radar_precoder(cfg.target_angles_deg, cfg.geometry, power=4.0)
        init = init_precoder(cfg, ch, rs, Rng(3), "epmo")
        opts = SolveOptions(rf_method="epmo", tol_bcd=1e-6, max_bcd=100)
        res = inner_bcd(0.0, cfg, ch, rs, init, opts, gammas=np.zeros(2))
        assert res.feasible
        floor = (np.sqrt(4.0) - np.sqrt(cfg.p_max)) ** 2
        assert res.rbe >= floor - 1e-9
        assert res.rbe <= floor * 1.2 + 1e-6

    @pytest.mark.parametrize("method", ["epmo", "bmm"])
    def test_trace_nonincreasing(self, method, solves):
        done = 0
        for seed in range(30):
            res = solves.get(_bcd_at_easy_thresholds, method, seed)
            if not res.feasible:
                continue
            trace = np.array(res.trace)
            assert np.all(np.diff(trace) <= 1e-8 * np.maximum(1.0, trace[:-1]))
            done += 1
            if done >= 20:
                break
        assert done >= 20

    def test_failed_rf_step_keeps_feasible_incumbent(self, monkeypatch):
        # an RF step that gives up leaves a feasible incoming RF stage in
        # place, and the baseband and auxiliary blocks go on descending
        def gives_up(q, d, tol_violation=rf_epmo.TOL_VIOLATION):
            return rf_epmo.EpmoResult(d=d, feasible=False)

        monkeypatch.setattr(tlbs, "epmo_solve", gives_up)
        cfg, ch, rs = scenario()
        init = init_precoder(cfg, ch, rs, Rng(5), "epmo")
        opts = SolveOptions(rf_method="epmo", max_bcd=3)
        res = inner_bcd(1.0, cfg, ch, rs, init, opts, gammas=np.full(2, 1e-3))
        assert res.feasible
        np.testing.assert_array_equal(res.precoder.f_rf, init.f_rf)
        trace = np.array(res.trace)
        assert len(trace) >= 2
        assert np.all(np.diff(trace) <= 1e-8 * np.maximum(1.0, trace[:-1]))

    def test_empty_cones_after_rf_step_keep_feasible_pair(self, monkeypatch):
        # single-user seed 103 at 5.79 nats: EPMO takes the feasible incoming
        # RF stage to an SINR shortfall inside its own tolerance but above
        # FEAS_SLACK, where the cone program has no interior; the incoming
        # pair met the shared measure, so the probe ends on it
        empty = []
        solve_bb = tlbs.solve_bb

        def recorded(*args, **kwargs):
            try:
                return solve_bb(*args, **kwargs)
            except InfeasibleSubproblem:
                empty.append(1)
                raise

        monkeypatch.setattr(tlbs, "solve_bb", recorded)
        cfg, ch, rs = scenario(
            seed=103, n_tx=2, n_rf=1, n_cu=1, n_tar=1, eps=(1e-5,), eta=(1.0,),
            e_max=1e9, target_angles_deg=(-20.0,), cu_angles_deg=(40.0,),
            distances_m=(30.0,),
        )
        init = init_precoder(cfg, ch, rs, Rng(0), "epmo")
        res = inner_bcd(5.79, cfg, ch, rs, init, SolveOptions(rf_method="epmo"))
        assert empty == [1]
        assert res.feasible
        gammas = tlbs._gamma_thresholds(cfg, 5.79, np.array([cfg.frame_budget]), "fbl")
        margins = constraint_margins(res.precoder.effective(), ch.h, gammas,
                                     cfg.noise, cfg.p_max)
        assert feasible(margins)

    def test_uncertified_baseband_solve_ends_the_loop_without_raising(self, monkeypatch):
        # a cone solve that cannot certify its point (SolverError) is no
        # baseband step, like an empty cone program: the BCD ends on its
        # feasible incumbent pair or rejects the probe, and tlbs_solve goes
        # on. In fdb mode the incumbent is the pair the entry repair (the
        # first solve) made feasible, so the loop ends after one pass
        solve_bb = tlbs.solve_bb
        cfg, ch, rs = scenario()
        for method, gamma, passes in (("epmo", 1e-3, 2), ("fdb", 30.0, 1)):
            calls = []

            def fails_second(*args, **kwargs):
                calls.append(1)
                if len(calls) == 2:
                    raise SolverError("stationarity residual above KKT_TOL")
                return solve_bb(*args, **kwargs)

            monkeypatch.setattr(tlbs, "solve_bb", fails_second)
            init = init_precoder(cfg, ch, rs, Rng(5), method)
            gammas = np.full(2, gamma)
            res = inner_bcd(1.0, cfg, ch, rs, init, SolveOptions(rf_method=method, max_bcd=3),
                            gammas=gammas)
            assert isinstance(res, InnerResult)
            assert len(calls) == 2 and res.feasible and len(res.trace) == passes
            margins = constraint_margins(res.precoder.effective(), ch.h, gammas,
                                         cfg.noise, cfg.p_max)
            assert feasible(margins)

    def test_baseband_step_replaces_an_incumbent_over_budget(self):
        # an incumbent 5e-7 over the budget (50 times CAP_RTOL) fits the 1 W
        # reference better than the cone solution, but it is not feasible,
        # so the step takes the cone solution, which the probe can accept
        cfg, ch, _ = scenario(p_max=0.05)
        rs = ideal_radar_precoder(cfg.target_angles_deg, cfg.geometry, power=1.0)
        init = init_precoder(cfg, ch, rs, Rng(0))
        gammas = np.ones(2)
        first = tlbs._bb_step(init.f_rf, init.f_bb, init.u, ch, rs, gammas, cfg)
        over = first * (1.0 + 2.5e-7)
        out = tlbs._bb_step(init.f_rf, over, init.u, ch, rs, gammas, cfg)
        assert constraint_margins(init.f_rf @ over, ch.h, gammas, cfg.noise,
                                  cfg.p_max)[1] == pytest.approx(5e-7, rel=1e-3)
        margins = constraint_margins(init.f_rf @ out, ch.h, gammas, cfg.noise, cfg.p_max)
        assert feasible(margins) and margins[1] <= 0.0

    @pytest.mark.parametrize("seed", [0, 4])
    def test_every_layer_reads_one_rbe(self, seed):
        # the RF acceptance reads QuadraticForms.objective, the trace
        # model.rbe and the baseband step solve_bb's objective: for one
        # precoder they are the same double
        cfg, ch, rs = scenario(seed=seed)
        gen = Rng(77, seed).generator()
        for _ in range(20):
            f_rf = phase_project(np.exp(1j * gen.uniform(-np.pi, np.pi, (cfg.n_tx, cfg.n_rf))))
            shape = (cfg.n_rf, cfg.n_cu)
            f_bb = gen.normal(size=shape) + 1j * gen.normal(size=shape)
            f_bb *= np.sqrt(0.5 * cfg.p_max) / np.linalg.norm(f_rf @ f_bb)
            u = random_row_orthonormal(gen, cfg.n_tar, cfg.n_cu)
            gammas = 0.5 * effective_sinr(f_rf @ f_bb, ch.h, cfg.noise)
            q = QuadraticForms(f_bb, u, ch.h, rs.f_r, gammas, cfg.noise, cfg.p_max)
            assert q.objective(q.vec(f_rf)) == rbe(HybridPrecoder(f_rf, f_bb, u), rs)
            sol = solve_bb(f_rf, ch.h, rs.f_r @ u, gammas, cfg.p_max, cfg.noise, f_ref=f_bb)
            assert sol.objective == rbe(HybridPrecoder(f_rf, sol.f_bb, u), rs)

    def test_fixed_point_rerun(self):
        cfg, ch, rs = scenario(seed=2)
        init = init_precoder(cfg, ch, rs, Rng(5), "epmo")
        opts = SolveOptions(rf_method="epmo")
        gammas = np.full(2, 10.0)
        first = inner_bcd(3.0, cfg, ch, rs, init, opts, gammas=gammas)
        assert first.feasible
        second = inner_bcd(3.0, cfg, ch, rs, first.precoder, opts, gammas=gammas)
        assert second.feasible
        rel = abs(second.rbe - first.rbe) / max(first.rbe, 1e-30)
        assert rel <= opts.tol_bcd * 10

    def test_infeasible_thresholds_reported_not_raised(self, monkeypatch):
        cfg, ch, rs = scenario()
        init = init_precoder(cfg, ch, rs, Rng(5), "epmo")
        monkeypatch.setattr(rf_epmo, "MAX_OUTER", 4)
        monkeypatch.setattr(rf_epmo, "MAX_INNER", 80)
        opts = SolveOptions(rf_method="epmo")
        gammas = np.full(2, 1e12)  # far beyond the power budget
        res = inner_bcd(20.0, cfg, ch, rs, init, opts, gammas=gammas)
        assert not res.feasible
        assert res.precoder is None

    def test_unreachable_thresholds_take_one_baseband_solve(self, monkeypatch):
        # the entry repair is the only cone program: once it has failed, an
        # RF stage that fails too ends the probe without another solve
        calls = []
        solve_bb = tlbs.solve_bb

        def counted(*args, **kwargs):
            calls.append(1)
            return solve_bb(*args, **kwargs)

        monkeypatch.setattr(tlbs, "solve_bb", counted)
        cfg, ch, rs = scenario()
        init = init_precoder(cfg, ch, rs, Rng(5), "epmo")
        monkeypatch.setattr(rf_epmo, "MAX_OUTER", 4)
        monkeypatch.setattr(rf_epmo, "MAX_INNER", 80)
        opts = SolveOptions(rf_method="epmo")
        res = inner_bcd(20.0, cfg, ch, rs, init, opts, gammas=np.full(2, 1e12))
        assert not res.feasible
        assert res.reason == "RF stage infeasible"
        assert len(calls) == 1


class TestSolveOptions:
    @pytest.mark.parametrize("fields", [
        dict(max_bcd=0),
        dict(max_bcd=-3),
        dict(seed=-1),
        dict(seed=2**64),
        dict(tol_bcd=0.0),
        dict(tol_rate=-1.0),
        dict(rf_method="sdr"),
        dict(rate_mode="shannon"),
        dict(tol_bcd=float("nan")),
        dict(tol_bcd=float("inf")),
        dict(tol_rate=float("nan")),
        dict(tol_rate=float("inf")),
        dict(max_bcd=2.5),
        dict(max_bcd=3.0),
        dict(seed=1.5),
        dict(seed=1.0),
    ])
    def test_invalid_options_rejected_when_built(self, fields):
        with pytest.raises(ValueError):
            SolveOptions(**fields)

    @pytest.mark.parametrize("fields", [dict(max_bcd=1), dict(seed=0),
                                        dict(seed=2**64 - 1),
                                        dict(max_bcd=np.int64(3), seed=np.uint64(7))])
    def test_edges_accepted(self, fields):
        SolveOptions(**fields)


def test_import_loads_no_scipy_subpackage_but_special():
    # importing the solver stack stays cheap: scipy.special alone would add
    # about 0.2 s to every fresh process, and numerics.inv_q takes the normal
    # quantile from the standard library instead, so no scipy module may load
    code = ("import sys, isac_pareto.tlbs\n"
            "for name in sorted(sys.modules):\n"
            "    if name == 'scipy' or name.startswith('scipy.'):\n"
            "        print(name)\n")
    src = os.path.dirname(os.path.dirname(isac_pareto.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == []


class TestTlbsSolve:
    def test_bisection_iteration_count_exact(self, solves):
        cfg, ch, rs = scenario(seed=3)
        opts = SolveOptions(rf_method="epmo", tol_rate=0.02)
        point = solves.get(_solve, 3, tol_rate=0.02)
        width = rate_upper_bound(cfg, ch)
        want = math.ceil(math.log2(width / opts.tol_rate))
        assert len(point.outer_trace) == want

    def test_feasible_point_invariants(self, solves):
        cfg, ch, rs = scenario(seed=4)
        point = solves.get(_solve, 4)
        assert point.feasible
        assert validate_point(cfg, ch, rs, point) == []
        assert point.rbe <= cfg.e_max + 1e-8
        assert point.beta.sum() == cfg.frame_budget
        gam = sinr(ch, point.precoder, cfg.noise)
        for m in range(cfg.n_cu):
            assert fbl_rate(float(gam[m]), int(point.beta[m]), cfg.eps[m]) >= (
                cfg.eta[m] * point.rate_nats - 1e-6
            )

    def test_bracketing_certificate(self, solves):
        cfg, ch, rs = scenario(seed=5)
        opts = SolveOptions(rf_method="epmo")
        point = solves.get(_solve, 5)
        assert point.feasible
        # one tolerance above the returned rate must be infeasible through
        # the same pipeline (cold start, final incumbent blocklengths)
        init = init_precoder(cfg, ch, rs, Rng(opts.seed), opts.rf_method)
        betas, _ = probe_rate(point.rate_nats + opts.tol_rate, cfg, ch, rs, init,
                              opts, point.beta)
        assert betas is None

    def test_rate_nondecreasing_in_error_cap(self, solves):
        rates = []
        for cap in (0.05, 0.2, 0.8):
            point = solves.get(_solve, 6, e_max=cap)
            rates.append(point.rate_nats if point.feasible else 0.0)
        assert rates[0] <= rates[1] + 1e-9 and rates[1] <= rates[2] + 1e-9

    def test_infeasible_cap_returns_infeasible_point(self, monkeypatch):
        cfg, ch, rs = scenario(seed=7, e_max=1e-12, p_max=1e-8)
        monkeypatch.setattr(rf_epmo, "MAX_OUTER", 4)
        monkeypatch.setattr(rf_epmo, "MAX_INNER", 60)
        opts = SolveOptions(rf_method="epmo")
        point = tlbs_solve(cfg, ch, rs, opts)
        assert not point.feasible
        assert point.precoder is None

    def test_brute_force_single_user(self):
        # one RF chain, one user, two antennas: sweep the single free phase
        done = 0
        for seed in range(12):
            cfg, ch, rs = scenario(
                seed=100 + seed, n_tx=2, n_rf=1, n_cu=1, n_tar=1,
                eps=(1e-5,), eta=(1.0,), e_max=1e9,
                target_angles_deg=(-20.0,), cu_angles_deg=(40.0,),
                distances_m=(30.0,), frame_budget=128,
            )
            opts = SolveOptions(rf_method="epmo", tol_rate=0.005)
            point = tlbs_solve(cfg, ch, rs, opts)
            assert point.feasible
            h = ch.h[0]
            best = 0.0
            for phi in np.deg2rad(np.arange(0.0, 360.0, 1.0)):
                f_rf = np.array([[1.0], [np.exp(1j * phi)]])
                gain = abs(h.conj() @ f_rf[:, 0]) ** 2
                gamma = gain * cfg.p_max / 2.0 / cfg.noise
                best = max(best, fbl_rate(gamma, cfg.frame_budget, cfg.eps[0]))
            # grid curvature error is tiny; the dominant slack is tol_rate
            assert point.rate_nats <= best + opts.tol_rate + 1e-3
            assert point.rate_nats >= best - opts.tol_rate - 1e-3
            done += 1
            if done >= 5:
                break
        assert done >= 5


class TestInfiniteBlocklength:
    def test_ibl_point_meets_shannon_shares(self):
        # the paper's infinite-blocklength benchmark: thresholds come from
        # ln(1 + SINR_m) >= eta_m * rate, with the even blocklength split
        cfg, ch, rs = scenario(seed=4)
        opts = SolveOptions(rf_method="fdb", rate_mode="ibl", tol_rate=0.05, max_bcd=10)
        point = tlbs_solve(cfg, ch, rs, opts)
        assert point.feasible
        assert point.scheme == "ibl_fdb"
        assert validate_point(cfg, ch, rs, point) == []
        gam = sinr(ch, point.precoder, cfg.noise)
        for m in range(cfg.n_cu):
            assert math.log1p(gam[m]) >= cfg.eta[m] * point.rate_nats
        # validate_point checks the Shannon shares itself
        point.rate_nats += 5.0
        failures = validate_point(cfg, ch, rs, point)
        assert len(failures) == cfg.n_cu
        assert all("Shannon rate" in f for f in failures)


class TestValidatePoint:
    def test_detects_tampering(self, solves):
        cfg, ch, rs = scenario(seed=8)
        point = solves.get(_solve, 8)
        assert point.feasible and validate_point(cfg, ch, rs, point) == []
        point.precoder.f_bb *= 3.0  # breaks power and the recorded error
        assert validate_point(cfg, ch, rs, point) != []
