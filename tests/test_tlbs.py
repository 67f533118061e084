import math

import numpy as np
import pytest

from isac_pareto.channel import generate_channels
from isac_pareto.fbl import solve_gamma_threshold
from isac_pareto.model import SystemConfig, fbl_rate, ideal_radar_precoder, rbe, sinr
from isac_pareto.numerics import Rng, phase_project
from isac_pareto.tlbs import (
    ParetoPoint,
    SolveOptions,
    inner_bcd,
    init_precoder,
    probe_rate,
    rate_upper_bound,
    tlbs_solve,
    validate_point,
)


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
        res = inner_bcd(0.0, cfg, ch, rs, init, opts,
                        gammas=np.zeros(2), betas=np.array([64, 64]))
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
        res = inner_bcd(0.0, cfg, ch, rs, init, opts,
                        gammas=np.zeros(2), betas=np.array([64, 64]))
        assert res.feasible
        floor = (np.sqrt(4.0) - np.sqrt(cfg.p_max)) ** 2
        assert res.rbe >= floor - 1e-9
        assert res.rbe <= floor * 1.2 + 1e-6

    @pytest.mark.parametrize("method", ["epmo", "bmm"])
    def test_trace_nonincreasing(self, method):
        done = 0
        for seed in range(30):
            cfg, ch, rs = scenario(seed=seed)
            init = init_precoder(cfg, ch, rs, Rng(17, seed), method)
            opts = SolveOptions(rf_method=method)
            gammas = np.full(2, 30.0)  # comfortably feasible thresholds
            res = inner_bcd(5.0, cfg, ch, rs, init, opts,
                            gammas=gammas, betas=np.array([64, 64]))
            if not res.feasible:
                continue
            trace = np.array(res.trace)
            assert np.all(np.diff(trace) <= 1e-8 * np.maximum(1.0, trace[:-1]))
            done += 1
            if done >= 20:
                break
        assert done >= 20

    def test_fixed_point_rerun(self):
        cfg, ch, rs = scenario(seed=2)
        init = init_precoder(cfg, ch, rs, Rng(5), "epmo")
        opts = SolveOptions(rf_method="epmo")
        gammas = np.full(2, 10.0)
        first = inner_bcd(3.0, cfg, ch, rs, init, opts,
                          gammas=gammas, betas=np.array([64, 64]))
        assert first.feasible
        second = inner_bcd(3.0, cfg, ch, rs, first.precoder, opts,
                           gammas=gammas, betas=np.array([64, 64]))
        assert second.feasible
        rel = abs(second.rbe - first.rbe) / max(first.rbe, 1e-30)
        assert rel <= opts.tol_bcd * 10

    def test_infeasible_thresholds_reported_not_raised(self):
        cfg, ch, rs = scenario()
        init = init_precoder(cfg, ch, rs, Rng(5), "epmo")
        opts = SolveOptions(rf_method="epmo",
                            epmo=SolveOptions().epmo.__class__(max_outer=4, max_inner=80))
        gammas = np.full(2, 1e12)  # far beyond the power budget
        res = inner_bcd(20.0, cfg, ch, rs, init, opts,
                        gammas=gammas, betas=np.array([64, 64]))
        assert not res.feasible
        assert res.precoder is None


class TestTlbsSolve:
    def test_bisection_iteration_count_exact(self):
        cfg, ch, rs = scenario(seed=3)
        opts = SolveOptions(rf_method="epmo", tol_rate=0.02)
        point = tlbs_solve(cfg, ch, rs, opts)
        width = point.rate_upper_init
        want = math.ceil(math.log2(width / opts.tol_rate))
        assert point.bisection_iterations == want
        assert len(point.outer_trace) == want

    def test_feasible_point_invariants(self):
        cfg, ch, rs = scenario(seed=4)
        opts = SolveOptions(rf_method="epmo")
        point = tlbs_solve(cfg, ch, rs, opts)
        assert point.feasible
        assert validate_point(cfg, ch, rs, point) == []
        assert point.rbe <= cfg.e_max + 1e-8
        assert point.beta.sum() == cfg.frame_budget
        gam = sinr(ch, point.precoder, cfg.noise)
        for m in range(cfg.n_cu):
            assert fbl_rate(float(gam[m]), int(point.beta[m]), cfg.eps[m]) >= (
                cfg.eta[m] * point.rate_nats - 1e-6
            )

    def test_bracketing_certificate(self):
        cfg, ch, rs = scenario(seed=5)
        opts = SolveOptions(rf_method="epmo")
        point = tlbs_solve(cfg, ch, rs, opts)
        assert point.feasible
        # one tolerance above the returned rate must be infeasible through
        # the same pipeline (with the final incumbent blocklengths)
        assert not probe_rate(cfg, ch, rs, opts, point.rate_nats + opts.tol_rate,
                              incumbent_beta=point.beta)

    def test_rate_nondecreasing_in_error_cap(self):
        cfg, ch, rs = scenario(seed=6)
        rates = []
        for cap in (0.05, 0.2, 0.8):
            opts = SolveOptions(rf_method="epmo")
            point = tlbs_solve(cfg.with_updates(e_max=cap), ch, rs, opts)
            rates.append(point.rate_nats if point.feasible else 0.0)
        assert rates[0] <= rates[1] + 1e-9 and rates[1] <= rates[2] + 1e-9

    def test_infeasible_cap_returns_infeasible_point(self):
        cfg, ch, rs = scenario(seed=7, e_max=1e-12, p_max=1e-8)
        opts = SolveOptions(
            rf_method="epmo",
            epmo=SolveOptions().epmo.__class__(max_outer=4, max_inner=60),
        )
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


class TestValidatePoint:
    def test_detects_tampering(self):
        cfg, ch, rs = scenario(seed=8)
        opts = SolveOptions(rf_method="epmo")
        point = tlbs_solve(cfg, ch, rs, opts)
        assert point.feasible and validate_point(cfg, ch, rs, point) == []
        point.precoder.f_bb *= 3.0  # breaks power and the recorded error
        assert validate_point(cfg, ch, rs, point) != []
