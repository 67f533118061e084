import numpy as np
import pytest
from scipy.optimize import minimize

from isac_pareto import bb_solver
from isac_pareto.bb_solver import (
    InfeasibleSubproblem,
    make_socp_instance,
    solve_bb,
    update_u,
)
from isac_pareto.model import constraint_margins
from isac_pareto.numerics import Rng
from oracles import random_row_orthonormal, random_unit_modulus


def make_data(gen, n_tx=8, n_rf=3, m=2, n_tar=2, h_scale=1.0, noise=0.1, p_max=10.0):
    f_rf = random_unit_modulus(gen, n_tx * n_rf).reshape(n_tx, n_rf, order="F")
    h = h_scale * (gen.normal(size=(m, n_tx)) + 1j * gen.normal(size=(m, n_tx)))
    f_r = np.linalg.qr(gen.normal(size=(n_tx, n_tar)) + 1j * gen.normal(size=(n_tx, n_tar)))[0]
    u = random_row_orthonormal(gen, n_tar, m)
    target = f_r @ u
    return f_rf, h, f_r, u, target


def achieved_sinr(h, f_rf, f_bb, noise):
    t = h.conj() @ f_rf @ f_bb
    powers = np.abs(t) ** 2
    sig = np.diag(powers)
    return sig / (powers.sum(axis=1) - sig + noise)


class TestSolveBB:
    def test_unconstrained_optimum_matches_normal_equations(self):
        gen = Rng(90).generator()
        f_rf, h, f_r, u, target = make_data(gen)
        # thresholds low enough that the least-squares fit already satisfies them
        ls = np.linalg.lstsq(f_rf, target, rcond=None)[0]
        gam = achieved_sinr(h, f_rf, ls, 0.1)
        inst = make_socp_instance(f_rf, h, target, gam * 0.25, p_max=10.0, noise=0.1)
        sol = solve_bb(inst)
        want = np.linalg.norm(f_rf @ ls - target) ** 2
        assert sol.objective <= want * (1 + 1e-6) + 1e-9
        assert abs(sol.objective - want) <= 1e-6 * max(1.0, want)
        assert sol.kkt_residual <= 1e-8

    def test_single_user_small_noise_is_power_capped_least_squares(self):
        gen = Rng(91).generator()
        f_rf, h, f_r, u, target = make_data(gen, m=1, n_tar=1)
        ls = np.linalg.lstsq(f_rf, target, rcond=None)[0]
        # power cap well above the fit: solution is the pseudo-inverse fit
        inst = make_socp_instance(f_rf, h[:1], target, [1e-8], p_max=100.0, noise=1e-9)
        sol = solve_bb(inst)
        want = np.linalg.norm(f_rf @ ls - target) ** 2
        assert sol.objective == pytest.approx(want, abs=1e-6 * max(1.0, want) + 1e-9)

    def test_impossible_threshold_is_infeasible(self):
        gen = Rng(92).generator()
        f_rf, h, f_r, u, target = make_data(gen, p_max=1e-6)
        inst = make_socp_instance(f_rf, h, target, [1e9, 1e9], p_max=1e-6, noise=0.1)
        with pytest.raises(InfeasibleSubproblem):
            solve_bb(inst)

    def test_random_feasible_instances_meet_original_constraints(self):
        gen = Rng(93).generator()
        solved = 0
        attempts = 0
        while solved < 25 and attempts < 80:
            attempts += 1
            f_rf, h, f_r, u, target = make_data(gen)
            inst = make_socp_instance(f_rf, h, target, [0.5, 0.5], p_max=10.0, noise=0.1)
            try:
                sol = solve_bb(inst)
            except InfeasibleSubproblem:
                continue
            gam = achieved_sinr(h, f_rf, sol.f_bb, 0.1)
            assert np.all(gam >= 0.5 * (1 - 1e-6))
            assert np.linalg.norm(f_rf @ sol.f_bb) ** 2 <= 10.0 * (1 + 1e-8)
            assert sol.kkt_residual <= 1e-8
            solved += 1
        assert solved >= 25

    def test_realistic_wattage_scale(self):
        # channel amplitudes ~1e-4, noise 1e-12 W, budget 1 W
        gen = Rng(94).generator()
        f_rf, h, f_r, u, target = make_data(gen, h_scale=1e-4, noise=1e-12, p_max=1.0)
        inst = make_socp_instance(f_rf, h, target, [50.0, 50.0], p_max=1.0, noise=1e-12)
        sol = solve_bb(inst)
        gam = achieved_sinr(h, f_rf, sol.f_bb, 1e-12)
        assert np.all(gam >= 50.0 * (1 - 1e-6))
        assert sol.kkt_residual <= 1e-8

    def test_column_phase_rotation_leaves_sinr_unchanged(self):
        gen = Rng(95).generator()
        f_rf, h, f_r, u, target = make_data(gen)
        inst = make_socp_instance(f_rf, h, target, [0.5, 0.5], p_max=10.0, noise=0.1)
        sol = solve_bb(inst)
        base = achieved_sinr(h, f_rf, sol.f_bb, 0.1)
        rotated = sol.f_bb * np.exp(1j * gen.uniform(-np.pi, np.pi, size=2))
        np.testing.assert_allclose(achieved_sinr(h, f_rf, rotated, 0.1), base, rtol=1e-10)

    def test_tight_threshold_binds_the_cone(self):
        gen = Rng(96).generator()
        for _ in range(20):
            f_rf, h, f_r, u, target = make_data(gen)
            # threshold close to the best this power can do: cone active
            inst0 = make_socp_instance(f_rf, h, target, [0.0, 0.0], p_max=10.0, noise=0.1)
            sol0 = solve_bb(inst0)  # unconstrained-within-power fit
            gam0 = achieved_sinr(h, f_rf, sol0.f_bb, 0.1)
            gam_req = gam0 * 4.0 + 1.0
            inst = make_socp_instance(f_rf, h, target, gam_req, p_max=10.0, noise=0.1)
            try:
                sol = solve_bb(inst)
            except InfeasibleSubproblem:
                continue
            gam = achieved_sinr(h, f_rf, sol.f_bb, 0.1)
            # at least one cone near-active at the optimum
            assert np.min(gam / gam_req) < 1.25
            assert np.all(gam >= gam_req * (1 - 1e-6))
            return
        pytest.skip("all tight instances infeasible")

    def test_zero_thresholds_drop_all_cones(self):
        gen = Rng(97).generator()
        f_rf, h, f_r, u, target = make_data(gen)
        inst = make_socp_instance(f_rf, h, target, [0.0, 0.0], p_max=10.0, noise=0.1)
        assert inst.active.size == 0
        sol = solve_bb(inst)
        ls = np.linalg.lstsq(f_rf, target, rcond=None)[0]
        if np.linalg.norm(f_rf @ ls) ** 2 <= 10.0:
            want = np.linalg.norm(f_rf @ ls - target) ** 2
            assert sol.objective == pytest.approx(want, abs=1e-6 * max(1.0, want) + 1e-9)


def random_program(gen, n, n_cones):
    """Barrier program data (P, q, cones, P_ball) and a point strictly inside it."""
    a = gen.normal(size=(n + 2, n))
    p_quad = a.T @ a
    q_lin = gen.normal(size=n)
    x = gen.normal(size=n)
    p_ball = p_quad / (2.0 * (x @ p_quad @ x))  # ball slack 1/2 at x
    cones = []
    for _ in range(n_cones):
        j_mat = gen.normal(size=(5, n))
        y0 = gen.normal(size=5)
        c = gen.normal(size=n)
        # move c along x until the rim value c^T x is 2 ||J x + y0|| + 1
        rim = 2.0 * np.linalg.norm(j_mat @ x + y0) + 1.0
        cones.append((j_mat, y0, c + (rim - c @ x) * x / (x @ x)))
    return (p_quad, q_lin, cones, p_ball), x


def barrier_value(raw, x, kappa):
    """kappa (x^T P x - 2 q^T x) - sum_i log u_i(x) - log(1 - x^T P_ball x)."""
    p_quad, q_lin, cones, p_ball = raw
    val = kappa * (x @ p_quad @ x - 2.0 * q_lin @ x) - np.log(1.0 - x @ p_ball @ x)
    for j_mat, y0, c in cones:
        y = j_mat @ x + y0
        val -= np.log((c @ x) ** 2 - y @ y)
    return val


def assert_grad_hess_match_differences(raw, x, kappa):
    prog = bb_solver._BarrierProgram(*raw)
    assert prog.interior(x)
    grad, hess = prog.grad_hess(x, kappa)
    step = 1e-5 * max(1.0, np.linalg.norm(x))
    fd_grad = np.empty(x.size)
    fd_hess = np.empty((x.size, x.size))
    for i, e in enumerate(np.eye(x.size) * step):
        fd_grad[i] = (barrier_value(raw, x + e, kappa)
                      - barrier_value(raw, x - e, kappa)) / (2.0 * step)
        fd_hess[:, i] = (prog.grad_hess(x + e, kappa)[0]
                         - prog.grad_hess(x - e, kappa)[0]) / (2.0 * step)
    np.testing.assert_allclose(grad, fd_grad, rtol=1e-6,
                               atol=1e-6 * (1.0 + np.abs(grad).max()))
    np.testing.assert_allclose(hess, fd_hess, rtol=1e-6,
                               atol=1e-6 * (1.0 + np.abs(hess).max()))
    np.testing.assert_allclose(hess, hess.T, rtol=0, atol=1e-12 * np.abs(hess).max())


class TestBarrierDerivatives:
    @pytest.mark.parametrize("n_cones", [0, 1, 2])
    def test_grad_hess_match_central_differences(self, n_cones):
        gen = Rng(104, n_cones).generator()
        for _ in range(5):
            raw, x = random_program(gen, 8, n_cones)
            for kappa in (1.0, 37.0):
                assert_grad_hess_match_differences(raw, x, kappa)
                # a second interior point, off the construction point
                x2 = x + 0.05 * gen.normal(size=x.size)
                if bb_solver._BarrierProgram(*raw).interior(x2):
                    assert_grad_hess_match_differences(raw, x2, kappa)

    def test_phase_one_program_matches_central_differences(self, monkeypatch):
        gen = Rng(104, 3).generator()
        raw, x = random_program(gen, 6, 2)
        prog = bb_solver._BarrierProgram(*raw)
        built = []

        class Recording(bb_solver._BarrierProgram):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(bb_solver, "_BarrierProgram", Recording)
        x0 = -x  # every rim value c^T x0 is negative: phase one must run
        assert not prog.interior(x0)
        bb_solver._phase_one(prog, x0, x0.size)
        aug_raw = built[0]
        worst = max(np.linalg.norm(j @ x0 + y0) - c @ x0 for j, y0, c in raw[2])
        x_aug = np.concatenate([x0, [worst + 1.0]])
        for kappa in (1.0, 37.0):
            assert_grad_hess_match_differences(aug_raw, x_aug, kappa)
            assert_grad_hess_match_differences(
                aug_raw, x_aug + 0.01 * gen.normal(size=x_aug.size), kappa)


def polished_incumbent(f_rf, h, target, gam, f_start, noise=0.1, p_max=10.0):
    """Local SLSQP descent on the SINR- and power-constrained fit from f_start."""
    shape = f_start.shape

    def mat(v):
        return (v[:v.size // 2] + 1j * v[v.size // 2:]).reshape(shape)

    res = minimize(
        lambda v: np.linalg.norm(f_rf @ mat(v) - target) ** 2,
        np.concatenate([f_start.ravel().real, f_start.ravel().imag]),
        method="SLSQP",
        constraints=[
            {"type": "ineq",
             "fun": lambda v: achieved_sinr(h, f_rf, mat(v), noise) / (gam * (1 + 1e-6)) - 1},
            {"type": "ineq",
             "fun": lambda v: 1 - np.linalg.norm(f_rf @ mat(v)) ** 2 / (p_max * (1 - 1e-6))},
        ],
        options={"ftol": 1e-12, "maxiter": 300},
    )
    return mat(res.x)


class TestIncumbentRim:
    def test_never_worse_than_a_feasible_incumbent(self):
        # thresholds above what the power-capped fit reaches, so the cones
        # bind; incumbents are the solution at the least-squares rim and a
        # local polish of it, which sits at a rim of its own
        gen = Rng(105).generator()
        checked = improved = 0
        for _ in range(20):
            f_rf, h, f_r, u, target = make_data(gen)
            fit = solve_bb(make_socp_instance(f_rf, h, target, [0.0, 0.0],
                                              p_max=10.0, noise=0.1))
            gam = achieved_sinr(h, f_rf, fit.f_bb, 0.1) * gen.uniform(1.5, 4.0, size=2) + 0.5
            inst = make_socp_instance(f_rf, h, target, gam, p_max=10.0, noise=0.1)
            try:
                at_fit_rim = solve_bb(inst)
            except InfeasibleSubproblem:
                continue
            polished = polished_incumbent(f_rf, h, target, gam, at_fit_rim.f_bb)
            for f_ref in (at_fit_rim.f_bb, polished):
                shortfall, excess = constraint_margins(f_rf @ f_ref, h, gam, 0.1, 10.0)
                if shortfall.max() > 0 or excess > 0:
                    continue  # only a feasible incumbent lies inside the cones
                want = np.linalg.norm(f_rf @ f_ref - target) ** 2
                improved += want < at_fit_rim.objective * (1 - 1e-6)
                assert solve_bb(inst, f_ref=f_ref).objective <= want * (1 + 1e-9)
                checked += 1
        assert checked >= 30
        assert improved >= 5  # some incumbents beat the least-squares rim


class TestUpdateU:
    def test_identity_pattern(self):
        gen = Rng(98).generator()
        n_tx, n_tar, m = 8, 2, 3
        f_r = np.linalg.qr(gen.normal(size=(n_tx, n_tar)) + 1j * gen.normal(size=(n_tx, n_tar)))[0]
        # make f_rf f_bb = f_r restricted so w = f_r^H (f_r I_pattern) = I pattern
        f_rf = np.eye(n_tx, dtype=complex)
        f_bb = f_r @ np.eye(n_tar, m)
        u = update_u(f_rf, f_bb, f_r)
        np.testing.assert_allclose(u, np.eye(n_tar, m), atol=1e-10)

    def test_rows_orthonormal(self):
        gen = Rng(99).generator()
        for _ in range(10):
            n_tx, n_rf, n_tar, m = 8, 3, 2, 2
            f_rf = random_unit_modulus(gen, n_tx * n_rf).reshape(n_tx, n_rf, order="F")
            f_bb = gen.normal(size=(n_rf, m)) + 1j * gen.normal(size=(n_rf, m))
            f_r = np.linalg.qr(gen.normal(size=(n_tx, n_tar)) + 1j * gen.normal(size=(n_tx, n_tar)))[0]
            u = update_u(f_rf, f_bb, f_r)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(n_tar), atol=1e-10)

    def test_trace_expansion_identity(self):
        gen = Rng(100).generator()
        for _ in range(20):
            n_tx, n_rf, n_tar, m = 10, 4, 2, 3
            f_rf = random_unit_modulus(gen, n_tx * n_rf).reshape(n_tx, n_rf, order="F")
            f_bb = gen.normal(size=(n_rf, m)) + 1j * gen.normal(size=(n_rf, m))
            steering = gen.normal(size=(n_tx, n_tar)) + 1j * gen.normal(size=(n_tx, n_tar))
            f_r = steering / np.linalg.norm(steering, axis=0)  # unit columns, not orthogonal
            u = update_u(f_rf, f_bb, f_r)
            eff = f_rf @ f_bb
            sigmas = np.linalg.svd(f_r.conj().T @ eff, compute_uv=False)
            want = (np.linalg.norm(eff) ** 2 + np.linalg.norm(f_r @ u) ** 2
                    - 2.0 * sigmas.sum())
            got = np.linalg.norm(eff - f_r @ u) ** 2
            assert got == pytest.approx(want, abs=1e-9 * max(1.0, abs(want)))

    def test_beats_random_row_orthonormal_candidates(self):
        gen = Rng(101).generator()
        n_tx, n_rf, n_tar, m = 8, 3, 2, 3
        f_rf = random_unit_modulus(gen, n_tx * n_rf).reshape(n_tx, n_rf, order="F")
        f_bb = gen.normal(size=(n_rf, m)) + 1j * gen.normal(size=(n_rf, m))
        steering = gen.normal(size=(n_tx, n_tar)) + 1j * gen.normal(size=(n_tx, n_tar))
        f_r = steering / np.linalg.norm(steering, axis=0)
        u_star = update_u(f_rf, f_bb, f_r)
        eff = f_rf @ f_bb
        best = np.linalg.norm(eff - f_r @ u_star) ** 2
        for _ in range(2000):
            u_rand = random_row_orthonormal(gen, n_tar, m)
            assert best <= np.linalg.norm(eff - f_r @ u_rand) ** 2 + 1e-12

    def test_deterministic(self):
        gen1 = Rng(102).generator()
        gen2 = Rng(102).generator()

        def build(gen):
            f_rf = random_unit_modulus(gen, 24).reshape(8, 3, order="F")
            f_bb = gen.normal(size=(3, 2)) + 1j * gen.normal(size=(3, 2))
            f_r = np.linalg.qr(gen.normal(size=(8, 2)) + 1j * gen.normal(size=(8, 2)))[0]
            return update_u(f_rf, f_bb, f_r)

        np.testing.assert_array_equal(build(gen1), build(gen2))

    def test_dimension_guard(self):
        gen = Rng(103).generator()
        with pytest.raises(ValueError):
            update_u(np.eye(4), np.ones((4, 1)), np.ones((4, 2)))
