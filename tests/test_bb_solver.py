import math

import numpy as np
import pytest
from scipy.optimize import minimize

from isac_pareto import bb_solver
from isac_pareto.bb_solver import (
    InfeasibleSubproblem,
    SolverError,
    solve_bb,
    update_u,
)
from isac_pareto.model import constraint_margins, feasible
from isac_pareto.numerics import Rng
from oracles import (
    BarrierProgramReference,
    barrier_grad_hess,
    random_row_orthonormal,
    random_unit_modulus,
)


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
        sol = solve_bb(f_rf, h, target, gam * 0.25, p_max=10.0, noise=0.1)
        want = np.linalg.norm(f_rf @ ls - target) ** 2
        assert sol.objective <= want * (1 + 1e-6) + 1e-9
        assert abs(sol.objective - want) <= 1e-6 * max(1.0, want)

    def test_single_user_small_noise_is_power_capped_least_squares(self):
        gen = Rng(91).generator()
        f_rf, h, f_r, u, target = make_data(gen, m=1, n_tar=1)
        ls = np.linalg.lstsq(f_rf, target, rcond=None)[0]
        # power cap well above the fit: solution is the pseudo-inverse fit
        sol = solve_bb(f_rf, h[:1], target, [1e-8], p_max=100.0, noise=1e-9)
        want = np.linalg.norm(f_rf @ ls - target) ** 2
        assert sol.objective == pytest.approx(want, abs=1e-6 * max(1.0, want) + 1e-9)

    def test_impossible_threshold_is_infeasible(self, monkeypatch):
        # a phase-one centre whose sigma exceeds the duality-gap bound proves
        # sigma* > 0, so the empty program ends long before kappa reaches 1e9
        kappas = []
        center = bb_solver._BarrierProgram.newton_center

        def recorded(self, x, kappa, **kwargs):
            kappas.append(kappa)
            return center(self, x, kappa, **kwargs)

        monkeypatch.setattr(bb_solver._BarrierProgram, "newton_center", recorded)
        gen = Rng(92).generator()
        f_rf, h, f_r, u, target = make_data(gen, p_max=1e-6)
        with pytest.raises(InfeasibleSubproblem):
            solve_bb(f_rf, h, target, [1e9, 1e9], p_max=1e-6, noise=0.1)
        assert kappas and max(kappas) < 1e9

    @pytest.mark.parametrize("shortfall", [1e-3, 1e-5])
    def test_barely_feasible_threshold_is_solved(self, shortfall):
        # one user's best SINR within the budget is P_max ||P h||^2 / noise
        # (P the projector onto the RF columns); a threshold just below it
        # leaves a thin but nonempty interior that phase one must find
        gen = Rng(94).generator()
        f_rf, h, f_r, u, target = make_data(gen, m=1, n_tar=1)
        q, _ = np.linalg.qr(f_rf)
        best = 10.0 * np.linalg.norm(q.conj().T @ h[0]) ** 2 / 0.1
        gam = best * (1.0 - shortfall)
        sol = solve_bb(f_rf, h, target, [gam], p_max=10.0, noise=0.1)
        margins = constraint_margins(f_rf @ sol.f_bb, h, np.array([gam]), 0.1, 10.0)
        assert max(np.max(margins[0]), margins[1]) <= 1e-6

    def test_random_feasible_instances_meet_original_constraints(self):
        gen = Rng(93).generator()
        solved = 0
        attempts = 0
        while solved < 25 and attempts < 80:
            attempts += 1
            f_rf, h, f_r, u, target = make_data(gen)
            try:
                sol = solve_bb(f_rf, h, target, [0.5, 0.5], p_max=10.0, noise=0.1)
            except InfeasibleSubproblem:
                continue
            gam = achieved_sinr(h, f_rf, sol.f_bb, 0.1)
            assert np.all(gam >= 0.5 * (1 - 1e-6))
            assert np.linalg.norm(f_rf @ sol.f_bb) ** 2 <= 10.0 * (1 + 1e-8)
            solved += 1
        assert solved >= 25

    def test_realistic_wattage_scale(self):
        # channel amplitudes ~1e-4, noise 1e-12 W, budget 1 W
        gen = Rng(94).generator()
        f_rf, h, f_r, u, target = make_data(gen, h_scale=1e-4, noise=1e-12, p_max=1.0)
        sol = solve_bb(f_rf, h, target, [50.0, 50.0], p_max=1.0, noise=1e-12)
        gam = achieved_sinr(h, f_rf, sol.f_bb, 1e-12)
        assert np.all(gam >= 50.0 * (1 - 1e-6))

    def test_column_phase_rotation_leaves_sinr_unchanged(self):
        gen = Rng(95).generator()
        f_rf, h, f_r, u, target = make_data(gen)
        sol = solve_bb(f_rf, h, target, [0.5, 0.5], p_max=10.0, noise=0.1)
        base = achieved_sinr(h, f_rf, sol.f_bb, 0.1)
        rotated = sol.f_bb * np.exp(1j * gen.uniform(-np.pi, np.pi, size=2))
        np.testing.assert_allclose(achieved_sinr(h, f_rf, rotated, 0.1), base, rtol=1e-10)

    def test_tight_threshold_binds_the_cone(self):
        gen = Rng(96).generator()
        for _ in range(20):
            f_rf, h, f_r, u, target = make_data(gen)
            # threshold close to the best this power can do: cone active
            # unconstrained-within-power fit
            sol0 = solve_bb(f_rf, h, target, [0.0, 0.0], p_max=10.0, noise=0.1)
            gam0 = achieved_sinr(h, f_rf, sol0.f_bb, 0.1)
            gam_req = gam0 * 4.0 + 1.0
            try:
                sol = solve_bb(f_rf, h, target, gam_req, p_max=10.0, noise=0.1)
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
        sol = solve_bb(f_rf, h, target, [0.0, 0.0], p_max=10.0, noise=0.1)
        ls = np.linalg.lstsq(f_rf, target, rcond=None)[0]
        if np.linalg.norm(f_rf @ ls) ** 2 <= 10.0:
            want = np.linalg.norm(f_rf @ ls - target) ** 2
            assert sol.objective == pytest.approx(want, abs=1e-6 * max(1.0, want) + 1e-9)

    def test_polish_on_a_cone_rim_returns_no_nan(self):
        # instance 201 of the Rng(777) high-SNR census (ROADMAP item 12): the
        # first polish misses KKT_TOL and lands on a cone rim (u = 0), where
        # the barrier is undefined; a deeper retry started there returned an
        # all-NaN f_bb as solved
        gen = Rng(777, 201).generator()
        h_scale = 10 ** gen.uniform(-1, 3)
        f_rf, h, f_r, u, target = make_data(gen, m=1, n_tar=1, h_scale=h_scale)
        ls = np.linalg.lstsq(f_rf, target, rcond=None)[0]
        ls *= min(1.0, np.sqrt(10.0) / np.linalg.norm(f_rf @ ls))
        gam = achieved_sinr(h, f_rf, ls, 0.1) * 10 ** gen.uniform(-0.5, 1.5, 1)
        try:
            sol = solve_bb(f_rf, h, target, gam, p_max=10.0, noise=0.1)
        except SolverError:
            return
        assert np.all(np.isfinite(sol.f_bb))
        assert feasible(constraint_margins(f_rf @ sol.f_bb, h, gam, 0.1, 10.0))

    @pytest.mark.parametrize("p_max, noise", [(0.0, 0.1), (10.0, 0.0),
                                              (math.nan, 0.1), (10.0, math.nan)])
    def test_nonpositive_budget_or_noise_rejected(self, p_max, noise):
        f_rf, h, f_r, u, target = make_data(Rng(99).generator())
        with pytest.raises(ValueError, match="must be positive"):
            solve_bb(f_rf, h, target, [0.5, 0.5], p_max=p_max, noise=noise)

    @pytest.mark.parametrize("gammas", [[math.nan, 0.5], [-1.0, 0.5]])
    def test_nan_or_negative_threshold_rejected(self, gammas):
        # a NaN threshold must not drop its user's cone
        f_rf, h, f_r, u, target = make_data(Rng(99).generator())
        with pytest.raises(ValueError, match="nonnegative"):
            solve_bb(f_rf, h, target, gammas, p_max=10.0, noise=0.1)


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
    grad, hess = barrier_grad_hess(prog, x, kappa)
    step = 1e-5 * max(1.0, np.linalg.norm(x))
    fd_grad = np.empty(x.size)
    fd_hess = np.empty((x.size, x.size))
    for i, e in enumerate(np.eye(x.size) * step):
        fd_grad[i] = (barrier_value(raw, x + e, kappa)
                      - barrier_value(raw, x - e, kappa)) / (2.0 * step)
        fd_hess[:, i] = (barrier_grad_hess(prog, x + e, kappa)[0]
                         - barrier_grad_hess(prog, x - e, kappa)[0]) / (2.0 * step)
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
        bb_solver._phase_one(prog, x0)
        aug_raw = built[0]
        worst = max(np.linalg.norm(j @ x0 + y0) - c @ x0 for j, y0, c in raw[2])
        x_aug = np.concatenate([x0, [worst + 1.0]])
        for kappa in (1.0, 37.0):
            assert_grad_hess_match_differences(aug_raw, x_aug, kappa)
            assert_grad_hess_match_differences(
                aug_raw, x_aug + 0.01 * gen.normal(size=x_aug.size), kappa)


def phase_one_program(monkeypatch, gen):
    """Data of the augmented program `_phase_one` builds for a random program
    whose every rim is negative at the start, and the augmented start."""
    raw, x = random_program(gen, 6, 2)
    built = []

    class Recording(bb_solver._BarrierProgram):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    prog = bb_solver._BarrierProgram(*raw)
    monkeypatch.setattr(bb_solver, "_BarrierProgram", Recording)
    bb_solver._phase_one(prog, -x)
    worst = max(np.linalg.norm(j @ -x + y0) - c @ -x for j, y0, c in raw[2])
    return built[0], np.concatenate([-x, [worst + 1.0]])


def outside_reason(raw, x):
    """Which test puts x outside the interior: ball, rim (s <= 0), cone, or None."""
    p_quad, q_lin, cones, p_ball = raw
    if 1.0 - x @ p_ball @ x <= 0:
        return "ball"
    for j_mat, y0, c in cones:
        y = j_mat @ x + y0
        if c @ x <= 0:
            return "rim"
        if (c @ x) ** 2 - y @ y <= 0:
            return "cone"
    return None


def assert_evaluations_match_reference(raw, x, kappa):
    """Interior verdict, cone terms, gradient and Hessian equal the
    reference's bits at x, inside the interior or not."""
    prog = bb_solver._BarrierProgram(*raw)
    ref = BarrierProgramReference(*raw)
    assert prog.interior(x) is ref.interior(x)
    got, want = list(prog.cone_terms(x)), list(ref.cone_terms(x))
    assert len(got) == len(want)
    for term, ref_term in zip(got, want):
        for value, ref_value in zip(term, ref_term):
            np.testing.assert_array_equal(value, ref_value)
    grad, hess = barrier_grad_hess(prog, x, kappa)
    ref_grad, ref_hess = ref.grad_hess(x, kappa)
    np.testing.assert_array_equal(grad, ref_grad)
    np.testing.assert_array_equal(hess, ref_hess)


def assert_centering_matches_reference(raw, x, kappa, **kwargs):
    """newton_center returns the reference's point and decrement bit for bit;
    returns the reference's step count and failed interior tests."""
    ref = BarrierProgramReference(*raw)
    want_x, want_dec, steps = ref.newton_center(x, kappa, **kwargs)
    got_x, got_dec = bb_solver._BarrierProgram(*raw).newton_center(x, kappa, **kwargs)
    np.testing.assert_array_equal(got_x, want_x)
    np.testing.assert_array_equal(got_dec, want_dec)
    return steps, ref.rejected


class TestOneEvaluationPerIterate:
    """The program that evaluates each iterate once gives the bits of the
    one that evaluated it for the interior test and again for the Newton
    system (tests/oracles.BarrierProgramReference)."""

    @pytest.mark.parametrize("n_cones", [0, 1, 2])
    def test_evaluations_match_reference(self, n_cones):
        gen = Rng(106, n_cones).generator()
        reasons = set()
        for _ in range(5):
            raw, x = random_program(gen, 8, n_cones)
            points = [x, -x, 3.0 * x] + [x + scale * gen.normal(size=x.size)
                                         for scale in (0.05, 0.2, 0.5, 1.0, 2.0) * 2]
            for point in points:
                reasons.add(outside_reason(raw, point))
                for kappa in (1.0, 37.0, 3e8):
                    assert_evaluations_match_reference(raw, point, kappa)
        want = {None, "ball"} | ({"rim", "cone"} if n_cones else set())
        assert reasons == want  # every branch of the interior test is taken

    def test_phase_one_program_matches_reference(self, monkeypatch):
        gen = Rng(106, 3).generator()
        aug_raw, x_aug = phase_one_program(monkeypatch, gen)
        for point in (x_aug, x_aug + 0.01 * gen.normal(size=x_aug.size), -x_aug):
            for kappa in (1.0, 37.0):
                assert_evaluations_match_reference(aug_raw, point, kappa)
        for kappa in (1.0, 1e4):
            steps, _ = assert_centering_matches_reference(aug_raw, x_aug, kappa)
            assert steps > 1

    @pytest.mark.parametrize("n_cones", [0, 1, 2])
    def test_centering_matches_reference(self, n_cones):
        gen = Rng(107, n_cones).generator()
        ran_out = 0
        for _ in range(3):
            raw, x = random_program(gen, 8, n_cones)
            for kappa in (1.0, 37.0, 3e8):
                steps, _ = assert_centering_matches_reference(raw, x, kappa)
                ran_out += steps == 120
        assert ran_out >= 3  # a cold start at kappa = 3e8 ends on max_steps

    def test_centering_with_backtracks_matches_reference(self):
        # near a binding cone at a large weight the full step can leave the
        # interior in floating point, so the step is halved
        gen = Rng(108).generator()
        raw, x = random_program(gen, 8, 2)
        raw = (raw[0], 50.0 * raw[1], raw[2], raw[3])
        ref = BarrierProgramReference(*raw)
        for kappa in 30.0 ** np.arange(6):
            x = ref.newton_center(x, kappa)[0]
        _, rejected = assert_centering_matches_reference(raw, x, 1e14, max_steps=40)
        assert rejected > 0

    def test_centering_from_outside_matches_reference(self):
        # a start outside the interior is evaluated as given, and when every
        # halved step stays outside the start comes back after 61 halvings
        gen = Rng(109).generator()
        raw, x = random_program(gen, 8, 2)
        _, rejected = assert_centering_matches_reference(raw, 3.0 * x, 1.0)
        assert rejected == 61


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
            fit = solve_bb(f_rf, h, target, [0.0, 0.0], p_max=10.0, noise=0.1)
            gam = achieved_sinr(h, f_rf, fit.f_bb, 0.1) * gen.uniform(1.5, 4.0, size=2) + 0.5
            args = (f_rf, h, target, gam, 10.0, 0.1)
            try:
                at_fit_rim = solve_bb(*args)
            except InfeasibleSubproblem:
                continue
            polished = polished_incumbent(f_rf, h, target, gam, at_fit_rim.f_bb)
            for f_ref in (at_fit_rim.f_bb, polished):
                shortfall, excess = constraint_margins(f_rf @ f_ref, h, gam, 0.1, 10.0)
                if shortfall.max() > 0 or excess > 0:
                    continue  # only a feasible incumbent lies inside the cones
                want = np.linalg.norm(f_rf @ f_ref - target) ** 2
                improved += want < at_fit_rim.objective * (1 - 1e-6)
                assert solve_bb(*args, f_ref=f_ref).objective <= want * (1 + 1e-9)
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
