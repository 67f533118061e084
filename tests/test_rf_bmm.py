import numpy as np
import pytest

from isac_pareto.channel import ArrayGeometry, ChannelSet
from isac_pareto.model import ideal_radar_precoder
from isac_pareto.numerics import Rng, phase_project
from isac_pareto.quadratics import build_quadratics
from isac_pareto.rf_bmm import (
    DualState,
    InfeasibleStart,
    bmm_solve,
    dual_bisection,
    majorize,
    primal_step,
)
from oracles import random_row_orthonormal, random_unit_modulus


def make_instance(gen, n_tx=6, n_rf=3, m=2, n_tar=2, gamma=None, noise=0.05, p_max=None):
    h = gen.normal(size=(m, n_tx)) + 1j * gen.normal(size=(m, n_tx))
    ch = ChannelSet(h=h, cu_angles=np.zeros(m), distances=np.full(m, 50.0))
    rs = ideal_radar_precoder(np.linspace(-50, 30, n_tar), ArrayGeometry(n_tx))
    f_bb = gen.normal(size=(n_rf, m)) + 1j * gen.normal(size=(n_rf, m))
    f_bb /= np.linalg.norm(f_bb)
    u = random_row_orthonormal(gen, n_tar, m)
    if p_max is None:
        p_max = 1.5 * n_tx  # roomy budget
    if gamma is None:
        gamma = np.full(m, 0.2)
    return build_quadratics(f_bb, u, ch, rs, gamma, noise, p_max), ch, rs


def feasible_start(q, gen, tries=500):
    """Rejection-sample a unit-modulus point satisfying all constraints."""
    for _ in range(tries):
        d = random_unit_modulus(gen, q.d_dim)
        _, res, power_res = q.probe_eval(d)
        worst = max(power_res, res.max() if res.size else -np.inf)
        if worst <= 0:
            return d
    raise RuntimeError("could not sample a feasible start")


class TestMajorize:
    def test_equality_at_anchor(self):
        gen = Rng(50).generator()
        for _ in range(10):
            q, _, _ = make_instance(gen)
            d0 = random_unit_modulus(gen, q.d_dim)
            ms = majorize(q, d0)
            assert ms.surrogate_objective(d0) == pytest.approx(q.objective(d0), abs=1e-9)
            _, res, power_res = q.probe_eval(d0)
            for k in range(q.active.size):
                assert ms.surrogate_sinr(d0, k) == pytest.approx(res[k], abs=1e-9)
            assert ms.surrogate_power(d0) == pytest.approx(power_res, abs=1e-9)

    def test_domination_on_random_points(self):
        gen = Rng(51).generator()
        q, _, _ = make_instance(gen)
        d0 = random_unit_modulus(gen, q.d_dim)
        ms = majorize(q, d0)
        for _ in range(2000):
            d = random_unit_modulus(gen, q.d_dim)
            assert ms.surrogate_objective(d) >= q.objective(d) - 1e-9
            _, res, power_res = q.probe_eval(d)
            for k in range(q.active.size):
                assert ms.surrogate_sinr(d, k) >= res[k] - 1e-9
            assert ms.surrogate_power(d) >= power_res - 1e-9

    def test_identity_scaled_quadratic_reduces_to_linear(self):
        # Xi = c_r * I happens when F_bb F_bb^H is identity-like: then the
        # objective surrogate's linear coefficient collapses to -a_r.
        gen = Rng(52).generator()
        n_tx, m = 4, 2
        h = gen.normal(size=(m, n_tx)) + 1j * gen.normal(size=(m, n_tx))
        ch = ChannelSet(h=h, cu_angles=np.zeros(m), distances=np.full(m, 50.0))
        rs = ideal_radar_precoder([-40.0, 10.0], ArrayGeometry(n_tx))
        f_bb = np.eye(2, dtype=complex)  # T = I so Xi = kron(I, I)
        u = random_row_orthonormal(gen, 2, 2)
        q = build_quadratics(f_bb, u, ch, rs, [1.0, 1.0], 0.1, 100.0)
        # here c_r = tr(Xi) = D, not 1, so Xi - c_r I is not zero; instead
        # check the algebra directly on a constructed anchor
        d0 = random_unit_modulus(gen, q.d_dim)
        ms = majorize(q, d0)
        want = q.xi_dot(d0) - q.c_r * d0 - q.a_r
        np.testing.assert_allclose(ms.u_obj, want, atol=1e-12)

    def test_rejects_nonunit_anchor(self):
        gen = Rng(53).generator()
        q, _, _ = make_instance(gen)
        bad = random_unit_modulus(gen, q.d_dim) * 1.1
        with pytest.raises(ValueError):
            majorize(q, bad)


class TestPrimalStep:
    def test_zero_duals_closed_form(self):
        gen = Rng(54).generator()
        q, _, _ = make_instance(gen)
        d0 = random_unit_modulus(gen, q.d_dim)
        got = primal_step(majorize(q, d0), DualState.zeros(q.active.size))
        want = phase_project((q.c_r * d0 - q.xi_dot(d0)) + q.a_r)
        np.testing.assert_array_equal(got, want)

    def test_identity_quadratic_projects_target(self):
        # with Xi = c_r I and no constraints the minimizer is the phase of a_r
        gen = Rng(55).generator()
        q, _, _ = make_instance(gen, m=2)
        d0 = random_unit_modulus(gen, q.d_dim)
        ms = majorize(q, d0)
        object.__setattr__(ms, "u_obj", -q.a_r)  # emulate Xi = c_r I collapse
        got = primal_step(ms, DualState.zeros(q.active.size))
        np.testing.assert_array_equal(got, phase_project(q.a_r))

    def test_output_unit_modulus_and_decreases_surrogate(self):
        gen = Rng(56).generator()
        for _ in range(10):
            q, _, _ = make_instance(gen)
            d0 = random_unit_modulus(gen, q.d_dim)
            ms = majorize(q, d0)
            out = primal_step(ms, DualState.zeros(q.active.size))
            assert np.max(np.abs(np.abs(out) - 1.0)) < 1e-14
            assert ms.surrogate_objective(out) <= ms.surrogate_objective(d0) + 1e-9


class TestDualBisection:
    def test_slack_instance_keeps_zero_multipliers(self):
        gen = Rng(57).generator()
        # tiny thresholds and huge budget: constraints inactive at the
        # unconstrained surrogate minimizer
        q, _, _ = make_instance(gen, gamma=np.array([1e-4, 1e-4]), p_max=1e6)
        d0 = feasible_start(q, gen)
        out = dual_bisection(majorize(q, d0), DualState.zeros(q.active.size))
        assert np.all(out.lam == 0.0) and out.vartheta == 0.0

    def test_violated_constraint_driven_to_boundary(self):
        gen = Rng(58).generator()
        for attempt in range(20):
            q, _, _ = make_instance(gen, gamma=np.array([3.0, 3.0]), noise=0.3)
            d0 = feasible_start(q, gen, tries=2000) if attempt >= 0 else None
            ms = majorize(q, d0)
            duals = dual_bisection(ms, DualState.zeros(q.active.size))  # TOL = 1e-6
            moved = False
            d_star = primal_step(ms, duals)
            for k in range(q.active.size):
                if duals.lam[k] > 0:
                    moved = True
                    val = ms.surrogate_sinr(d_star, k)
                    assert -1e-5 < val <= 1e-12
            if moved:
                return
        pytest.skip("no instance produced an active multiplier")

    def test_lagrangian_trace_nondecreasing(self):
        gen = Rng(59).generator()
        for _ in range(10):
            q, _, _ = make_instance(gen, gamma=np.array([1.5, 1.5]), noise=0.2)
            try:
                d0 = feasible_start(q, gen, tries=2000)
            except RuntimeError:
                continue
            duals = dual_bisection(majorize(q, d0), DualState.zeros(q.active.size))
            trace = np.array(duals.lagrangian_trace)
            assert np.all(np.diff(trace) >= -1e-7 * np.maximum(1.0, np.abs(trace[:-1])))


class TestBmmSolve:
    def test_unconstrained_matches_repeated_phase_projection(self):
        gen = Rng(60).generator()
        q, _, _ = make_instance(gen, gamma=np.array([0.0, 0.0]), p_max=1e9)
        d0 = random_unit_modulus(gen, q.d_dim)
        result = bmm_solve(q, d0, max_iter=40)
        # replicate: duals stay zero so each step is the bare projection
        d = d0
        trace = [q.objective(d)]
        for _ in range(result.iterations):
            nxt = phase_project(q.c_r * d - q.xi_dot(d) + q.a_r)
            if q.objective(nxt) > trace[-1]:
                break
            d = nxt
            trace.append(q.objective(d))
            if abs(trace[-1] - trace[-2]) / max(abs(trace[-1]), 1e-30) <= 1e-6:
                break
        np.testing.assert_allclose(result.objective_trace, trace, rtol=1e-12)

    def test_objective_trace_nonincreasing(self):
        gen = Rng(61).generator()
        done = 0
        for _ in range(40):
            q, _, _ = make_instance(gen, gamma=np.array([0.8, 0.8]), noise=0.1)
            try:
                d0 = feasible_start(q, gen, tries=500)
            except RuntimeError:
                continue
            result = bmm_solve(q, d0)
            trace = np.array(result.objective_trace)
            assert np.all(np.diff(trace) <= 1e-9)
            done += 1
            if done >= 20:
                break
        assert done >= 20

    def test_final_point_feasible_and_unit_modulus(self):
        gen = Rng(62).generator()
        done = 0
        for _ in range(40):
            q, _, _ = make_instance(gen, gamma=np.array([0.8, 0.8]), noise=0.1)
            try:
                d0 = feasible_start(q, gen, tries=500)
            except RuntimeError:
                continue
            result = bmm_solve(q, d0)
            assert np.max(np.abs(np.abs(result.d) - 1.0)) < 1e-14
            _, res, power_res = q.probe_eval(result.d)
            assert np.all(res <= 1e-6)
            assert power_res <= 1e-6
            done += 1
            if done >= 10:
                break
        assert done >= 10

    def test_descent_chain_inequalities(self):
        # objective <= surrogate at next point <= surrogate at anchor = objective
        gen = Rng(63).generator()
        q, _, _ = make_instance(gen, gamma=np.array([0.5, 0.5]), noise=0.1)
        d0 = feasible_start(q, gen, tries=2000)
        result = bmm_solve(q, d0, max_iter=5)
        d = d0
        duals = DualState.zeros(q.active.size)
        for _ in range(3):
            ms = majorize(q, d)
            duals = dual_bisection(ms, duals)
            nxt = primal_step(ms, duals)
            if q.objective(nxt) > q.objective(d):
                break
            assert q.objective(nxt) <= ms.surrogate_objective(nxt) + 1e-9
            assert ms.surrogate_objective(d) == pytest.approx(q.objective(d), abs=1e-9)
            d = nxt

    def test_infeasible_start_rejected(self):
        gen = Rng(64).generator()
        q, _, _ = make_instance(gen, gamma=np.array([50.0, 50.0]), noise=5.0)
        d0 = random_unit_modulus(gen, q.d_dim)
        _, res, power_res = q.probe_eval(d0)
        if max(res.max(), power_res) <= 1e-6:
            pytest.skip("sampled point unexpectedly feasible")
        with pytest.raises(InfeasibleStart):
            bmm_solve(q, d0)
