import numpy as np
import pytest

from isac_pareto import rf_bmm, rf_epmo, tlbs
from isac_pareto.channel import ArrayGeometry, ChannelSet
from isac_pareto.model import FEAS_SLACK, feasible, ideal_radar_precoder
from isac_pareto.numerics import Rng, fast_unit, phase_project
from isac_pareto.quadratics import QuadraticForms
from isac_pareto.rf_bmm import (
    TOL,
    DualDivergence,
    InfeasibleStart,
    MajorizerSet,
    bmm_solve,
    dual_bisection,
    majorize,
    primal_step,
)
from isac_pareto.tlbs import SolveOptions, _rf_step
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
    return QuadraticForms(f_bb, u, ch.h, rs.f_r, gamma, noise, p_max), ch, rs


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
            for k, want in enumerate(np.append(res, power_res)):  # power row last
                assert ms.surrogate_constraint(d0, k) == pytest.approx(want, abs=1e-9)

    def test_domination_on_random_points(self):
        gen = Rng(51).generator()
        q, _, _ = make_instance(gen)
        d0 = random_unit_modulus(gen, q.d_dim)
        ms = majorize(q, d0)
        for _ in range(2000):
            d = random_unit_modulus(gen, q.d_dim)
            assert ms.surrogate_objective(d) >= q.objective(d) - 1e-9
            _, res, power_res = q.probe_eval(d)
            for k, want in enumerate(np.append(res, power_res)):
                assert ms.surrogate_constraint(d, k) >= want - 1e-9

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
        q = QuadraticForms(f_bb, u, ch.h, rs.f_r, [1.0, 1.0], 0.1, 100.0)
        # here c_r = tr(Xi) = D, not 1, so Xi - c_r I is not zero; instead
        # check the algebra directly on a constructed anchor
        d0 = random_unit_modulus(gen, q.d_dim)
        ms = majorize(q, d0)
        want = q.xi_dot(q.mat(d0) @ q.f_bb) - q.c_r * d0 - q.a_r
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
        got = primal_step(majorize(q, d0), np.zeros(q.active.size + 1))
        want = phase_project((q.c_r * d0 - q.xi_dot(q.mat(d0) @ q.f_bb)) + q.a_r)
        np.testing.assert_array_equal(got, want)

    def test_identity_quadratic_projects_target(self):
        # with Xi = c_r I and no constraints the minimizer is the phase of a_r
        gen = Rng(55).generator()
        q, _, _ = make_instance(gen, m=2)
        d0 = random_unit_modulus(gen, q.d_dim)
        ms = majorize(q, d0)
        object.__setattr__(ms, "u_obj", -q.a_r)  # emulate Xi = c_r I collapse
        got = primal_step(ms, np.zeros(q.active.size + 1))
        np.testing.assert_array_equal(got, phase_project(q.a_r))

    def test_output_unit_modulus_and_decreases_surrogate(self):
        gen = Rng(56).generator()
        for _ in range(10):
            q, _, _ = make_instance(gen)
            d0 = random_unit_modulus(gen, q.d_dim)
            ms = majorize(q, d0)
            out = primal_step(ms, np.zeros(q.active.size + 1))
            assert np.max(np.abs(np.abs(out) - 1.0)) < 1e-14
            assert ms.surrogate_objective(out) <= ms.surrogate_objective(d0) + 1e-9


class TestDualBisection:
    def test_slack_instance_keeps_zero_multipliers(self):
        gen = Rng(57).generator()
        # tiny thresholds and huge budget: constraints inactive at the
        # unconstrained surrogate minimizer
        q, _, _ = make_instance(gen, gamma=np.array([1e-4, 1e-4]), p_max=1e6)
        d0 = feasible_start(q, gen)
        out = dual_bisection(majorize(q, d0), np.zeros(q.active.size + 1))
        assert np.all(out == 0.0)

    def test_violated_constraint_driven_to_boundary(self):
        gen = Rng(58).generator()
        for attempt in range(20):
            q, _, _ = make_instance(gen, gamma=np.array([3.0, 3.0]), noise=0.3)
            d0 = feasible_start(q, gen, tries=2000) if attempt >= 0 else None
            ms = majorize(q, d0)
            y = dual_bisection(ms, np.zeros(q.active.size + 1))  # TOL = 1e-6
            d_star = primal_step(ms, y)
            active = np.flatnonzero(y > 0)  # the power row included
            for k in active:
                # the window (-TOL, 0], with rounding room between the
                # closed-form probe and this direct evaluation at its top
                val = ms.surrogate_constraint(d_star, k)
                assert -TOL < val <= 1e-12
            if active.size:
                return
        pytest.skip("no instance produced an active multiplier")

    def test_lagrangian_trace_nondecreasing(self, monkeypatch):
        # the Lagrangian value of each sweep, as the stop test reads it
        values = []
        lagrangian = rf_bmm._lagrangian_at_minimizer

        def recorded(ms, y):
            values.append(lagrangian(ms, y))
            return values[-1]

        monkeypatch.setattr(rf_bmm, "_lagrangian_at_minimizer", recorded)
        gen = Rng(59).generator()
        for _ in range(10):
            q, _, _ = make_instance(gen, gamma=np.array([1.5, 1.5]), noise=0.2)
            try:
                d0 = feasible_start(q, gen, tries=2000)
            except RuntimeError:
                continue
            values.clear()
            dual_bisection(majorize(q, d0), np.zeros(q.active.size + 1))
            trace = np.array(values)
            assert np.all(np.diff(trace) >= -1e-7 * np.maximum(1.0, np.abs(trace[:-1])))


def record_anchors(monkeypatch):
    """Objectives of the majorizer anchors: the start and each accepted
    iterate the loop went on from. Callers append q.objective(result.d)."""
    objectives = []
    majorize_at = rf_bmm.majorize

    def recorded(q, d_anchor):
        objectives.append(q.objective(d_anchor))
        return majorize_at(q, d_anchor)

    monkeypatch.setattr(rf_bmm, "majorize", recorded)
    return objectives


class TestBmmSolve:
    def test_unconstrained_matches_repeated_phase_projection(self, monkeypatch):
        gen = Rng(60).generator()
        q, _, _ = make_instance(gen, gamma=np.array([0.0, 0.0]), p_max=1e9)
        d0 = random_unit_modulus(gen, q.d_dim)
        monkeypatch.setattr(rf_bmm, "MAX_ITER", 40)
        objectives = record_anchors(monkeypatch)
        result = bmm_solve(q, d0)
        objectives.append(q.objective(result.d))
        # replicate: duals stay zero so each step is the bare projection
        d = d0
        trace = [q.objective(d)]
        for _ in range(result.iterations):
            nxt = phase_project(q.c_r * d - q.xi_dot(q.mat(d) @ q.f_bb) + q.a_r)
            if q.objective(nxt) > trace[-1]:
                break
            d = nxt
            trace.append(q.objective(d))
            if abs(trace[-1] - trace[-2]) / max(abs(trace[-1]), 1e-30) <= 1e-6:
                break
        np.testing.assert_allclose(objectives, trace, rtol=1e-12)

    def test_objective_trace_nonincreasing(self, monkeypatch):
        objectives = record_anchors(monkeypatch)
        gen = Rng(61).generator()
        done = 0
        for _ in range(40):
            q, _, _ = make_instance(gen, gamma=np.array([0.8, 0.8]), noise=0.1)
            try:
                d0 = feasible_start(q, gen, tries=500)
            except RuntimeError:
                continue
            objectives.clear()
            result = bmm_solve(q, d0)
            trace = np.array(objectives + [q.objective(result.d)])
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

    def test_descent_chain_inequalities(self, monkeypatch):
        # objective <= surrogate at next point <= surrogate at anchor = objective
        gen = Rng(63).generator()
        q, _, _ = make_instance(gen, gamma=np.array([0.5, 0.5]), noise=0.1)
        d0 = feasible_start(q, gen, tries=2000)
        monkeypatch.setattr(rf_bmm, "MAX_ITER", 5)
        result = bmm_solve(q, d0)
        d = d0
        y = np.zeros(q.active.size + 1)
        for _ in range(3):
            ms = majorize(q, d)
            y = dual_bisection(ms, y)
            nxt = primal_step(ms, y)
            if q.objective(nxt) > q.objective(d):
                break
            assert q.objective(nxt) <= ms.surrogate_objective(nxt) + 1e-9
            assert ms.surrogate_objective(d) == pytest.approx(q.objective(d), abs=1e-9)
            d = nxt

    def test_stall_guard_keeps_last_accepted_iterate(self, monkeypatch):
        # the second primal step returns a point with a worse objective: the
        # guard stops there and returns the first step's output unchanged
        steps = []
        step = rf_bmm.primal_step

        def worse_second_step(ms, y):
            out = step(ms, y)
            steps.append(out)
            return -out if len(steps) == 2 else out

        monkeypatch.setattr(rf_bmm, "primal_step", worse_second_step)
        gen = Rng(65).generator()
        q, _, _ = make_instance(gen, gamma=np.array([0.5, 0.5]), noise=0.1)
        d0 = feasible_start(q, gen, tries=2000)
        result = bmm_solve(q, d0)
        assert len(steps) == 2 and q.objective(-steps[1]) > q.objective(steps[0])
        assert result.iterations == 2 and result.converged
        assert result.d.tobytes() == steps[0].tobytes()

    def test_infeasible_start_rejected(self):
        gen = Rng(64).generator()
        q, _, _ = make_instance(gen, gamma=np.array([50.0, 50.0]), noise=5.0)
        d0 = random_unit_modulus(gen, q.d_dim)
        _, res, power_res = q.probe_eval(d0)
        if max(res.max(), power_res) <= 1e-6:
            pytest.skip("sampled point unexpectedly feasible")
        with pytest.raises(InfeasibleStart):
            bmm_solve(q, d0)


def scalar_instance(gen, dim=24):
    v = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    u = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    return v, u, float(gen.normal())


def closed_form(v, u, k):
    s = u.real ** 2 + u.imag ** 2
    return rf_bmm._ConstraintProbe(v, u, s, float(s.max()), k)


def probe_reference(v, u, k, x):
    """The multiplier probe evaluated directly through fast_unit."""
    return 2.0 * float(np.real(np.vdot(u, fast_unit(-(v + x * u))))) + k


class TestConstraintProbe:
    @staticmethod
    def scale(u, k):
        # the largest magnitude g can take: |k| + 2 * ||u||_1
        return abs(k) + 2.0 * np.abs(u).sum()

    def test_matches_fast_unit_probe(self):
        gen = Rng(70).generator()
        for _ in range(50):
            v, u, k = scalar_instance(gen)
            x = 10.0 ** gen.uniform(-3.0, 3.0)
            value, slope = closed_form(v, u, k)(x)
            assert abs(value - probe_reference(v, u, k, x)) <= 1e-12 * self.scale(u, k)
            assert slope < 0.0

    def test_zero_entry_matches_fast_unit(self):
        # fast_unit maps an entry with v + x*u = 0 to 1; the closed form
        # gives that entry the same term and reports no slope
        gen = Rng(71).generator()
        for _ in range(50):
            v, u, k = scalar_instance(gen)
            x = 10.0 ** gen.uniform(-3.0, 3.0)
            v[3] = -(x * u[3])
            assert v[3] + x * u[3] == 0
            value, slope = closed_form(v, u, k)(x)
            assert abs(value - probe_reference(v, u, k, x)) <= 1e-12 * self.scale(u, k)
            assert np.isnan(slope)

    def test_value_at_zero(self):
        gen = Rng(72).generator()
        v, u, k = scalar_instance(gen)
        assert closed_form(v, u, k).at_zero() == closed_form(v, u, k)(0.0)
        v[5] = 0.0  # fast_unit(-v) maps this entry to 1
        got, slope = closed_form(v, u, k).at_zero()
        assert np.isnan(slope)
        assert abs(got - probe_reference(v, u, k, 0.0)) <= 1e-12 * self.scale(u, k)

    def test_slope_matches_central_differences(self):
        gen = Rng(73).generator()
        for _ in range(20):
            v, u, k = scalar_instance(gen)
            probe = closed_form(v, u, k)
            x = 10.0 ** gen.uniform(-2.0, 2.0)
            h = 1e-5 * x
            want = (probe(x + h)[0] - probe(x - h)[0]) / (2.0 * h)
            assert probe(x)[1] == pytest.approx(want, rel=1e-6, abs=1e-9 * self.scale(u, k))

    def test_nonincreasing_along_grid(self):
        gen = Rng(74).generator()
        grid = np.concatenate([[0.0], np.logspace(-4.0, 4.0, 400)])
        for _ in range(10):
            v, u, k = scalar_instance(gen)
            probe = closed_form(v, u, k)
            values = np.array([probe(x)[0] for x in grid])
            assert np.all(np.diff(values) <= 1e-13 * self.scale(u, k))
            assert all(probe(x)[1] <= 0.0 for x in grid)


def chain_instances(gen, count):
    """Feasible starts whose first dual step has an active multiplier."""
    found = []
    while len(found) < count:
        q, _, _ = make_instance(gen, gamma=np.array([1.0, 1.0]), noise=0.3,
                                p_max=gen.uniform(3.0, 6.0))
        try:
            d0 = feasible_start(q, gen, tries=2000)
        except RuntimeError:
            continue
        y = dual_bisection(majorize(q, d0), np.zeros(q.active.size + 1))
        if np.any(y > 0):
            found.append((q, d0))
    return found


def surrogates_feasible(ms, y):
    d_star = primal_step(ms, y)
    return max(ms.surrogate_constraint(d_star, k) for k in range(y.size)) <= 1e-12


class TestWarmStart:
    def test_same_windows_and_slack_set_as_cold_start(self, monkeypatch):
        # every multiplier solve ends slack at exactly 0 or with its surrogate
        # in (-TOL, 0]; warm and cold starts agree on which are slack
        solves = []
        solve = rf_bmm._solve_multiplier

        def recorded_solve(probe, x_start):
            out = solve(probe, x_start)
            solves.append((probe, x_start, out))
            return out

        monkeypatch.setattr(rf_bmm, "_solve_multiplier", recorded_solve)
        gen = Rng(75).generator()
        for q, d in chain_instances(gen, 8):
            warm = np.zeros(q.active.size + 1)
            for _ in range(4):  # MM iterations, each warm-started
                ms = majorize(q, d)
                cold = dual_bisection(ms, np.zeros(q.active.size + 1))
                warm = dual_bisection(ms, warm)
                assert surrogates_feasible(ms, cold) and surrogates_feasible(ms, warm)
                np.testing.assert_array_equal(warm == 0.0, cold == 0.0)
                np.testing.assert_allclose(warm, cold, rtol=1e-4)
                d = primal_step(ms, warm)
        warm_active = 0
        for probe, x_start, out in solves:
            if out == 0.0:
                assert probe.at_zero()[0] <= 0.0
            else:
                assert -TOL < probe(out)[0] <= 0.0
                warm_active += x_start > 0.0
        assert warm_active >= 20

    def test_few_evaluations_per_active_multiplier(self, monkeypatch):
        # plain bisection from a cold bracket takes about 26 evaluations per
        # active multiplier; the warm-started Newton steps take a few
        evaluations = []
        solved = []
        probe_call = rf_bmm._ConstraintProbe.__call__
        probe_zero = rf_bmm._ConstraintProbe.at_zero
        solve = rf_bmm._solve_multiplier

        def counted_call(self, x):
            evaluations.append(x)
            return probe_call(self, x)

        def counted_zero(self):
            evaluations.append(0.0)
            return probe_zero(self)

        def counted_solve(probe, x_start):
            before = len(evaluations)
            out = solve(probe, x_start)
            if out > 0.0:
                solved.append(len(evaluations) - before)
            return out

        monkeypatch.setattr(rf_bmm._ConstraintProbe, "__call__", counted_call)
        monkeypatch.setattr(rf_bmm._ConstraintProbe, "at_zero", counted_zero)
        monkeypatch.setattr(rf_bmm, "_solve_multiplier", counted_solve)
        (q, d0), = chain_instances(Rng(76).generator(), 1)
        monkeypatch.setattr(rf_bmm, "MAX_ITER", 20)
        result = bmm_solve(q, d0)
        assert result.iterations >= 10
        assert len(solved) >= 20
        assert np.mean(solved) <= 4.5
        assert max(solved) <= 10


def unattainable_set(gen, dim, n_active=2):
    """Surrogates whose first SINR constraint no multiplier can meet.

    As x grows the probe tends to k - 2*||u||_1 for the row's (u, k), so k
    above that limit keeps the surrogate positive for every multiplier.
    """
    u_sinr = gen.normal(size=(n_active, dim)) + 1j * gen.normal(size=(n_active, dim))
    k_c = np.full(n_active + 1, -10.0 * dim)
    k_c[0] = 2.0 * np.abs(u_sinr[0]).sum() + 0.5
    random_unit_modulus(gen, dim)  # a draw that keeps every later draw in place
    u_obj = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    u_power = 0.1 * (gen.normal(size=dim) + 1j * gen.normal(size=dim))
    return MajorizerSet(u_obj=u_obj, k_obj=0.0,
                        u_c=np.vstack([u_sinr, u_power]), k_c=k_c)


class TestDualDivergence:
    def test_unattainable_surrogate_raises(self, monkeypatch):
        probed = []
        probe_call = rf_bmm._ConstraintProbe.__call__

        def recorded_call(self, x):
            probed.append(x)
            return probe_call(self, x)

        monkeypatch.setattr(rf_bmm._ConstraintProbe, "__call__", recorded_call)
        gen = Rng(77).generator()
        ms = unattainable_set(gen, 12)
        for y in (np.zeros(3), np.array([3.0, 0.0, 0.0])):
            probed.clear()
            with pytest.raises(DualDivergence):  # a warm start does not hide it
                dual_bisection(ms, y)
            # raised once the bracket reaches 2^64, not after the probe budget
            assert max(probed) == 2.0 ** rf_bmm.MAX_BRACKET_DOUBLINGS
            assert len(probed) <= rf_bmm.MAX_BRACKET_DOUBLINGS + 3

    def test_rf_step_reports_infeasible(self, monkeypatch):
        gen = Rng(78).generator()
        q, _, _ = make_instance(gen)
        d0 = feasible_start(q, gen)
        opts = SolveOptions(rf_method="bmm")
        assert _rf_step(q, d0, opts) is not None
        ms = unattainable_set(gen, q.d_dim, q.active.size)
        monkeypatch.setattr(rf_bmm, "majorize", lambda q, d: ms)
        assert _rf_step(q, d0, opts) is None


class TestRfStepRepair:
    @pytest.mark.parametrize("seed", [201, 202, 203])
    def test_infeasible_start_repaired_before_bmm(self, seed, monkeypatch):
        repairs = []
        epmo_solve = tlbs.epmo_solve

        def recorded(q, d, tol_violation=rf_epmo.TOL_VIOLATION):
            result = epmo_solve(q, d, tol_violation)
            repairs.append((tol_violation, result.feasible))
            return result

        monkeypatch.setattr(tlbs, "epmo_solve", recorded)
        gen = Rng(seed).generator()
        q, _, _ = make_instance(gen, gamma=np.full(2, 2.0))
        d0 = random_unit_modulus(gen, q.d_dim)
        assert not feasible(q.constraint_margins(d0))
        d = _rf_step(q, d0, SolveOptions(rf_method="bmm"))
        # the repair is asked for residuals well inside BMM's own gate
        assert repairs == [((0.5 * FEAS_SLACK) ** 2, True)]
        assert d is not None
        assert np.max(np.abs(np.abs(d) - 1.0)) < 1e-14
        assert feasible(q.constraint_margins(d))
