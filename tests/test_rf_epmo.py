import numpy as np
import pytest

from isac_pareto import rf_epmo
from isac_pareto.channel import ArrayGeometry, ChannelSet
from isac_pareto.model import ideal_radar_precoder
from isac_pareto.numerics import Rng
from isac_pareto.quadratics import QuadraticForms
from isac_pareto.rf_epmo import (
    TOL_GRAD,
    constraint_violation,
    epmo_solve,
    euclidean_gradient,
    fit_rf_stage,
    penalty_objective,
    retract,
    riemannian_gradient,
)
from oracles import (penalty_gradient_reference, penalty_reference, random_row_orthonormal,
                     random_unit_modulus)


def make_instance(gen, n_tx=6, n_rf=3, m=2, n_tar=2, gamma=None, noise=0.05, p_max=None):
    h = gen.normal(size=(m, n_tx)) + 1j * gen.normal(size=(m, n_tx))
    ch = ChannelSet(h=h, cu_angles=np.zeros(m), distances=np.full(m, 50.0))
    rs = ideal_radar_precoder(np.linspace(-50, 30, n_tar), ArrayGeometry(n_tx))
    f_bb = gen.normal(size=(n_rf, m)) + 1j * gen.normal(size=(n_rf, m))
    f_bb /= np.linalg.norm(f_bb)
    u = random_row_orthonormal(gen, n_tar, m)
    if p_max is None:
        p_max = 1.5 * n_tx
    if gamma is None:
        gamma = np.full(m, 0.2)
    return QuadraticForms(f_bb, u, ch.h, rs.f_r, gamma, noise, p_max), ch, rs


def hinge_oracle(q, d, mu):
    """Penalty objective rebuilt from scratch out of the raw constraint values."""
    f_rf = d.reshape(q.n_tx, q.n_rf, order="F")
    total = np.linalg.norm(f_rf @ q.f_bb - q.f_r_u) ** 2
    penalty = 0.0
    for m in q.active:
        t = q.h[m].conj() @ f_rf @ q.f_bb
        powers = np.abs(t) ** 2
        g = (powers.sum() - powers[m]) - powers[m] / q.gamma[m] + q.noise
        penalty += max(0.0, g / q.noise) ** 2
    w = np.linalg.norm(f_rf @ q.f_bb) ** 2 - q.p_max
    penalty += max(0.0, w / q.p_max) ** 2
    return total + mu * penalty


class TestPenaltyObjective:
    def test_feasible_point_has_no_penalty(self):
        gen = Rng(70).generator()
        q, _, _ = make_instance(gen, gamma=np.array([1e-6, 1e-6]), p_max=1e9)
        for _ in range(50):
            d = random_unit_modulus(gen, q.d_dim)
            if constraint_violation(q, d) == 0.0:
                assert penalty_objective(q, d, 10.0) == q.objective(d)
                return
        pytest.skip("no feasible sample drawn")

    def test_penalty_linear_in_mu(self):
        gen = Rng(71).generator()
        q, _, _ = make_instance(gen, gamma=np.array([5.0, 5.0]), noise=0.5)
        d = random_unit_modulus(gen, q.d_dim)
        if constraint_violation(q, d) == 0.0:
            pytest.skip("sampled point feasible")
        p1 = penalty_objective(q, d, 10.0) - q.objective(d)
        p2 = penalty_objective(q, d, 20.0) - q.objective(d)
        assert p2 == pytest.approx(2.0 * p1, rel=1e-12)

    def test_matches_hinge_oracle(self):
        gen = Rng(72).generator()
        for _ in range(20):
            q, _, _ = make_instance(gen, gamma=np.array([2.0, 2.0]), noise=0.2)
            d = random_unit_modulus(gen, q.d_dim)
            assert penalty_objective(q, d, 7.5) == pytest.approx(
                hinge_oracle(q, d, 7.5), abs=1e-10 * max(1.0, hinge_oracle(q, d, 7.5))
            )


class TestEuclideanGradient:
    def test_interior_gradient_is_quadratic_part(self):
        gen = Rng(73).generator()
        q, _, _ = make_instance(gen, gamma=np.array([1e-6, 1e-6]), p_max=1e9)
        for _ in range(50):
            d = random_unit_modulus(gen, q.d_dim)
            if constraint_violation(q, d) == 0.0:
                want = 2.0 * (q.xi_dot(q.mat(d) @ q.f_bb) - q.a_r)
                np.testing.assert_allclose(euclidean_gradient(q, d, 10.0), want, atol=1e-12)
                return
        pytest.skip("no interior sample drawn")

    def test_pure_linear_term_points_to_target(self):
        gen = Rng(74).generator()
        q, ch, rs = make_instance(gen)
        q_zero = QuadraticForms(np.zeros_like(q.f_bb), q.u, ch.h, rs.f_r,
                                np.zeros(2), q.noise, 1e9)
        # Xi = 0 when F_bb = 0, but then a_r = 0 as well; instead zero the
        # quadratic by hand through a tiny baseband and check the dominant term
        d = random_unit_modulus(gen, q.d_dim)
        grad = euclidean_gradient(q_zero, d, 0.0)
        np.testing.assert_allclose(grad, -2.0 * q_zero.a_r, atol=1e-12)

    def test_matches_central_finite_differences(self):
        gen = Rng(75).generator()
        h_step = 1e-6
        checked = 0
        while checked < 8:
            q, _, _ = make_instance(gen, gamma=np.array([2.0, 2.0]), noise=0.2)
            d = random_unit_modulus(gen, q.d_dim)
            _, res, power_res = q.probe_eval(d)
            res = np.abs(res)
            if res.size and res.min() < 1e-3:  # keep away from hinge kinks
                continue
            if abs(power_res) < 1e-3:
                continue
            mu = 5.0
            grad = euclidean_gradient(q, d, mu)
            fd = np.zeros_like(d)
            for l in range(q.d_dim):
                e = np.zeros(q.d_dim, dtype=complex)
                e[l] = h_step
                fx = (penalty_objective(q, d + e, mu) - penalty_objective(q, d - e, mu)) / (2 * h_step)
                e[l] = 1j * h_step
                fy = (penalty_objective(q, d + e, mu) - penalty_objective(q, d - e, mu)) / (2 * h_step)
                fd[l] = fx + 1j * fy
            scale = max(np.max(np.abs(grad)), 1e-12)
            assert np.max(np.abs(fd - grad)) / scale <= 1e-5
            checked += 1


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSharedValueAndGradient:
    """The value and gradient an accepted step takes from one product equal
    the separate evaluations and the inline reference bit for bit."""

    # thresholds, noise, budget as a multiple of n_tx, and whether some SINR
    # hinge and the power hinge are active on the 6-antenna instances
    CASES = {
        "no hinge": (np.array([1e-6, 1e-6]), 0.05, 1e9, False, False),
        "sinr hinges": (np.array([5.0, 5.0]), 0.5, 1e9, True, False),
        "power hinge": (np.array([1e-6, 1e-6]), 0.05, 0.01, False, True),
        "all hinges": (np.array([5.0, 5.0]), 0.5, 0.01, True, True),
        "dropped user": (np.array([0.0, 5.0]), 0.5, 0.01, True, True),
        "one user": (np.array([5.0]), 0.5, 1e9, True, False),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("mu", [0.0, 10.0, 1e4])
    def test_matches_separate_evaluations(self, case, mu):
        gamma, noise, budget, sinr_hinge, power_hinge = self.CASES[case]
        gen = Rng(95).generator()
        active_sinr = active_power = 0
        for _ in range(10):
            q, _, _ = make_instance(gen, m=gamma.size, n_tar=gamma.size, gamma=gamma,
                                    noise=noise, p_max=budget * 6)
            d = random_unit_modulus(gen, q.d_dim)
            _, sinr_res, power_res = q.probe_eval(d)
            active_sinr += int(np.sum(sinr_res >= 0.0))
            active_power += int(power_res >= 0.0)
            value, parts = rf_epmo._penalty_parts(q, d, mu)
            assert same_bits(value, penalty_objective(q, d, mu))
            assert same_bits(value, penalty_reference(q, d, mu))
            grad = euclidean_gradient(q, d, mu, parts)
            assert same_bits(grad, euclidean_gradient(q, d, mu))
            assert same_bits(grad, penalty_gradient_reference(q, d, mu))
        assert (active_sinr > 0) == sinr_hinge
        assert (active_power > 0) == power_hinge

    @pytest.mark.parametrize("n", range(8))
    def test_squared_hinges_match_numpy_sum(self, n):
        # numpy adds fewer than eight terms left to right, as the scalar loop
        gen = Rng(96, n).generator()
        for _ in range(2000):
            res = gen.normal(size=n) * 10.0 ** gen.integers(-8, 8, size=n)
            power = float(gen.normal())
            want = float(np.sum(np.maximum(0.0, res) ** 2)) + max(0.0, power) ** 2
            assert same_bits(rf_epmo._squared_hinges(res, power), want)
        if n:
            res[0] = np.nan
            assert np.isnan(rf_epmo._squared_hinges(res, 0.0))

    @pytest.mark.parametrize("n", [8, 9, 16, 33])
    def test_squared_hinges_within_sum_error_bound(self, n):
        # from eight terms on numpy sums pairwise, so the loop may part from
        # np.sum in the last bits; each order of the n + 1 nonnegative terms
        # is within n/2 eps of the exact sum, so the two are within n eps
        gen = Rng(96, n).generator()
        for _ in range(2000):
            res = gen.normal(size=n) * 10.0 ** gen.integers(-8, 8, size=n)
            power = float(gen.normal())
            want = float(np.sum(np.maximum(0.0, res) ** 2)) + max(0.0, power) ** 2
            got = rf_epmo._squared_hinges(res, power)
            assert abs(got - want) <= n * np.finfo(float).eps * want


class TestManifoldOps:
    def test_radial_gradient_vanishes(self):
        gen = Rng(76).generator()
        d = random_unit_modulus(gen, 12)
        np.testing.assert_allclose(riemannian_gradient(d, d.copy()), 0.0, atol=1e-14)

    def test_tangential_gradient_preserved(self):
        gen = Rng(77).generator()
        d = random_unit_modulus(gen, 12)
        np.testing.assert_allclose(riemannian_gradient(d, 1j * d), 1j * d, atol=1e-14)

    def test_projection_idempotent(self):
        gen = Rng(78).generator()
        d = random_unit_modulus(gen, 20)
        x = gen.normal(size=20) + 1j * gen.normal(size=20)
        once = riemannian_gradient(d, x)
        twice = riemannian_gradient(d, once)
        np.testing.assert_allclose(once, twice, atol=1e-12)

    def test_transport_fixed_point_and_tangency(self):
        # vector transport by projection is the tangent projection at the
        # new point
        gen = Rng(79).generator()
        d = random_unit_modulus(gen, 20)
        zeta = riemannian_gradient(d, gen.normal(size=20) + 1j * gen.normal(size=20))
        np.testing.assert_allclose(riemannian_gradient(d, zeta), zeta, atol=1e-13)
        d2 = random_unit_modulus(gen, 20)
        moved = riemannian_gradient(d2, zeta)
        assert np.max(np.abs(np.real(moved * np.conj(d2)))) < 1e-12
        assert np.linalg.norm(moved) <= np.linalg.norm(zeta) + 1e-12

    def test_retract_properties(self):
        gen = Rng(80).generator()
        # iterates always live in the image of the phase projection
        from isac_pareto.numerics import phase_project

        d = phase_project(random_unit_modulus(gen, 20))
        zeta = riemannian_gradient(d, gen.normal(size=20) + 1j * gen.normal(size=20))
        np.testing.assert_array_equal(retract(d, 0.0, zeta), d)
        out = retract(d, 0.3, zeta)
        assert np.max(np.abs(np.abs(out) - 1.0)) < 1e-14

    def test_retract_first_order_agreement(self):
        # ||retract(d, h, zeta) - (d + h zeta)|| = O(h^2): slope ~2 on log-log
        gen = Rng(81).generator()
        d = random_unit_modulus(gen, 50)
        zeta = riemannian_gradient(d, gen.normal(size=50) + 1j * gen.normal(size=50))
        hs = np.array([1e-2, 1e-3, 1e-4])
        errs = np.array([np.linalg.norm(retract(d, h, zeta) - (d + h * zeta)) for h in hs])
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.1)


def record_steps(monkeypatch):
    """Record (mu, penalty value) wherever the CG loop takes a gradient: at
    the start of each round and at every accepted step."""
    steps = []
    gradient = rf_epmo.euclidean_gradient

    def recorded(q, d, mu, parts=None):
        steps.append((mu, penalty_objective(q, d, mu)))
        return gradient(q, d, mu, parts)

    monkeypatch.setattr(rf_epmo, "euclidean_gradient", recorded)
    return steps


class TestEpmoSolve:
    def test_unconstrained_instance_converges(self, monkeypatch):
        gen = Rng(82).generator()
        q, _, _ = make_instance(gen, gamma=np.array([0.0, 0.0]), p_max=1e9)
        d0 = random_unit_modulus(gen, q.d_dim)
        steps = record_steps(monkeypatch)
        result = epmo_solve(q, d0)
        assert result.feasible
        assert {mu for mu, _ in steps} == {rf_epmo.MU0}  # penalty never escalated
        # the squared gradient norm the loop stopped on
        grad = riemannian_gradient(result.d, euclidean_gradient(q, result.d, rf_epmo.MU0))
        assert float(np.vdot(grad, grad).real) <= TOL_GRAD

    def test_objective_trace_nonincreasing_within_mu(self, monkeypatch):
        gen = Rng(83).generator()
        steps = record_steps(monkeypatch)
        for _ in range(10):
            q, _, _ = make_instance(gen, gamma=np.array([1.0, 1.0]), noise=0.2)
            d0 = random_unit_modulus(gen, q.d_dim)
            steps.clear()
            epmo_solve(q, d0)
            by_mu = {}
            for mu, value in steps:
                by_mu.setdefault(mu, []).append(value)
            for vals in by_mu.values():
                diffs = np.diff(np.array(vals))
                assert np.all(diffs <= 1e-9 * np.maximum(1.0, np.abs(np.array(vals[:-1]))))

    def test_final_violation_within_tolerance(self):
        gen = Rng(84).generator()
        feasible_count = 0
        for _ in range(30):
            q, _, _ = make_instance(gen, gamma=np.array([0.5, 0.5]), noise=0.1)
            d0 = random_unit_modulus(gen, q.d_dim)
            result = epmo_solve(q, d0)
            if result.feasible:
                assert constraint_violation(q, result.d) <= rf_epmo.TOL_VIOLATION
                feasible_count += 1
            if feasible_count >= 20:
                break
        assert feasible_count >= 20

    def test_iterates_unit_modulus_and_tangent_directions(self):
        gen = Rng(85).generator()
        q, _, _ = make_instance(gen, gamma=np.array([0.5, 0.5]), noise=0.1)
        d0 = random_unit_modulus(gen, q.d_dim)
        result = epmo_solve(q, d0)
        assert np.max(np.abs(np.abs(result.d) - 1.0)) < 1e-14

    @pytest.mark.parametrize("seed", [87, 89, 90])
    def test_penalty_escalation_monotone_in_final_objective(self, seed, monkeypatch):
        # a tighter penalty cannot land on a better objective value; checked
        # on fixed seeds where both runs converge into the same basin
        gen = Rng(seed).generator()
        q, _, _ = make_instance(gen, gamma=np.array([2.0, 2.0]), noise=0.3)
        d0 = random_unit_modulus(gen, q.d_dim)
        monkeypatch.setattr(rf_epmo, "MAX_OUTER", 1)
        monkeypatch.setattr(rf_epmo, "MU0", 10.0)
        r1 = epmo_solve(q, d0, tol_violation=1e30)
        monkeypatch.setattr(rf_epmo, "MU0", 100.0)
        r2 = epmo_solve(q, d0, tol_violation=1e30)
        assert q.objective(r2.d) >= q.objective(r1.d) - 1e-6

    def test_infeasible_report(self, monkeypatch):
        gen = Rng(87).generator()
        # impossible thresholds with microscopic power: infeasible by construction
        q, _, _ = make_instance(gen, gamma=np.array([1e9, 1e9]), noise=10.0, p_max=1e-9)
        d0 = random_unit_modulus(gen, q.d_dim)
        monkeypatch.setattr(rf_epmo, "MAX_OUTER", 3)
        monkeypatch.setattr(rf_epmo, "MAX_INNER", 60)
        result = epmo_solve(q, d0)
        assert not result.feasible
        assert constraint_violation(q, result.d) > rf_epmo.TOL_VIOLATION


def projection_residual(f_rf, f_r):
    """min_B ||F_rf B - F_r||^2 through an orthonormal basis of the RF columns."""
    q, _ = np.linalg.qr(f_rf)
    return float(np.linalg.norm(f_r - q @ (q.conj().T @ f_r)) ** 2)


class TestFitRfStage:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_descends_to_a_stationary_point(self, seed, monkeypatch):
        # the descent stops on TOL_GRAD or after MAX_INNER iterations; the
        # budget is raised so that each of these starts stops on TOL_GRAD
        monkeypatch.setattr(rf_epmo, "MAX_INNER", 5000)
        gen = Rng(95, seed).generator()
        rs = ideal_radar_precoder(np.linspace(-50, 30, 2), ArrayGeometry(6))
        f_rf = random_unit_modulus(gen, 18).reshape(6, 3, order="F")
        fit = fit_rf_stage(f_rf, rs.f_r)
        assert np.max(np.abs(np.abs(fit) - 1.0)) < 1e-14
        start = projection_residual(f_rf, rs.f_r)
        end = projection_residual(fit, rs.f_r)
        assert end < 0.5 * start
        # every phase direction is flat to the stopping test: the squared
        # Riemannian gradient norm TOL_GRAD bounds each unit slope by 1e-4
        eps = 1e-6
        for _ in range(10):
            theta = gen.normal(size=fit.shape)
            theta /= np.linalg.norm(theta)
            up = projection_residual(fit * np.exp(1j * eps * theta), rs.f_r)
            down = projection_residual(fit * np.exp(-1j * eps * theta), rs.f_r)
            assert abs(up - down) / (2 * eps) <= 1e-4 + 1e-6


class TestPenaltyConfig:
    """The penalty schedule: module constants read at call time."""

    def test_single_round_schedule_accepted(self, monkeypatch):
        gen = Rng(88).generator()
        q, _, _ = make_instance(gen, gamma=np.array([1e9, 1e9]), noise=10.0, p_max=1e-9)
        monkeypatch.setattr(rf_epmo, "MAX_OUTER", 1)
        monkeypatch.setattr(rf_epmo, "MAX_INNER", 1)
        steps = record_steps(monkeypatch)
        result = epmo_solve(q, random_unit_modulus(gen, q.d_dim))
        assert not result.feasible
        assert {mu for mu, _ in steps} == {rf_epmo.MU0}  # one penalty round
