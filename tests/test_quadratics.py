import numpy as np
import pytest

from isac_pareto.channel import ArrayGeometry, ChannelSet
from isac_pareto.model import HybridPrecoder, constraint_margins, ideal_radar_precoder, rbe
from isac_pareto.numerics import Rng
from isac_pareto.quadratics import QuadraticForms
from oracles import (
    delta,
    omega_p,
    omega_r_matrix,
    random_row_orthonormal,
    random_unit_modulus,
    upsilon,
    xi_r,
)


def make_instance(gen, n_tx=6, n_rf=3, m=2, n_tar=2, gamma=None, noise=0.1, p_max=4.0):
    h = gen.normal(size=(m, n_tx)) + 1j * gen.normal(size=(m, n_tx))
    ch = ChannelSet(h=h, cu_angles=np.zeros(m), distances=np.full(m, 50.0))
    rs = ideal_radar_precoder(np.linspace(-50, 30, n_tar), ArrayGeometry(n_tx))
    f_bb = gen.normal(size=(n_rf, m)) + 1j * gen.normal(size=(n_rf, m))
    u = random_row_orthonormal(gen, n_tar, m)
    if gamma is None:
        gamma = gen.uniform(0.5, 3.0, size=m)
    q = QuadraticForms(f_bb, u, ch.h, rs.f_r, gamma, noise, p_max)
    return q, ch, rs


class TestBuild:
    def test_single_user_delta_is_pure_signal_term(self):
        gen = Rng(30).generator()
        q, _, _ = make_instance(gen, m=1, n_tar=1, gamma=[2.0])
        want = -upsilon(q, 0, 0) / 2.0
        np.testing.assert_allclose(delta(q, 0), want, atol=1e-12)

    def test_sinr_form_matches_direct_expression(self):
        gen = Rng(31).generator()
        q, ch, _ = make_instance(gen)
        d = random_unit_modulus(gen, q.d_dim)
        f_rf = q.mat(d)
        _, sinr_res, _ = q.probe_eval(d)  # g_m(d) / noise
        for m in range(2):
            t = [ch.h[m].conj() @ f_rf @ q.f_bb[:, n] for n in range(2)]
            direct = sum(abs(t[n]) ** 2 for n in range(2) if n != m)
            direct -= abs(t[m]) ** 2 / q.gamma[m]
            direct += q.noise
            assert sinr_res[m] * q.noise == pytest.approx(direct, abs=1e-10)
            dense = (d.conj() @ delta(q, m) @ d).real + q.noise
            assert sinr_res[m] * q.noise == pytest.approx(dense, abs=1e-10)

    def test_objective_matches_frobenius_oracle(self):
        gen = Rng(32).generator()
        q, _, rs = make_instance(gen)
        d = random_unit_modulus(gen, q.d_dim)
        f_rf = q.mat(d)
        direct = np.linalg.norm(f_rf @ q.f_bb - rs.f_r @ q.u) ** 2
        assert q.objective(d) == pytest.approx(direct, abs=1e-10)
        # quadratic expansion d^H Xi d - 2 Re(a^H d) + e
        quad = (d.conj() @ xi_r(q) @ d).real - 2 * (q.a_r.conj() @ d).real + q.e_r
        assert q.objective(d) == pytest.approx(quad, abs=1e-9)

    def test_dimension_mismatch_rejected(self):
        gen = Rng(33).generator()
        q, ch, rs = make_instance(gen)
        with pytest.raises(ValueError):
            QuadraticForms(q.f_bb, q.u, ch.h, rs.f_r, [1.0], q.noise, q.p_max)

    @pytest.mark.parametrize("gamma", [[np.nan, 1.0], [-1.0, 1.0]])
    def test_nan_or_negative_threshold_rejected(self, gamma):
        # a NaN threshold must not mark its user inactive
        gen = Rng(33).generator()
        q, ch, rs = make_instance(gen)
        with pytest.raises(ValueError, match="nonnegative"):
            QuadraticForms(q.f_bb, q.u, ch.h, rs.f_r, gamma, q.noise, q.p_max)


class TestEvaluators:
    def test_objective_zero_at_exact_fit(self):
        gen = Rng(34).generator()
        # square RF stage, baseband chosen to cancel it exactly
        n_tx, m, n_tar = 4, 2, 2
        h = gen.normal(size=(m, n_tx)) + 1j * gen.normal(size=(m, n_tx))
        ch = ChannelSet(h=h, cu_angles=np.zeros(m), distances=np.full(m, 50.0))
        rs = ideal_radar_precoder([-40.0, 10.0], ArrayGeometry(n_tx))
        u = random_row_orthonormal(gen, n_tar, m)
        d = random_unit_modulus(gen, n_tx * n_tx)
        f_rf = d.reshape(n_tx, n_tx, order="F")
        f_bb = np.linalg.solve(f_rf, rs.f_r @ u)
        q = QuadraticForms(f_bb, u, ch.h, rs.f_r, [1.0, 1.0], 0.1, 4.0)
        assert q.objective(d) < 1e-18

    def test_power_constraint_values(self):
        # relative excess ||F_rf F_bb||^2 / P_max - 1 (margins) and normalized
        # residual (||F_rf F_bb||^2 - P_max) / P_max (penalty) agree
        gen = Rng(35).generator()
        q, _, _ = make_instance(gen, p_max=4.0)
        d = np.zeros(q.d_dim, dtype=complex)
        assert q.constraint_margins(d)[1] == pytest.approx(-1.0)
        assert q.probe_eval(d)[2] == pytest.approx(-1.0)
        d = random_unit_modulus(gen, q.d_dim)
        direct = (np.linalg.norm(q.mat(d) @ q.f_bb) ** 2 - 4.0) / 4.0
        assert q.constraint_margins(d)[1] == pytest.approx(direct, abs=1e-10)
        assert q.probe_eval(d)[2] == pytest.approx(direct, abs=1e-10)

    def test_power_constraint_zero_baseband(self):
        gen = Rng(36).generator()
        q, ch, rs = make_instance(gen)
        q2 = QuadraticForms(np.zeros_like(q.f_bb), q.u, ch.h, rs.f_r, q.gamma, q.noise, 4.0)
        d = random_unit_modulus(gen, q2.d_dim)
        assert q2.constraint_margins(d)[1] == pytest.approx(-1.0)
        assert q2.probe_eval(d)[2] == pytest.approx(-1.0)

    def test_global_phase_invariance(self):
        gen = Rng(37).generator()
        q, _, _ = make_instance(gen)
        d = random_unit_modulus(gen, q.d_dim)
        rot = d * np.exp(1j * 0.77)
        shortfall, excess = q.constraint_margins(d)
        rot_shortfall, rot_excess = q.constraint_margins(rot)
        np.testing.assert_allclose(rot_shortfall, shortfall, rtol=1e-10)
        assert rot_excess == pytest.approx(excess, rel=1e-10)
        np.testing.assert_allclose(q.probe_eval(rot)[1], q.probe_eval(d)[1], rtol=1e-10)

    def test_objective_matches_model_rbe(self):
        gen = Rng(38).generator()
        for _ in range(50):
            q, ch, rs = make_instance(gen)
            d = random_unit_modulus(gen, q.d_dim)
            pc = HybridPrecoder(f_rf=q.mat(d), f_bb=q.f_bb, u=q.u)
            assert q.objective(d) == pytest.approx(rbe(pc, rs), abs=1e-10)

    @pytest.mark.parametrize("gamma", [None, [0.0, 1.5], [0.0, 0.0]])
    def test_constraint_margins_match_model(self, gamma):
        gen = Rng(39).generator()
        q, ch, _ = make_instance(gen, gamma=gamma, p_max=0.5)
        for _ in range(5):
            d = random_unit_modulus(gen, q.d_dim)
            shortfall, excess = q.constraint_margins(d)
            want_shortfall, want_excess = constraint_margins(
                q.mat(d) @ q.f_bb, ch.h, q.gamma, q.noise, q.p_max)
            np.testing.assert_array_equal(shortfall, want_shortfall)
            assert excess == want_excess
            assert shortfall.shape == (q.active.size,)


class TestStructure:
    def test_signal_kron_identity(self):
        gen = Rng(40).generator()
        q, ch, _ = make_instance(gen)
        for _ in range(5):
            d = random_unit_modulus(gen, q.d_dim)
            for m in range(2):
                quad = (d.conj() @ upsilon(q, m, m) @ d).real
                direct = abs(ch.h[m].conj() @ q.mat(d) @ q.f_bb[:, m]) ** 2
                assert quad == pytest.approx(direct, abs=1e-10)

    def test_delta_hermitian_and_real_form(self):
        gen = Rng(41).generator()
        q, _, _ = make_instance(gen)
        for m in range(2):
            dense = delta(q, m)
            assert np.max(np.abs(dense - dense.conj().T)) < 1e-12
            d = random_unit_modulus(gen, q.d_dim)
            val = d.conj() @ dense @ d
            assert abs(val.imag) < 1e-12 * max(1.0, abs(val.real))

    def test_matvec_helpers_match_dense(self):
        gen = Rng(42).generator()
        q, _, _ = make_instance(gen)
        d = random_unit_modulus(gen, q.d_dim)
        eff = q.mat(d) @ q.f_bb
        np.testing.assert_allclose(q.xi_dot(eff), xi_r(q) @ d, atol=1e-10)
        t = q.residuals(eff)[0]
        for m in range(2):
            np.testing.assert_allclose(q.delta_from_gains(t[m], m), delta(q, m) @ d,
                                       atol=1e-10)

    def test_trace_constants(self):
        gen = Rng(43).generator()
        q, _, _ = make_instance(gen)
        assert q.c_r == pytest.approx(np.trace(xi_r(q)).real, rel=1e-12)
        assert q.c_p == pytest.approx(np.trace(omega_p(q)).real, rel=1e-12)
        for m in range(2):
            acc = sum(np.trace(upsilon(q, n, m)).real for n in range(2) if n != m)
            assert q.c_m[m] == pytest.approx(acc, rel=1e-12)

    def test_a_r_and_e_r(self):
        gen = Rng(44).generator()
        q, _, _ = make_instance(gen)
        f_r_vec = q.vec(q.f_r_u)
        np.testing.assert_allclose(q.a_r, omega_r_matrix(q).conj().T @ f_r_vec, atol=1e-12)
        assert q.e_r == pytest.approx(np.vdot(f_r_vec, f_r_vec).real, rel=1e-12)

    def test_normalized_residuals(self):
        # probe_eval's residuals are the dense quadratic forms in units of
        # the noise (SINR) and of the budget (power)
        gen = Rng(45).generator()
        q, _, _ = make_instance(gen)
        d = random_unit_modulus(gen, q.d_dim)
        _, res, power_res = q.probe_eval(d)
        for k, m in enumerate(q.active):
            dense = ((d.conj() @ delta(q, m) @ d).real + q.noise) / q.noise
            assert res[k] == pytest.approx(dense, abs=1e-9)
        dense_power = ((d.conj() @ omega_p(q) @ d).real - q.p_max) / q.p_max
        assert power_res == pytest.approx(dense_power, abs=1e-10)
