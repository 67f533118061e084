import numpy as np
import pytest

from isac_pareto.channel import ArrayGeometry, ChannelSet, generate_channels, steering_vector
from isac_pareto.model import (
    HybridPrecoder,
    RadarSpec,
    SystemConfig,
    constraint_margins,
    dispersion,
    fbl_rate,
    ideal_radar_precoder,
    rbe,
    shannon_rate,
    sinr,
)
from isac_pareto.numerics import Rng
from isac_pareto.tlbs import ParetoPoint, validate_point
from oracles import beampattern, desired_beampattern, frobenius_loop, inv_q_bisect, sinr_loop


def random_instance(gen, n_tx=8, n_rf=3, m=2, n_tar=2):
    f_rf = np.exp(1j * gen.uniform(-np.pi, np.pi, (n_tx, n_rf)))
    f_bb = gen.normal(size=(n_rf, m)) + 1j * gen.normal(size=(n_rf, m))
    q, _ = np.linalg.qr(gen.normal(size=(m, n_tar)) + 1j * gen.normal(size=(m, n_tar)))
    u = q[:, :n_tar].conj().T
    h = gen.normal(size=(m, n_tx)) + 1j * gen.normal(size=(m, n_tx))
    ch = ChannelSet(h=h, cu_angles=np.zeros(m), distances=np.full(m, 50.0))
    pc = HybridPrecoder(f_rf=f_rf, f_bb=f_bb, u=u)
    rs = ideal_radar_precoder(np.linspace(-60, 20, n_tar), ArrayGeometry(n_tx))
    return ch, pc, rs


class TestSystemConfig:
    def test_defaults_valid(self):
        cfg = SystemConfig()
        assert cfg.n_tx == 128 and cfg.p_max == 1.0

    def test_eta_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SystemConfig(eta=(0.3, 0.3))

    def test_chain_ordering_enforced(self):
        with pytest.raises(ValueError):
            SystemConfig(n_rf=1)  # fewer chains than users

    @pytest.mark.parametrize("eps", [(0.6, 0.6), (1e-5, 0.5), (0.0, 1e-5)])
    def test_error_probability_below_half(self, eps):
        # the SINR-threshold inversion needs Q^{-1}(eps) > 0, so the
        # configuration is rejected when built, not inside the first probe
        with pytest.raises(ValueError, match="error probabilities"):
            SystemConfig(n_tx=16, n_rf=3, eps=eps)

    # fields that generate_channels, ideal_radar_precoder or a solver cannot
    # use are rejected when the configuration is built, not inside a solve
    @pytest.mark.parametrize("fields, match", [
        (dict(distances_m=(30.0,)), "distances_m"),            # n_cu = 2
        (dict(distances_m=(30.0, 0.0)), "distances"),
        (dict(distances_m=(-5.0, 40.0)), "distances"),
        (dict(n_clu=0), "cluster"),
        (dict(n_ray=0), "cluster"),
        (dict(angular_spread_deg=-1.0), "angular spread"),
        (dict(cu_angles_deg=(30.0,)), "cu_angles_deg"),
        (dict(cu_angles_deg=(30.0, 60.0, 10.0)), "cu_angles_deg"),
        (dict(shadow_std_db=-0.5), "shadowing"),
        (dict(target_angles_deg=(-95.0, -20.0)), "target angles"),
        (dict(target_angles_deg=(-60.0, 90.5)), "target angles"),
        (dict(p_max=float("nan")), "p_max"),
        (dict(p_max=float("inf")), "p_max"),
        (dict(noise=float("nan")), "noise"),
        (dict(noise=float("inf")), "noise"),
        (dict(e_max=float("nan")), "e_max"),
        (dict(e_max=-0.1), "e_max"),
        (dict(spacing_over_lambda=0.0), "spacing"),
        (dict(spacing_over_lambda=-0.5), "spacing"),
        (dict(n_tar=0, target_angles_deg=()), "n_tar"),
        (dict(frame_budget=2.5), "frame budget"),
        (dict(frame_budget=128.0), "frame budget"),
        (dict(n_rf=4, n_tar=3, target_angles_deg=(-50., 10., 40.)), "n_tar"),
        (dict(n_tx=16.5, n_rf=3), "n_tx"),
        (dict(n_rf=3.0), "n_rf"),
        (dict(n_cu=2.0), "n_cu"),
        (dict(n_tar=2.0), "n_tar"),
        (dict(n_clu=2.5), "n_clu"),
        (dict(n_ray=3.0), "n_ray"),
    ])
    def test_channel_fields_rejected(self, fields, match):
        with pytest.raises(ValueError, match=match):
            SystemConfig(**fields)

    @pytest.mark.parametrize("fields", [
        dict(distances_m=(30.0, 40.0)),
        dict(cu_angles_deg=None, distances_m=None),
        dict(angular_spread_deg=0.0, shadow_std_db=0.0, n_clu=1, n_ray=1),
        dict(target_angles_deg=(-90.0, 90.0)),
        dict(e_max=float("inf")),                   # no sensing cap
        dict(frame_budget=np.int64(128)),
        dict(n_rf=np.int64(3), n_clu=np.int64(2), n_ray=np.int64(3)),
    ])
    def test_channel_field_edges_accepted(self, fields):
        cfg = SystemConfig(**fields)
        ch = generate_channels(cfg.with_updates(n_tx=8), Rng(3, 0))
        assert ch.h.shape == (cfg.n_cu, 8)
        assert ch.cu_angles.shape == ch.distances.shape == (cfg.n_cu,)


class TestIdealRadarPrecoder:
    def test_single_target_broadside(self):
        rs = ideal_radar_precoder([0.0], ArrayGeometry(4))
        np.testing.assert_allclose(rs.f_r[:, 0], 0.5 * np.ones(4), atol=1e-15)

    def test_symmetric_targets_are_conjugate(self):
        rs = ideal_radar_precoder([25.0, -25.0], ArrayGeometry(16))
        np.testing.assert_allclose(rs.f_r[:, 1], np.conj(rs.f_r[:, 0]), atol=1e-14)

    def test_gram_unit_diagonal(self):
        rs = ideal_radar_precoder([-60.0, -20.0, 10.0], ArrayGeometry(32))
        gram = rs.f_r.conj().T @ rs.f_r
        np.testing.assert_allclose(np.diag(gram).real, np.ones(3), atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ideal_radar_precoder([], ArrayGeometry(4))

    def test_nonfinite_power_rejected(self):
        for power in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                ideal_radar_precoder([0.0], ArrayGeometry(4), power=power)


class TestSinr:
    def test_single_user_no_interference(self):
        gen = Rng(0).generator()
        ch, pc, _ = random_instance(gen, m=1, n_tar=1)
        noise = 0.3
        got = sinr(ch, pc, noise)
        expected = abs(ch.h[0].conj() @ pc.effective()[:, 0]) ** 2 / noise
        assert got[0] == pytest.approx(expected, rel=1e-12)

    def test_zero_precoder(self):
        gen = Rng(1).generator()
        ch, pc, _ = random_instance(gen)
        pc.f_bb = np.zeros_like(pc.f_bb)
        np.testing.assert_array_equal(sinr(ch, pc, 1.0), np.zeros(2))

    def test_matches_scalar_loop_oracle(self):
        gen = Rng(2).generator()
        for _ in range(5):
            ch, pc, _ = random_instance(gen, n_tx=5, n_rf=3, m=3, n_tar=2)
            got = sinr(ch, pc, 0.7)
            want = sinr_loop(ch.h, pc.f_rf, pc.f_bb, 0.7)
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_phase_rotation_invariance(self):
        gen = Rng(3).generator()
        ch, pc, _ = random_instance(gen)
        base = sinr(ch, pc, 1e-3)
        pc.f_bb = pc.f_bb * np.exp(1j * gen.uniform(-np.pi, np.pi, pc.f_bb.shape[1]))
        np.testing.assert_allclose(sinr(ch, pc, 1e-3), base, rtol=1e-10)


class TestConstraintMargins:
    @staticmethod
    def oracle(ch, pc, gamma, noise, p_max):
        gam = sinr_loop(ch.h, pc.f_rf, pc.f_bb, noise)
        active = [m for m in range(len(gamma)) if gamma[m] > 0]
        shortfall = np.array([1.0 - gam[m] / gamma[m] for m in active])
        return shortfall, frobenius_loop(pc.f_rf @ pc.f_bb) / p_max - 1.0

    def test_matches_scalar_loop_oracle(self):
        gen = Rng(20).generator()
        for scale in (0.5, 2.0, 0.5, 2.0):   # over and under the power budget
            ch, pc, _ = random_instance(gen, n_tx=5, n_rf=3, m=3, n_tar=2)
            gamma = gen.uniform(0.1, 3.0, size=3)
            p_max = scale * pc.transmit_power()
            shortfall, excess = constraint_margins(pc.effective(), ch.h, gamma, 0.7, p_max)
            want_shortfall, want_excess = self.oracle(ch, pc, gamma, 0.7, p_max)
            np.testing.assert_allclose(shortfall, want_shortfall, rtol=1e-12, atol=1e-12)
            assert excess == pytest.approx(want_excess, rel=1e-12)
            assert excess == pytest.approx(1.0 / scale - 1.0, rel=1e-12)

    def test_dropped_user_has_no_shortfall(self):
        gen = Rng(21).generator()
        ch, pc, _ = random_instance(gen, m=3)
        gamma = np.array([1.5, 0.0, 2.0])
        shortfall, _ = constraint_margins(pc.effective(), ch.h, gamma, 0.2, 10.0)
        want, _ = self.oracle(ch, pc, gamma, 0.2, 10.0)
        assert shortfall.shape == (2,)
        np.testing.assert_allclose(shortfall, want, rtol=1e-12, atol=1e-12)
        none_active, _ = constraint_margins(pc.effective(), ch.h, np.zeros(3), 0.2, 10.0)
        assert none_active.shape == (0,)


class TestRates:
    def test_dispersion_values(self):
        assert dispersion(0.0) == 0.0
        assert dispersion(1.0) == pytest.approx(0.75)

    def test_dispersion_monotone_to_one(self):
        grid = np.logspace(-2, 6, 100)
        vals = dispersion(grid)
        assert np.all(np.diff(vals) > 0)
        assert vals[-1] < 1.0

    def test_dispersion_domain(self):
        with pytest.raises(ValueError):
            dispersion(-0.5)

    def test_zero_sinr_rate(self):
        assert fbl_rate(0.0, 128, 1e-5) == 0.0

    def test_large_blocklength_approaches_shannon(self):
        gamma = 4.2
        assert fbl_rate(gamma, 10**12, 1e-5) == pytest.approx(shannon_rate(gamma), abs=1e-5)

    def test_reference_value(self):
        # ln(11) - sqrt(V(10)/128) * Qinv(1e-5), Qinv frozen from the
        # bisection oracle: 4.264890793922888
        want = np.log(11.0) - np.sqrt(dispersion(10.0) / 128.0) * 4.264890793922888
        assert want == pytest.approx(2.0224895678, abs=1e-9)
        assert fbl_rate(10.0, 128, 1e-5) == pytest.approx(want, abs=1e-10)

    def test_monotone_in_beta_and_gamma(self):
        betas = np.arange(16, 16 + 100)
        rates = fbl_rate(2.0, betas, 1e-5)
        assert np.all(np.diff(rates) > 0)
        gammas = np.linspace(0.05, 30.0, 100)
        rates_g = fbl_rate(gammas, 128, 1e-5)
        assert np.all(np.diff(rates_g) > 0)

    def test_can_be_negative_at_tiny_blocklength(self):
        assert fbl_rate(0.05, 1, 1e-6) < 0


class TestRbe:
    def test_zero_when_exact_match(self):
        # square invertible RF stage lets the baseband cancel it exactly
        gen = Rng(4).generator()
        _, pc, rs = random_instance(gen, n_tx=4, n_rf=4, m=2, n_tar=2)
        pc.f_bb = np.linalg.solve(pc.f_rf, rs.f_r @ pc.u)
        assert rbe(pc, rs) < 1e-20

    def test_zero_baseband_gives_projected_norm(self):
        gen = Rng(5).generator()
        ch, pc, rs = random_instance(gen, m=2, n_tar=2)
        pc.f_bb = np.zeros_like(pc.f_bb)
        want = np.linalg.norm(rs.f_r @ pc.u) ** 2
        assert rbe(pc, rs) == pytest.approx(want, rel=1e-12)

    def test_matches_entrywise_oracle(self):
        gen = Rng(6).generator()
        for _ in range(5):
            ch, pc, rs = random_instance(gen)
            want = frobenius_loop(pc.effective() - rs.f_r @ pc.u)
            assert rbe(pc, rs) == pytest.approx(want, rel=1e-12)


class TestBeampattern:
    def test_rank_one_peak(self):
        geom = ArrayGeometry(16)
        a0 = steering_vector(12.0, geom)
        pc = HybridPrecoder(
            f_rf=np.sqrt(16) * a0.reshape(-1, 1),
            f_bb=np.array([[3.0]]),
            u=np.array([[1.0 + 0j]]),
        )
        g = beampattern(pc, [12.0], geom)
        # F = 3*sqrt(16)*a0, so G(12deg) = |a0^H F|^2 = 9 * 16
        assert g[0] == pytest.approx(9.0 * 16, rel=1e-10)

    def test_nonnegative_everywhere(self):
        gen = Rng(7).generator()
        ch, pc, rs = random_instance(gen, n_tx=16, n_rf=4)
        g = beampattern(pc, np.arange(-90, 91, 1.0), ArrayGeometry(16))
        assert np.all(g >= 0.0)

    def test_mean_over_sine_grid_equals_average_power(self):
        gen = Rng(8).generator()
        ch, pc, rs = random_instance(gen, n_tx=16, n_rf=4)
        u = np.linspace(-1, 1, 20001)
        grid = np.rad2deg(np.arcsin(u))
        g = beampattern(pc, grid, ArrayGeometry(16))
        cx_trace = np.linalg.norm(pc.effective()) ** 2
        assert np.mean(g) == pytest.approx(cx_trace / 16, rel=0.02)

    def test_factored_equals_explicit_covariance(self):
        gen = Rng(9).generator()
        ch, pc, rs = random_instance(gen, n_tx=12, n_rf=3)
        geom = ArrayGeometry(12)
        grid = np.linspace(-90, 90, 37)
        got = beampattern(pc, grid, geom)
        f = pc.effective()
        cx = f @ f.conj().T
        for theta, val in zip(grid, got):
            a = steering_vector(theta, geom)
            want = (a.conj() @ cx @ a).real
            assert val == pytest.approx(want, abs=1e-10 * max(1, abs(want)))


class TestDesiredBeampattern:
    def test_single_window(self):
        np.testing.assert_array_equal(
            desired_beampattern([0.0], 1.0, [-2.0, 0.0, 2.0]), [0.0, 1.0, 0.0]
        )

    def test_open_interval_edge(self):
        assert desired_beampattern([0.0], 1.0, [1.0])[0] == 0.0

    def test_union_of_windows(self):
        mask = desired_beampattern([-60.0, -20.0], 2.0, [-60.5, -40.0, -19.0])
        np.testing.assert_array_equal(mask, [1.0, 0.0, 1.0])


class TestHybridPrecoderValidate:
    """Structural invariants of a hybrid precoder, as validate_point checks them."""

    @staticmethod
    def failures(ch, pc, rs, p_max=1.0, e_max=1e9):
        cfg = SystemConfig(n_tx=8, n_rf=3, p_max=p_max, e_max=e_max)
        # an infinite-blocklength point at rate 0: every Shannon share holds
        point = ParetoPoint(feasible=True, rate_nats=0.0, rate_bits=0.0,
                            rbe=rbe(pc, rs), precoder=pc,
                            beta=np.array([64, 64]), scheme="ibl_epmo")
        return validate_point(cfg, ch, rs, point)

    def test_accepts_valid(self):
        gen = Rng(10).generator()
        ch, pc, rs = random_instance(gen)
        pc.f_bb = pc.f_bb / np.linalg.norm(pc.effective()) * 0.9
        assert self.failures(ch, pc, rs) == []

    def test_rejects_modulus_violation(self):
        gen = Rng(11).generator()
        ch, pc, rs = random_instance(gen)
        pc.f_bb = pc.f_bb / np.linalg.norm(pc.effective()) * 0.9
        pc.f_rf[0, 0] = 2.0
        assert any("unit modulus" in f for f in self.failures(ch, pc, rs))

    def test_rejects_power_violation(self):
        gen = Rng(12).generator()
        ch, pc, rs = random_instance(gen)
        pc.f_bb = pc.f_bb / np.linalg.norm(pc.effective()) * 2.0
        assert any("exceeds budget" in f for f in self.failures(ch, pc, rs))

    def test_rejects_nan_precoder(self):
        # every check fails a NaN, so a NaN point cannot pass them all
        gen = Rng(14).generator()
        ch, pc, rs = random_instance(gen)
        pc.f_bb = np.full_like(pc.f_bb, np.nan)
        failures = self.failures(ch, pc, rs)
        for what in ("exceeds budget", "exceeds cap", "does not match", "below its share"):
            assert any(what in f for f in failures), what

    def test_small_budget_and_cap_checked_relatively(self):
        # 1.9x a budget of 1e-8 W, and 1.9x a sensing cap of 1e-8: an
        # absolute slack of 1e-8 would accept both
        gen = Rng(13).generator()
        ch, pc, rs = random_instance(gen)
        pc.f_bb = pc.f_bb / np.linalg.norm(pc.effective()) * np.sqrt(1.9e-8)
        assert any("exceeds budget" in f for f in self.failures(ch, pc, rs, p_max=1e-8))
        assert self.failures(ch, pc, rs, p_max=2e-8) == []
        # a reference the precoder misses by 1.9e-8: U is square unitary,
        # so F_r U = F + E for F_r = (F + E) U^H
        miss = gen.normal(size=(8, 2)) + 1j * gen.normal(size=(8, 2))
        miss *= np.sqrt(1.9e-8) / np.linalg.norm(miss)
        near = RadarSpec(f_r=(pc.effective() + miss) @ pc.u.conj().T,
                         target_angles_deg=rs.target_angles_deg)
        assert rbe(pc, near) == pytest.approx(1.9e-8, rel=1e-6)
        assert any("exceeds cap" in f
                   for f in self.failures(ch, pc, near, p_max=2e-8, e_max=1e-8))
        assert self.failures(ch, pc, near, p_max=2e-8, e_max=2e-8) == []
