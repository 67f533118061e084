import numpy as np
import pytest

from isac_pareto.channel import (
    ArrayGeometry,
    _laplacian_offsets,
    generate_channels,
    path_loss_db,
    steering_vector,
)
from isac_pareto.model import SystemConfig
from isac_pareto.numerics import Rng


def small_cfg(**kwargs):
    defaults = dict(
        n_tx=8,
        n_rf=2,
        n_cu=1,
        n_tar=1,
        eps=(1e-5,),
        eta=(1.0,),
        target_angles_deg=(-20.0,),
        cu_angles_deg=(30.0,),
        distances_m=(50.0,),
        frame_budget=128,
    )
    defaults.update(kwargs)
    return SystemConfig(**defaults)


class TestSteeringVector:
    def test_broadside(self):
        out = steering_vector(0.0, ArrayGeometry(4))
        np.testing.assert_allclose(out, 0.5 * np.ones(4), atol=1e-15)

    def test_endfire_two_elements(self):
        out = steering_vector(90.0, ArrayGeometry(2, 0.5))
        np.testing.assert_allclose(out, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12)

    def test_unit_norm_random_angles(self):
        gen = Rng(3).generator()
        geom = ArrayGeometry(16)
        for angle in gen.uniform(-90, 90, size=100):
            assert np.linalg.norm(steering_vector(angle, geom)) == pytest.approx(1.0, abs=1e-12)

    def test_conjugate_symmetry(self):
        geom = ArrayGeometry(32)
        for angle in (10.0, 45.0, 77.5):
            np.testing.assert_allclose(
                steering_vector(-angle, geom),
                np.conj(steering_vector(angle, geom)),
                atol=1e-14,
            )

    def test_domain(self):
        with pytest.raises(ValueError):
            steering_vector(91.0, ArrayGeometry(4))


class TestArrayGeometry:
    def test_non_integer_count_rejected(self):
        for n in (4.5, 4.0):
            with pytest.raises(ValueError, match="n_elements"):
                ArrayGeometry(n)
        assert ArrayGeometry(np.int64(4)).n_elements == 4


class TestPathLoss:
    def test_reference_distance(self):
        assert path_loss_db(1.0, 0.0) == pytest.approx(61.4)

    def test_hundred_meters(self):
        assert path_loss_db(100.0, 0.0) == pytest.approx(101.4)

    def test_with_shadowing(self):
        assert path_loss_db(10.0, 5.8) == pytest.approx(87.2)

    def test_domain(self):
        with pytest.raises(ValueError):
            path_loss_db(0.0)


class TestGenerateChannels:
    def test_single_path_collapse(self):
        # With one cluster and one ray the sum degenerates to
        # sqrt(N_t) * alpha * a(theta_ray); replay the stream to check it.
        cfg = small_cfg(n_clu=1, n_ray=1, shadow_std_db=0.0)
        rng = Rng(11, 4)
        ch = generate_channels(cfg, rng)

        gen = rng.generator()
        center = gen.uniform(-90.0, 90.0, size=1)[0]
        ray = _laplacian_offsets(gen, center, cfg.angular_spread_deg / np.sqrt(2.0), 1)[0]
        gain_var = 10.0 ** (-0.1 * path_loss_db(50.0, 0.0))
        alpha = np.sqrt(gain_var / 2.0) * (gen.normal(size=1) + 1j * gen.normal(size=1))[0]
        expected = np.sqrt(cfg.n_tx) * alpha * steering_vector(ray, cfg.geometry)
        np.testing.assert_allclose(ch.h[0], expected, rtol=1e-12)

    def test_mean_gain_matches_path_loss(self):
        cfg = small_cfg(shadow_std_db=0.0)
        expected = cfg.n_tx * 10.0 ** (-0.1 * path_loss_db(50.0, 0.0))
        total = 0.0
        draws = 10_000
        for trial in range(draws):
            ch = generate_channels(cfg, Rng(99, trial))
            total += np.linalg.norm(ch.h[0]) ** 2
        mean = total / draws
        assert abs(mean - expected) / expected <= 0.05

    def test_determinism(self):
        cfg = small_cfg(n_cu=2, n_rf=2, eps=(1e-5, 1e-5), eta=(0.5, 0.5),
                        cu_angles_deg=None, distances_m=None)
        a = generate_channels(cfg, Rng(5, 17))
        b = generate_channels(cfg, Rng(5, 17))
        np.testing.assert_array_equal(a.h, b.h)
        np.testing.assert_array_equal(a.distances, b.distances)
        np.testing.assert_array_equal(a.cu_angles, b.cu_angles)

    def test_offsets_stay_in_domain(self):
        gen = Rng(1).generator()
        rays = _laplacian_offsets(gen, 85.0, 30.0, 500)
        assert np.all(rays >= -90.0) and np.all(rays <= 90.0)
