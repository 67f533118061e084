from statistics import NormalDist

import numpy as np
import pytest

from isac_pareto.numerics import Rng, RootBracket, bracketed_root, inv_q, phase_project
from oracles import inv_q_bisect, q_function, q_oracle


class TestInvQ:
    def test_half_maps_to_zero(self):
        assert inv_q(0.5) == 0.0

    # Frozen from the bisection oracle on the series/continued-fraction Q,
    # bracket (-12, 14), tol 1e-12.
    @pytest.mark.parametrize(
        "p, expected",
        [
            (1e-5, 4.264890793922888),
            (1e-6, 4.753424308822531),
        ],
    )
    def test_tail_values_match_bisection_oracle(self, p, expected):
        assert inv_q(p) == pytest.approx(expected, abs=1e-10)

    def test_relative_roundtrip_over_range(self):
        # |Q(inv_q(p)) - p| / p <= 1e-8 with Q from the independent oracle
        for p in np.logspace(-9, np.log10(0.5), 200):
            p = float(p)
            x = inv_q(p)
            assert abs(q_oracle(x) - p) / p <= 1e-8

    def test_absolute_accuracy_against_oracle(self):
        for p in np.logspace(-9, -0.5, 60):
            assert abs(inv_q(float(p)) - inv_q_bisect(float(p))) <= 1e-10

    def test_upper_half_is_negative(self):
        assert inv_q(0.9) < 0
        assert abs(q_function(inv_q(0.9)) - 0.9) < 1e-12

    def test_upper_half_matches_normal_dist(self):
        # p in [0.5, 1): Q^{-1}(p) = -Phi^{-1}(p), against the standard library
        for p in np.linspace(0.5, 1.0 - 1e-9, 201):
            p = float(p)
            assert abs(inv_q(p) + NormalDist().inv_cdf(p)) <= 1e-12

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5])
    def test_domain_errors(self, p):
        with pytest.raises(ValueError):
            inv_q(p)


class TestBracketedRoot:
    def test_linear_root(self):
        assert bracketed_root(lambda x: x - 1.0, RootBracket(0.0, 2.0, 1e-12)) == pytest.approx(1.0, abs=1e-12)

    def test_sqrt_two(self):
        root = bracketed_root(lambda x: x * x - 2.0, RootBracket(0.0, 2.0, 1e-12))
        assert root == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_transcendental_has_unique_sign_change(self):
        # e^k (k^2 - 4 tau^2) + 4 delta^2 tau^2 with tau=1, delta=0.5
        tau, delta = 1.0, 0.5

        def f(k):
            return np.exp(k) * (k * k - 4 * tau**2) + 4 * delta**2 * tau**2

        grid = np.linspace(0.0, 2.0, 20001)
        signs = np.sign(f(grid))
        changes = np.sum(signs[1:] * signs[:-1] < 0)
        assert changes == 1
        root = bracketed_root(f, RootBracket(0.0, 2.0, 1e-12))
        assert 0.0 < root < 2.0
        assert abs(f(root)) < 1e-10

    def test_monotone_accuracy(self):
        for target in (0.25, 0.5, 1.5):
            root = bracketed_root(lambda x: np.expm1(x) - target, RootBracket(0.0, 2.0, 1e-12))
            assert abs(root - np.log1p(target)) <= 1e-12

    def test_no_sign_change_raises(self):
        with pytest.raises(ValueError):
            bracketed_root(lambda x: x * x + 1.0, RootBracket(0.0, 2.0, 1e-12))

    def test_exact_endpoint_root(self):
        assert bracketed_root(lambda x: x, RootBracket(0.0, 2.0, 1e-12)) == 0.0


class TestPhaseProject:
    def test_phases_preserved_modulus_normalized(self):
        out = phase_project([2 + 0j, 0 + 3j])
        np.testing.assert_allclose(out, [1 + 0j, 0 + 1j], atol=1e-15)

    def test_diagonal_entry(self):
        out = phase_project([1 + 1j])
        np.testing.assert_allclose(out, [(1 + 1j) / np.sqrt(2)], atol=1e-15)

    def test_zero_maps_to_one(self):
        assert phase_project([0.0 + 0.0j])[0] == 1.0 + 0.0j

    def test_unit_modulus_everywhere(self):
        rng = Rng(7, 0).generator()
        v = rng.normal(size=5000) + 1j * rng.normal(size=5000)
        out = phase_project(v)
        assert np.max(np.abs(np.abs(out) - 1.0)) < 1e-15

    def test_phase_error_small(self):
        rng = Rng(7, 1).generator()
        v = rng.normal(size=2000) + 1j * rng.normal(size=2000)
        out = phase_project(v)
        # output phase must match the input phase to rounding error
        delta = np.angle(out * np.conj(v / np.abs(v)))
        assert np.max(np.abs(delta)) < 1e-14

    def test_exact_idempotency(self):
        rng = Rng(7, 2).generator()
        scale = np.exp(rng.uniform(-18, 18, size=200_000) * np.log(10))
        v = (rng.normal(size=200_000) + 1j * rng.normal(size=200_000)) * scale
        once = phase_project(v)
        twice = phase_project(once)
        assert np.array_equal(once, twice)


class TestRng:
    def test_identical_keys_identical_streams(self):
        a = Rng(123, 45).generator().normal(size=100)
        b = Rng(123, 45).generator().normal(size=100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = Rng(123, 0).generator().normal(size=100)
        b = Rng(123, 1).generator().normal(size=100)
        assert not np.array_equal(a, b)

    def test_key_bounds(self):
        with pytest.raises(ValueError):
            Rng(-1, 0)
        with pytest.raises(ValueError):
            Rng(0, 2**64)
