import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy.special import ndtri

from isac_pareto.numerics import Rng, bracketed_root, fast_unit, inv_q, phase_project
from oracles import inv_q_bisect, phase_project_reference, q_function, q_oracle


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

    def test_within_eight_ulp_of_scipy_ndtri(self):
        # inv_q takes the quantile from the standard library so that the
        # package need not import scipy; scipy's ndtri stays the accuracy
        # oracle, on both tails, the edges of Cephes' branches and every
        # configured error probability
        gen = Rng(17).generator()
        lower = 10.0 ** gen.uniform(-300.0, math.log10(0.5), 3000)
        upper = 1.0 - 10.0 ** gen.uniform(-16.0, math.log10(0.5), 3000)
        edges = []
        for edge in (math.exp(-2.0), 1.0 - math.exp(-2.0), math.exp(-32.0)):
            below = above = edge
            for _ in range(3):
                below = math.nextafter(below, 0.0)
                above = math.nextafter(above, 1.0)
                edges += [below, above]
            edges.append(edge)
        # the error probabilities the tests and the benchmark configure
        configured = [1e-9, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 0.5, 0.6, 0.9]
        ps = np.concatenate([lower, upper, edges, configured])
        got = np.array([inv_q(float(p)) for p in ps])
        want = -ndtri(ps)
        far = np.flatnonzero(np.abs(got - want) > 8.0 * np.spacing(np.abs(want)))
        assert [(ps[i], got[i].hex(), want[i].hex()) for i in far[:5]] == []


class TestBracketedRoot:
    def test_linear_root(self):
        assert bracketed_root(lambda x: x - 1.0, 0.0, 2.0, 1e-12) == pytest.approx(1.0, abs=1e-12)

    def test_sqrt_two(self):
        root = bracketed_root(lambda x: x * x - 2.0, 0.0, 2.0, 1e-12)
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
        root = bracketed_root(f, 0.0, 2.0, 1e-12)
        assert 0.0 < root < 2.0
        assert abs(f(root)) < 1e-10

    def test_monotone_accuracy(self):
        for target in (0.25, 0.5, 1.5):
            root = bracketed_root(lambda x: np.expm1(x) - target, 0.0, 2.0, 1e-12)
            assert abs(root - np.log1p(target)) <= 1e-12

    def test_no_sign_change_raises(self):
        with pytest.raises(ValueError):
            bracketed_root(lambda x: x * x + 1.0, 0.0, 2.0, 1e-12)

    def test_exact_endpoint_root(self):
        assert bracketed_root(lambda x: x, 0.0, 2.0, 1e-12) == 0.0

    @pytest.mark.parametrize("lo, hi, tol", [(1.0, 1.0, 1e-12), (2.0, 0.0, 1e-12),
                                             (0.0, 2.0, 0.0), (0.0, 2.0, -1e-12)])
    def test_bad_bounds_or_tolerance_raise(self, lo, hi, tol):
        # checked before f is evaluated: this f has a root in every bracket
        with pytest.raises(ValueError, match="lo < hi|tol"):
            bracketed_root(lambda x: x - 1.0, lo, hi, tol)


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


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def orbit_events(v):
    """Per entry, the first renormalization event of the exact projection:
    0 fixed at w0, 1 fixed at w1, 2 cycle (w0, w1), 3 fixed at w2, 4 cycle
    (w1, w2), 5 fixed at w3, 6 cycle (w2, w3), 7 none within four passes."""
    w = [np.where(v == 0, 1.0 + 0.0j, v)]
    w[0] = w[0] / np.abs(w[0])
    for _ in range(4):
        w.append(w[-1] / np.abs(w[-1]))
    conds = [w[1] == w[0]]
    for k in range(2, 5):
        conds += [w[k] == w[k - 1], w[k] == w[k - 2]]
    return np.select(conds, range(7), default=7)


class TestPhaseProjectMatchesReference:
    """The lazy projection returns the bits of the eager reference."""

    @staticmethod
    def inputs(key, n):
        gen = Rng(key, 0).generator()
        scale = np.exp(gen.uniform(-18, 18, size=n) * np.log(10))
        random = (gen.normal(size=n) + 1j * gen.normal(size=n)) * scale
        # unit-modulus points off by a few ulps, as a retraction produces
        near = np.exp(1j * gen.uniform(-np.pi, np.pi, n)) * (1 + 1e-15 * gen.normal(size=n))
        return random, near

    def test_every_orbit_event_matches(self):
        random, near = self.inputs(20, 100_000)
        v = np.concatenate([random, near])
        events = orbit_events(v)
        # every event of the reference occurs in this sample, 2-cycles
        # included, and no entry is left undecided
        assert set(np.unique(events)) == set(range(7))
        assert same_bits(phase_project(v), phase_project_reference(v))
        assert same_bits(phase_project(v.reshape(400, 500)),
                         phase_project_reference(v.reshape(400, 500)))

    def test_two_cycle_entries_alone(self):
        random, near = self.inputs(21, 50_000)
        v = np.concatenate([random, near])
        events = orbit_events(v)
        for event in (2, 4, 6):
            cyc = v[events == event]
            assert cyc.size > 0
            assert same_bits(phase_project(cyc), phase_project_reference(cyc))
            assert same_bits(phase_project(cyc[:1]), phase_project_reference(cyc[:1]))

    def test_small_calls_stop_at_every_pass(self):
        # solver-sized vectors (48 entries, 16 x 3 in 2-D) end their orbit
        # resolution at different passes; each must match the reference
        random, near = self.inputs(22, 48 * 300)
        last_pass = set()
        for v in np.concatenate([random, near]).reshape(-1, 48):
            last_pass.add((int(orbit_events(v).max()) + 1) // 2)
            assert same_bits(phase_project(v), phase_project_reference(v))
            m = v.reshape(16, 3, order="F")
            assert same_bits(phase_project(m), phase_project_reference(m))
        assert last_pass == {1, 2, 3}

    def test_fixed_points_return_first_pass(self):
        v = np.array([1.0 + 0.0j, -1.0, 1j, -1j, 0.6 + 0.8j])
        assert np.all(orbit_events(v) == 0)
        assert same_bits(phase_project(v), phase_project_reference(v))
        assert same_bits(phase_project(v[None, :]), phase_project_reference(v[None, :]))

    def test_zero_and_nonfinite_entries(self):
        v = np.array([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0), np.nan,
                      complex(1.0, np.nan), np.inf, complex(np.inf, 1.0), 3 - 4j])
        with np.errstate(invalid="ignore"):
            out = phase_project(v)
            assert same_bits(out, phase_project_reference(v))
            assert same_bits(phase_project(v.reshape(3, 3)),
                             phase_project_reference(v.reshape(3, 3)))
        assert np.all(out[:4] == 1.0)
        assert same_bits(phase_project(np.zeros((2, 3))),
                         phase_project_reference(np.zeros((2, 3))))


class TestFastUnit:
    def test_matches_one_pass_normalization(self):
        gen = Rng(23, 0).generator()
        v = gen.normal(size=(50, 3)) + 1j * gen.normal(size=(50, 3))
        assert same_bits(fast_unit(v), v / np.abs(v))

    def test_zero_entries_map_to_one(self):
        v = np.array([0.0, -0.0, complex(0.0, -0.0), 2.0 + 2.0j])
        out = fast_unit(v)
        assert same_bits(out[:3], np.ones(3, dtype=np.complex128))
        assert same_bits(out[3:], v[3:] / np.abs(v[3:]))

    def test_nan_entries_stay_nan(self):
        v = np.array([np.nan, complex(1.0, np.nan), 0.0, 3 - 4j])
        want = np.where(v == 0, 1.0 + 0.0j, v)
        with np.errstate(invalid="ignore"):
            out = fast_unit(v)
            assert same_bits(out, want / np.abs(want))
        assert np.isnan(out[:2]).all() and out[2] == 1.0


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
        # a float seed would otherwise draw the stream of its integer part
        for seed, stream_id in [(1.5, 0), (1.0, 0), (0, 2.5), (0, "1")]:
            with pytest.raises(ValueError, match="integer"):
                Rng(seed, stream_id)
        Rng(np.uint64(2**64 - 1), np.int64(0))
