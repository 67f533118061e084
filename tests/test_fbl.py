import math

import numpy as np
import pytest

from isac_pareto.fbl import (
    allocate_blocklengths,
    min_blocklength,
    solve_gamma_threshold,
)
from isac_pareto.model import fbl_rate
from isac_pareto.numerics import Rng, inv_q


def gamma_by_rate_bisection(target, beta, eps):
    """Independent oracle: invert fbl_rate directly over gamma."""
    lo = math.exp(target) - 1.0  # Shannon threshold, always below
    hi = math.exp(target + 2.0 * inv_q(eps) / math.sqrt(beta)) * 10.0
    assert fbl_rate(hi, beta, eps) > target
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fbl_rate(mid, beta, eps) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestGammaThreshold:
    def test_zero_target(self):
        assert solve_gamma_threshold(0.0, 128, 1e-5) == 0.0

    def test_huge_blocklength_approaches_shannon(self):
        target = 1.3
        gamma = solve_gamma_threshold(target, 10**14, 1e-5)
        assert gamma == pytest.approx(math.exp(target) - 1.0, rel=1e-6)

    def test_matches_direct_rate_inversion(self):
        gamma = solve_gamma_threshold(1.0, 128, 1e-5)
        want = gamma_by_rate_bisection(1.0, 128, 1e-5)
        assert gamma == pytest.approx(want, rel=1e-9)
        assert fbl_rate(gamma, 128, 1e-5) == pytest.approx(1.0, abs=1e-8)

    def test_roundtrip_over_random_triples(self):
        gen = Rng(21).generator()
        for _ in range(300):
            target = gen.uniform(0.01, 5.0)
            beta = int(gen.integers(16, 4097))
            eps = 10.0 ** gen.uniform(-9, -3)
            gamma = solve_gamma_threshold(target, beta, eps)
            assert abs(fbl_rate(gamma, beta, eps) - target) <= 1e-8
            # the root bracket 0 <= k < 2 tau, as gamma = exp(target + k/2) - 1
            tau = inv_q(eps) / math.sqrt(beta)
            assert math.exp(target) - 1.0 <= gamma < math.exp(target + tau) - 1.0

    def test_unique_sign_change_on_bracket(self):
        gen = Rng(22).generator()
        for _ in range(25):
            target = gen.uniform(0.01, 5.0)
            beta = int(gen.integers(16, 4097))
            eps = 10.0 ** gen.uniform(-9, -3)
            tau = inv_q(eps) / math.sqrt(beta)
            delta = math.exp(-target)
            ks = np.linspace(0.0, 2.0 * tau, 10_000)
            f = np.exp(ks) * (ks**2 - 4 * tau**2) + 4 * delta**2 * tau**2
            signs = np.sign(f)
            signs = signs[signs != 0]
            assert np.sum(signs[1:] * signs[:-1] < 0) == 1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            solve_gamma_threshold(1.0, 128, 0.5)
        with pytest.raises(ValueError):
            solve_gamma_threshold(-1.0, 128, 1e-5)

    @pytest.mark.parametrize("target, beta", [(math.nan, 128), (1.0, math.nan)])
    def test_nan_target_or_blocklength_rejected(self, target, beta):
        with pytest.raises(ValueError):
            solve_gamma_threshold(target, beta, 1e-5)


class TestMinBlocklength:
    def test_vacuous_at_zero(self):
        assert min_blocklength(0.0, 0.0, 1e-5) == 0.0

    @pytest.mark.parametrize("gamma", [-0.5, math.nan])
    def test_negative_or_nan_sinr_rejected(self, gamma):
        with pytest.raises(ValueError, match="nonnegative"):
            min_blocklength(gamma, 1.0, 1e-5)

    def test_inverts_rate_example(self):
        target = fbl_rate(10.0, 128, 1e-5)
        assert min_blocklength(10.0, target, 1e-5) == pytest.approx(128.0, rel=1e-9)

    def test_infeasible_above_shannon(self):
        assert min_blocklength(1.0, math.log(2.0) + 0.1, 1e-5) == math.inf


class TestAllocateBlocklengths:
    def test_remainder_rule(self):
        # lower bounds engineered to (100.2, 120.7) via direct construction
        gen = Rng(23).generator()
        target = 1.0
        gammas = []
        for bound in (100.2, 120.7):
            # find gamma whose min_blocklength at target is the bound
            lo, hi = math.exp(target) - 1.0 + 1e-9, 1e6
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if min_blocklength(mid, target, 1e-5) > bound:
                    lo = mid
                else:
                    hi = mid
            gammas.append(0.5 * (lo + hi))
        betas = allocate_blocklengths(gammas, 2.0, (0.5, 0.5), (1e-5, 1e-5), 256)
        assert betas is not None
        assert betas.sum() == 256
        assert betas[0] >= 101 and betas[1] >= 121
        # remainder split tracks the relative slack: ratios end nearly equal
        ratios = betas / np.array([101, 121])
        assert abs(ratios[0] - ratios[1]) < 0.02

    def test_infeasible_when_bounds_exceed_frame(self):
        # two users both needing > 128 symbols cannot share 256
        # supports 1.0 nats at beta=100 but not fewer
        gamma = solve_gamma_threshold(1.0, 100, 1e-5)
        out = allocate_blocklengths([gamma, gamma], 2.0, (0.5, 0.5), (1e-5, 1e-5), 150)
        assert out is None

    def test_shannon_short_user_returns_none(self):
        # user 0's Shannon rate ln(1+1) is below its 1.0-nat share: no
        # blocklength serves it, while user 1 would fit in a few symbols
        out = allocate_blocklengths([1.0, 1e6], 2.0, (0.5, 0.5), (1e-5, 1e-5), 256)
        assert out is None

    def test_feasible_output_meets_targets(self):
        gen = Rng(24).generator()
        for _ in range(50):
            m = int(gen.integers(1, 4))
            eta = gen.dirichlet(np.ones(m))
            rate = gen.uniform(0.1, 3.0)
            eps = [10.0 ** gen.uniform(-7, -4) for _ in range(m)]
            gammas = [
                solve_gamma_threshold(eta[i] * rate, int(gen.integers(64, 257)), eps[i])
                for i in range(m)
            ]
            betas = allocate_blocklengths(gammas, rate, eta, eps, 1024)
            if betas is None:
                continue
            assert betas.sum() == 1024
            assert np.all(betas >= 1)
            for i in range(m):
                assert fbl_rate(gammas[i], int(betas[i]), eps[i]) >= eta[i] * rate - 1e-12

    def test_monotone_in_frame(self):
        gammas = [5.0, 8.0]
        args = (1.5, (0.5, 0.5), (1e-5, 1e-5))
        feasible_at = [allocate_blocklengths(gammas, *args, n) is not None for n in range(2, 400)]
        # once feasible, always feasible for larger frames
        first = feasible_at.index(True)
        assert all(feasible_at[first:])
