"""The incumbent check of `solve_bb`: a KKT polish from f_ref, taken only
when it certifies the optimum of the convex cone program.

A certified point must be the cold solve's optimum, a polish that lands on
the wrong nappe of a cone (s = c^T x < 0, where u = s^2 - ||y||^2 is also
nonnegative) must be refused, and inside a BCD run later baseband steps
must skip the barrier path.
"""

import numpy as np
import pytest

from isac_pareto import bb_solver, tlbs
from isac_pareto.bb_solver import InfeasibleSubproblem, solve_bb
from isac_pareto.model import constraint_margins, feasible
from isac_pareto.numerics import Rng
from isac_pareto.tlbs import SolveOptions, init_precoder, inner_bcd
from test_bb_solver import achieved_sinr, make_data
from test_tlbs import scenario


def binding_instance(gen, target_scale=1.0):
    """solve_bb arguments of a make_data program whose SINR cones bind, and
    an incumbent: its optimum after three re-solves that realign the rims.

    target_scale 0 makes it minimum-power precoding, whose objective is
    even in x. Raises InfeasibleSubproblem when the cones are empty.
    """
    f_rf, h, f_r, u, target = make_data(gen)
    fit = solve_bb(f_rf, h, target, [0.0, 0.0], p_max=10.0, noise=0.1)
    gam = achieved_sinr(h, f_rf, fit.f_bb, 0.1) * gen.uniform(1.5, 4.0, size=2) + 0.5
    args = (f_rf, h, target_scale * target, gam, 10.0, 0.1)
    f_ref = solve_bb(*args).f_bb
    for _ in range(3):
        f_ref = solve_bb(*args, f_ref=f_ref).f_bb
    return args, f_ref


def uncertified(*args, **kwargs):
    """solve_bb without the incumbent check: phase one and the barrier path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bb_solver, "_certify_incumbent", lambda prog, x: None)
        return solve_bb(*args, **kwargs)


@pytest.fixture
def certificates(monkeypatch):
    """(program, start, certified point or None) of every incumbent check."""
    calls = []
    certify = bb_solver._certify_incumbent

    def recorded(prog, x):
        out = certify(prog, x)
        calls.append((prog, x, out))
        return out

    monkeypatch.setattr(bb_solver, "_certify_incumbent", recorded)
    return calls


def f0(prog, x):
    return float(x @ prog.p_quad @ x - 2.0 * prog.q_lin @ x)


class TestCertifiedIncumbent:
    def test_certified_answer_matches_a_cold_solve(self, certificates):
        # the target moves, as it does when the BCD updates U; the old
        # optimum's active set still holds, so the check certifies the new one
        gen = Rng(107).generator()
        certified = 0
        for _ in range(20):
            try:
                (f_rf, h, target, gam, p_max, noise), f_ref = binding_instance(gen)
            except InfeasibleSubproblem:
                continue
            shift = gen.normal(size=target.shape) + 1j * gen.normal(size=target.shape)
            args = (f_rf, h, target + 1e-3 * shift, gam, p_max, noise)
            certificates.clear()
            sol = solve_bb(*args, f_ref=f_ref)
            cold = uncertified(*args, f_ref=f_ref)
            assert abs(sol.objective - cold.objective) <= 1e-9 * cold.objective
            assert feasible(constraint_margins(f_rf @ sol.f_bb, h, gam, noise, p_max))
            certified += certificates[0][2] is not None
        assert certified >= 5

    def test_polish_short_of_kkt_tol_falls_through(self, monkeypatch):
        # the check takes a polish only at a stationarity residual of at
        # most KKT_TOL; one that stops short (here the incumbent itself, with
        # a residual of 10 KKT_TOL) leaves the program to the barrier path
        (f_rf, h, target, *rest), f_ref = binding_instance(Rng(107).generator())
        args = (f_rf, h, 1.01 * target, *rest)
        cold = uncertified(*args, f_ref=f_ref)
        refine = bb_solver._refine_with_active_set
        calls = []

        def short_first(prog, x, nus, active):
            calls.append(x)
            if len(calls) == 1:
                return x, 10 * bb_solver.KKT_TOL
            return refine(prog, x, nus, active)

        monkeypatch.setattr(bb_solver, "_refine_with_active_set", short_first)
        sol = solve_bb(*args, f_ref=f_ref)
        # the first polish was the check's, from the incumbent; then the path ran
        x_ref = bb_solver._lift_vector(f_ref.reshape(-1, order="F"))
        np.testing.assert_array_equal(calls[0], x_ref)
        assert len(calls) > 1
        np.testing.assert_array_equal(sol.f_bb, cold.f_bb)


class TestWrongNappe:
    @pytest.mark.parametrize("target_scale", [0.0, 1.0])
    def test_polish_from_the_negated_optimum_is_refused(self, certificates, target_scale):
        # -x* has every slack u of x*: J's last row is zero, y0 is the
        # constant 1 and the ball is symmetric. With an even objective
        # (target 0), -x* is itself stationary with x*'s multipliers, so the
        # polish stays there, on the s < 0 nappe, and only the rim test
        # refuses it; otherwise a point it takes must be an optimum
        gen = Rng(106).generator()
        negated = 0
        for _ in range(12):
            try:
                args, f_ref = binding_instance(gen, target_scale)
            except InfeasibleSubproblem:
                continue
            certificates.clear()
            f_opt = solve_bb(*args, f_ref=f_ref).f_bb
            x_opt = bb_solver._lift_vector(f_opt.reshape(-1, order="F"))
            prog = certificates[0][0]
            terms = bb_solver._constraint_terms(prog, x_opt)
            flipped = bb_solver._constraint_terms(prog, -x_opt)
            np.testing.assert_allclose([u for u, _, _ in flipped], [u for u, _, _ in terms],
                                       rtol=1e-9, atol=1e-12)
            nus, active = bb_solver._guess_active_set(prog, x_opt)
            x_neg, _ = bb_solver._refine_with_active_set(prog, -x_opt, nus, active)
            if target_scale == 0.0:
                assert x_neg is None
            elif x_neg is not None:
                assert f0(prog, x_neg) <= f0(prog, x_opt) + 1e-9 * abs(f0(prog, x_opt))

            # solve_bb whose incumbent check starts from -x* returns the cold answer
            cold = uncertified(*args, f_ref=f_ref)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(bb_solver, "_certify_incumbent",
                           lambda p, x, certify=bb_solver._certify_incumbent: certify(p, -x))
                sol = solve_bb(*args, f_ref=f_ref)
            assert abs(sol.objective - cold.objective) <= 1e-9 * abs(cold.objective)
            if target_scale == 0.0:
                np.testing.assert_array_equal(sol.f_bb, cold.f_bb)
            negated += 1
        assert negated >= 5


class TestBcdSkipsThePath:
    def test_later_fdb_passes_skip_the_barrier_path(self, monkeypatch):
        # fully digital BCD: only U changes between cone programs, so the
        # incumbent's active set certifies later steps without the path
        paths_per_solve = []
        follow_path = bb_solver._BarrierProgram.follow_path
        solve = tlbs.solve_bb

        def counted_path(self, *args, **kwargs):
            paths_per_solve[-1] += 1
            return follow_path(self, *args, **kwargs)

        def counted_solve(*args, **kwargs):
            paths_per_solve.append(0)
            return solve(*args, **kwargs)

        monkeypatch.setattr(bb_solver._BarrierProgram, "follow_path", counted_path)
        monkeypatch.setattr(tlbs, "solve_bb", counted_solve)
        cfg, ch, rs = scenario(seed=6)
        init = init_precoder(cfg, ch, rs, Rng(5), "fdb")
        res = inner_bcd(10.0, cfg, ch, rs, init, SolveOptions(rf_method="fdb", max_bcd=10))
        assert res.feasible and len(paths_per_solve) >= 3
        assert paths_per_solve[0] >= 1
        assert 0 in paths_per_solve[1:]
