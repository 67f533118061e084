"""Smoke test of the benchmark's tracer against the package's current names.

The traced benchmark run (`perfbench/run.py --trace 1`) wraps and reads
package attributes from outside `src/`. A refactor that drops or renames
one of them fails here, in tier-1, instead of breaking the traced run.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402


def test_traced_single_user_solve_restores_every_wrapped_name():
    targets = [(owner, attr) for owner, attr, *_ in tracer.SPANS + tracer.KERNELS_WRAPPED]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    case = workloads.WORKLOADS["single-user-brute"][0]

    tr = tracer.Tracer()
    tr.install()
    try:
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in zip(targets, originals))
        scn = workloads.build(case)
        tr.solve = 0
        outcome = workloads.solve(case, scn)
        tr.solve = None
    finally:
        tr.remove()

    assert all(owner.__dict__[attr] is original
               for (owner, attr), original in zip(targets, originals))
    probes, accepted = len(outcome.probes), sum(outcome.probes)
    layer = tracer.summarize(tr.spans, 1.0, 1, probes, accepted)
    assert layer["tlbs.probes"] == probes > 0
    assert layer["tlbs.probe_accept_ratio"] == accepted / probes
    # every layer the single-user EPMO solve runs through was traced
    for name in ("tlbs.bcd_iters", "rf_epmo.calls", "rf_epmo.grad_evals",
                 "rf_epmo.f_evals", "bb_solver.calls", "quadratics.probe_eval_calls",
                 "numerics.phase_project_calls", "fbl.threshold_calls",
                 "fbl.allocate_calls"):
        assert layer[name] > 0, name
    assert any(s[tracer.NAME] == "channel.generate_channels" for s in tr.spans)


def test_traced_fixed_rate_bmm_solve_reads_bmm_results():
    # the BMM span reads BmmResult.converged and .iterations; the other
    # workloads run no BMM solve
    case = workloads.WORKLOADS["paper-bmm-fixed-rate"][0]
    tr = tracer.Tracer()
    tr.install()
    try:
        scn = workloads.build(case)
        tr.solve = 0
        outcome = workloads.solve(case, scn)
        tr.solve = None
    finally:
        tr.remove()

    layer = tracer.summarize(tr.spans, 1.0, 1, 1, int(outcome.probes[0]))
    assert layer["rf_bmm.calls"] > 0
    assert layer["rf_bmm.mm_iters"] > 0
    assert layer["rf_bmm.ok_ratio"] == 1.0
