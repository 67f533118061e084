"""Outside-in tracing: spans around the package's public calls.

The tracer replaces the names a calling module looks up (for example
`isac_pareto.tlbs.epmo_solve`, which `tlbs` calls for every RF step) with
timing wrappers, and puts the originals back afterwards. Nothing inside
`src/` is changed or read for counts: counts come from wrapped calls and
from the results they return.

Two kinds of wrapper:

- a span records name, start, end, parent span and solve id, plus a few
  fields read from the returned result or the exception raised;
- a kernel (`probe_eval`, `phase_project`, the EPMO gradient and objective,
  the BMM majorizer, the short-packet helpers) runs up to millions of
  times per run, so it gets no span of its own: its calls and time are
  summed on the enclosing span. A kernel called inside another kernel
  (`probe_eval` inside `penalty_objective`) counts for its own layer but is
  not subtracted twice from the span's self time.

Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

from isac_pareto import channel, quadratics, rf_bmm, rf_epmo, tlbs

# span fields, stored as lists to keep long runs small
NAME, PARENT, SOLVE, START, END, KERNELS, INFO = range(7)


def _inner_info(args, kwargs, res) -> dict:
    opts = args[5] if len(args) > 5 else kwargs["opts"]
    trace = res.trace
    stopped_on_tol = bool(trace) and (
        trace[-1] < 1e-15
        or (len(trace) >= 2
            and abs(trace[-1] - trace[-2]) / max(trace[-1], 1e-30) <= opts.tol_bcd))
    return {"feasible": res.feasible, "bcd_iters": len(trace),
            "converged": res.feasible and stopped_on_tol}


SPANS = (
    # (module or class, attribute, span name, reader of the returned result)
    (tlbs, "tlbs_solve", "tlbs.tlbs_solve", None),
    (tlbs, "inner_bcd", "tlbs.inner_bcd", _inner_info),
    (tlbs, "epmo_solve", "rf_epmo.epmo_solve",
     lambda a, k, r: {"feasible": r.feasible}),
    (tlbs, "bmm_solve", "rf_bmm.bmm_solve",
     lambda a, k, r: {"converged": r.converged, "iterations": r.iterations}),
    (tlbs, "solve_bb", "bb_solver.solve_bb", None),
    (channel, "generate_channels", "channel.generate_channels", None),
)
KERNELS_WRAPPED = (
    (rf_epmo, "euclidean_gradient", "rf_epmo.euclidean_gradient"),
    (rf_epmo, "penalty_objective", "rf_epmo.penalty_objective"),
    (rf_bmm, "majorize", "rf_bmm.majorize"),
    (quadratics.QuadraticForms, "probe_eval", "quadratics.probe_eval"),
    (rf_epmo, "phase_project", "numerics.phase_project"),
    (rf_bmm, "phase_project", "numerics.phase_project"),
    (tlbs, "phase_project", "numerics.phase_project"),
    (tlbs, "solve_gamma_threshold", "fbl.solve_gamma_threshold"),
    (tlbs, "allocate_blocklengths", "fbl.allocate_blocklengths"),
)


class Tracer:
    """Spans of one run; `install` wraps the package, `remove` restores it."""

    def __init__(self):
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.solve: Optional[int] = None
        self.kernel_depth = 0
        self._saved: list = []

    def install(self) -> None:
        for owner, attr, name, reader in SPANS:
            self._wrap(owner, attr, self._span(name, getattr(owner, attr), reader))
        for owner, attr, name in KERNELS_WRAPPED:
            self._wrap(owner, attr, self._kernel(name, getattr(owner, attr)))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span(self, name: str, fn: Callable, reader) -> Callable:
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else None, self.solve,
                   time.perf_counter(), None, {}, None]
            spans.append(rec)
            stack.append(len(spans) - 1)
            try:
                res = fn(*args, **kwargs)
            except Exception as exc:
                rec[INFO] = {"error": type(exc).__name__}
                raise
            else:
                if reader is not None:
                    rec[INFO] = reader(args, kwargs, res)
                return res
            finally:
                rec[END] = time.perf_counter()
                stack.pop()

        return wrapper

    def _kernel(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            self.kernel_depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.kernel_depth -= 1
                if stack:   # a kernel outside every span is not part of a solve
                    kernels = spans[stack[-1]][KERNELS]
                    agg = kernels.get(name)
                    if agg is None:
                        agg = kernels[name] = [0, 0.0, 0.0]
                    agg[0] += 1
                    agg[1] += elapsed
                    if self.kernel_depth == 0:
                        agg[2] += elapsed     # time not already inside a kernel

        return wrapper

    def dump(self, t0: float) -> List[dict]:
        """Spans as JSON-ready records, times in seconds from t0."""
        return [{"name": s[NAME], "parent": s[PARENT], "solve": s[SOLVE],
                 "start": s[START] - t0, "end": s[END] - t0,
                 "kernels": s[KERNELS], "info": s[INFO] or {}}
                for s in self.spans]


def summarize(spans: List[list], solve_seconds: float, n_solves: int,
              probes: int, accepted: int) -> Dict[str, float]:
    """Per-layer metrics of the traced solves.

    Counts are integer totals divided at the end, so they repeat exactly
    however many rounds a run makes. Times are per solve unless the name
    says per call (`_ms`, `_us`); shares are of the traced solve time.
    probes and accepted are the bisection verdicts read from the returned
    points.
    """
    def dur(s):
        return s[END] - s[START]

    by_name: Dict[str, List[list]] = defaultdict(list)
    kernel_calls: Dict[str, int] = Counter()
    kernel_time: Dict[str, float] = Counter()
    self_times = [0.0] * len(spans)   # span minus child spans and kernels
    for i, s in enumerate(spans):
        if s[SOLVE] is None:
            continue
        by_name[s[NAME]].append(s)
        self_times[i] += dur(s)
        if s[PARENT] is not None:
            self_times[s[PARENT]] -= dur(s)
        for name, (calls, total, top) in s[KERNELS].items():
            kernel_calls[name] += calls
            kernel_time[name] += total
            self_times[i] -= top

    def busy(name):
        # spans of one name never nest in one another, so durations add up
        return sum(dur(s) for s in by_name[name])

    tlbs_self = sum(t for s, t in zip(spans, self_times)
                    if s[SOLVE] is not None and s[NAME].startswith("tlbs."))

    def ratio(num, den):
        return num / den if den else 0.0

    def per_solve(x):
        return x / n_solves

    def info(name, key):
        return [s[INFO][key] for s in by_name[name]
                if s[INFO] and key in s[INFO]]

    inner = by_name["tlbs.inner_bcd"]
    inner_done = [s for s in inner if s[INFO] and s[INFO].get("feasible")]
    epmo = by_name["rf_epmo.epmo_solve"]
    bmm = by_name["rf_bmm.bmm_solve"]
    bmm_ok = [s for s in bmm if s[INFO] and "converged" in s[INFO]]
    bb = by_name["bb_solver.solve_bb"]
    bb_fail = [s for s in bb if s[INFO] and s[INFO].get("error") == "InfeasibleSubproblem"]
    bb_ok = [s for s in bb if not s[INFO]]
    epmo_busy = busy("rf_epmo.epmo_solve")
    bmm_busy = busy("rf_bmm.bmm_solve")
    bb_busy = busy("bb_solver.solve_bb")
    fbl_names = ("fbl.solve_gamma_threshold", "fbl.allocate_blocklengths")

    return {
        "tlbs.probe_s": ratio(sum(dur(s) for s in inner), len(inner)),
        "tlbs.self_s": per_solve(tlbs_self),
        "tlbs.probes": ratio(probes, n_solves),
        "tlbs.bcd_iters": ratio(sum(s[INFO]["bcd_iters"] for s in inner_done),
                                len(inner_done)),
        "tlbs.bcd_converged_ratio": ratio(sum(info("tlbs.inner_bcd", "converged")),
                                          len(inner_done)),
        "tlbs.probe_accept_ratio": ratio(accepted, probes),
        "rf_epmo.calls": per_solve(len(epmo)),
        "rf_epmo.busy_s": per_solve(epmo_busy),
        "rf_epmo.share": ratio(epmo_busy, solve_seconds),
        "rf_epmo.grad_evals": ratio(kernel_calls["rf_epmo.euclidean_gradient"],
                                    len(epmo)),
        "rf_epmo.f_evals": ratio(kernel_calls["rf_epmo.penalty_objective"], len(epmo)),
        "rf_epmo.feasible_ratio": ratio(sum(info("rf_epmo.epmo_solve", "feasible")),
                                        len(epmo)),
        "rf_bmm.calls": per_solve(len(bmm)),
        "rf_bmm.busy_s": per_solve(bmm_busy),
        "rf_bmm.share": ratio(bmm_busy, solve_seconds),
        "rf_bmm.mm_iters": ratio(kernel_calls["rf_bmm.majorize"], len(bmm)),
        "rf_bmm.converged_ratio": ratio(sum(info("rf_bmm.bmm_solve", "converged")),
                                        len(bmm_ok)),
        "rf_bmm.ok_ratio": ratio(len(bmm_ok), len(bmm)),
        "bb_solver.calls": per_solve(len(bb)),
        "bb_solver.busy_s": per_solve(bb_busy),
        "bb_solver.share": ratio(bb_busy, solve_seconds),
        "bb_solver.solve_ms": 1e3 * ratio(sum(dur(s) for s in bb_ok), len(bb_ok)),
        "bb_solver.infeasible_ms": 1e3 * ratio(sum(dur(s) for s in bb_fail),
                                               len(bb_fail)),
        "bb_solver.solved_ratio": ratio(len(bb_ok), len(bb)),
        "quadratics.probe_eval_calls": per_solve(kernel_calls["quadratics.probe_eval"]),
        "quadratics.probe_eval_us": 1e6 * ratio(kernel_time["quadratics.probe_eval"],
                                                kernel_calls["quadratics.probe_eval"]),
        "numerics.phase_project_calls": per_solve(
            kernel_calls["numerics.phase_project"]),
        "numerics.phase_project_us": 1e6 * ratio(
            kernel_time["numerics.phase_project"],
            kernel_calls["numerics.phase_project"]),
        "fbl.threshold_calls": per_solve(kernel_calls[fbl_names[0]]),
        "fbl.allocate_calls": per_solve(kernel_calls[fbl_names[1]]),
        "fbl.busy_s": per_solve(sum(kernel_time[n] for n in fbl_names)),
    }
