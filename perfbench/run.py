"""Benchmark of the Pareto solver: one workload per run, JSON on the last line.

    python3 perfbench/run.py --workload hybrid-epmo-point --seed 1 --seconds 20 --trace 0

A run sets up the workload, then solves whole rounds of its cases until
--seconds have passed, checks every returned point with `checks.py`, and
prints one JSON object as its last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures the end-to-end metrics. --trace 1 solves one untraced
round, then traced rounds, and reports the per-layer metrics with the
tracing overhead. Raw results and spans go to perfbench/out/.

BLAS is pinned to one thread. The package is imported from src/ of the
checkout this file sits in; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5


def import_package() -> None:
    """Import isac_pareto from this checkout's src/, or fail."""
    if not (SRC / "isac_pareto" / "__init__.py").is_file():
        sys.exit(f"error: {SRC}/isac_pareto not found; run from a checkout "
                 "of the repository")
    sys.path.insert(0, str(SRC))
    import isac_pareto
    if Path(isac_pareto.__file__).resolve().parent.parent != SRC:
        sys.exit(f"error: isac_pareto imported from {isac_pareto.__file__}, "
                 f"not from {SRC}")


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of a fresh process that imports and builds everything.

    The wait has no timeout: with one, the child's exit is polled at up to
    50 ms intervals, which would quantise the measurement.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", workload, "--seed", str(seed),
                        "--setup-only"],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def fingerprint(outcome) -> tuple:
    p = outcome.point
    beta = None if p.beta is None else tuple(int(b) for b in p.beta)
    return (p.feasible, p.rate, p.rbe, beta, outcome.probes)


class Runner:
    """Solves rounds of one workload and checks what comes back."""

    def __init__(self, workload: str, seed: int):
        import checks
        import workloads
        self.checks, self.workloads = checks, workloads
        self.cases = workloads.ordered_cases(workload, seed)
        self.scenarios = [workloads.build(c) for c in self.cases]
        self.brute = workload == "single-user-brute"
        self.first = None          # per-case results of the first round
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self.round_failed = 0      # failed operations in every round
        self.records = []

    def round(self, tracer=None) -> list:
        """Solve every case once; returns the per-solve wall times."""
        times, results = [], []
        for case, scn in zip(self.cases, self.scenarios):
            if tracer is not None:
                tracer.solve = self.attempted
            start = time.perf_counter()
            outcome = self.workloads.solve(case, scn)
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.solve = None
            times.append(elapsed)
            results.append(outcome)
            self.attempted += 1
            self.records.append({"round": len(self.records) // len(self.cases),
                                 "case": case.label, "seconds": elapsed,
                                 "rate": outcome.point.rate, "rbe": outcome.point.rbe,
                                 "probes": list(outcome.probes)})
        if self.first is None:
            self.first = results
            self.evaluate(results)
        else:
            for case, a, b in zip(self.cases, self.first, results):
                if fingerprint(a) != fingerprint(b):
                    self.errors.append(f"{case.label}: a repeated solve returned "
                                       "a different point")
        self.failed += self.round_failed
        return times

    def evaluate(self, results) -> None:
        """Check the first round; later rounds must repeat it exactly."""
        chk = self.checks
        self.rates, self.rbes = [], []
        for case, scn, outcome in zip(self.cases, self.scenarios, results):
            p, cfg = outcome.point, case.cfg
            problems = chk.check_point(cfg, scn.ch.h, scn.rs.f_r, p,
                                       hybrid=case.opts.rf_method != "fdb",
                                       fixed_rate=case.rate is not None)
            if not problems and self.brute:
                problems, short = chk.check_single_user(cfg, scn.ch.h, p,
                                                        case.opts.tol_rate)
                self.round_failed += short    # a shortfall is a failed operation
            self.errors += [f"{case.label}: {msg}" for msg in problems]
            if not problems:
                self.rates.append(chk.achieved_sum_rate(cfg, scn.ch.h, p))
                # at a fixed rate RBE is the objective; on a Pareto point it
                # is a constraint, so the cap each point was checked against
                # is what the user is guaranteed
                self.rbes.append(p.rbe if case.rate is not None else cfg.e_max)


def run_rounds(runner: Runner, seconds: float, tracer=None) -> list:
    """Whole rounds until `seconds` pass; returns each round's mean solve time."""
    means = []
    start = time.perf_counter()
    while not means or time.perf_counter() - start < seconds:
        times = runner.round(tracer)
        means.append(sum(times) / len(times))
    return means


def measure(args):
    import_package()
    setup = setup_seconds(args.workload, args.seed)
    runner = Runner(args.workload, args.seed)
    means = run_rounds(runner, args.seconds)
    metrics = {
        "setup_s": (setup, "s"),
        "solve_s": (statistics.median(means), "s"),
        "sum_rate_nats": (statistics.fmean(runner.rates or [0.0]), "nats"),
        "rbe": (statistics.fmean(runner.rbes or [0.0]), "W"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    return runner, metrics, {"round_mean_s": means}


def measure_traced(args):
    import_package()
    import tracer as tracing

    t0 = time.perf_counter()
    tr = tracing.Tracer()
    tr.install()
    try:
        runner = Runner(args.workload, args.seed)   # traced set-up
    finally:
        tr.remove()
    untraced = runner.round()
    baseline = sum(untraced) / len(untraced)
    first_traced = runner.attempted
    tr.install()
    try:
        means = run_rounds(runner, max(0.0, args.seconds - sum(untraced)), tr)
    finally:
        tr.remove()
    n_solves = runner.attempted - first_traced
    rounds = n_solves // len(runner.cases)
    probes = rounds * sum(len(o.probes) for o in runner.first)
    accepted = rounds * sum(sum(o.probes) for o in runner.first)
    traced_seconds = sum(r["seconds"] for r in runner.records[first_traced:])
    layer = tracing.summarize(tr.spans, traced_seconds, n_solves, probes, accepted)
    layer["channel.generate_s"] = sum(
        s[tracing.END] - s[tracing.START] for s in tr.spans
        if s[tracing.NAME] == "channel.generate_channels")
    traced = statistics.median(means)
    layer["trace.overhead_s"] = traced - baseline
    layer["trace.overhead_ratio"] = (traced - baseline) / baseline
    metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
    return runner, metrics, {"round_mean_s": means, "untraced_round_mean_s": baseline,
                             "spans": tr.dump(t0)}


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "share")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("hybrid-epmo-point", "paper-bmm-fixed-rate",
                                 "digital-emax-sweep", "single-user-brute"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)   # child process of setup_s
    args = parser.parse_args(argv)

    if args.setup_only:
        import_package()
        import workloads
        for case in workloads.ordered_cases(args.workload, args.seed):
            workloads.build(case)
        return 0

    runner, metrics, extra = (measure_traced if args.trace else measure)(args)
    correct = not runner.errors
    for msg in runner.errors:
        print(f"check failed: {msg}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    raw = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                               "errors": runner.errors, "solves": runner.records,
                               **extra}))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
