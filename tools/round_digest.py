"""One sha256 per benchmark workload over every solve of one round, or the
ulp envelope of each case's results.

    python3 tools/round_digest.py [--seed 1] [--workload NAME ...]
    python3 tools/round_digest.py --envelope K [--seed 1] [--workload NAME ...]

For each workload of `perfbench/workloads.py` (or each one named with
--workload, which may be repeated) this solves one round, in the order the
seed sets, and prints `<workload> <sha256>`. The hash covers each
solve's feasibility, rate, RBE and blocklengths, the bisection trace (rate,
verdict and RBE of every probe) of a Pareto-point solve, the BCD trace of a
fixed-rate solve, and the bytes of F_rf, F_bb and U. Two checkouts whose
digests match return the same points bit for bit.

A change that moves results only in the last bits changes the digests, so
--envelope K judges it instead: each round is solved again with every
positive SINR threshold nudged by +1, -1, ..., +K, -K ulps, and one JSON
line is printed per case with the range of rate and RBE, the splits and
probe verdicts seen, and the first probe whose rate or verdict differs
from the unnudged round (null when none does). A result of another
checkout that falls inside this envelope moved no more than the solver's
own sensitivity to its thresholds.

The package is imported from src/ of the checkout this file sits in, and
BLAS is pinned to one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from isac_pareto import tlbs  # noqa: E402


def _feed(h, value) -> None:
    """Hash a value exactly: floats by their bits, arrays by their bytes."""
    if value is None:
        h.update(b"N")
    elif isinstance(value, (list, tuple)):
        h.update(b"L%d" % len(value))
        for item in value:
            _feed(h, item)
    else:
        arr = np.ascontiguousarray(value)
        h.update(str(arr.dtype).encode() + str(arr.shape).encode())
        h.update(arr.tobytes())


def _precoder(pc):
    return None if pc is None else (pc.f_rf, pc.f_bb, pc.u)


def solve_fields(case, scn) -> tuple:
    """Everything one solve returns that the digest covers."""
    if case.rate is None:
        res = tlbs.tlbs_solve(case.cfg, scn.ch, scn.rs, case.opts)
        probes = [(o["rate_nats"], bool(o["feasible"]), o["rbe"])
                  for o in res.outer_trace]
        return (res.feasible, res.rate_nats, res.rbe, res.beta, probes,
                _precoder(res.precoder))
    res = tlbs.inner_bcd(case.rate, case.cfg, scn.ch, scn.rs, scn.init,
                         case.opts)
    return (res.feasible, case.rate, res.rbe, res.trace,
            _precoder(res.precoder))


def round_digest(workload: str, seed: int) -> str:
    h = hashlib.sha256()
    for case in workloads.ordered_cases(workload, seed):
        h.update(case.label.encode())
        _feed(h, solve_fields(case, workloads.build(case)))
    return h.hexdigest()


_THRESHOLDS = tlbs._gamma_thresholds


@contextlib.contextmanager
def nudged_thresholds(ulps: int):
    """Move every positive SINR threshold the solver asks for by `ulps` ulps."""
    def thresholds(*args, **kwargs):
        gammas = _THRESHOLDS(*args, **kwargs)
        toward = np.inf if ulps > 0 else 0.0
        for _ in range(abs(ulps)):
            gammas = np.where(gammas > 0, np.nextafter(gammas, toward), gammas)
        return gammas

    tlbs._gamma_thresholds = thresholds
    try:
        yield
    finally:
        tlbs._gamma_thresholds = _THRESHOLDS


def _summary(case, scn) -> dict:
    """Rate, RBE, split and probes (rate, verdict) of one solve."""
    fields = solve_fields(case, scn)
    if case.rate is None:
        _, rate, rbe, beta, probes, _ = fields
        split = None if beta is None else [int(b) for b in beta]
        probes = [(float(r), v) for r, v, _ in probes]
    else:
        feasible, rate, rbe, _, _ = fields
        split, probes = None, [(float(rate), bool(feasible))]
    return {"rate": float(rate), "rbe": float(rbe), "split": split, "probes": probes}


def _distinct(values: list) -> list:
    return [v for i, v in enumerate(values) if v not in values[:i]]


def _first_difference(probes: list, base: list):
    """Index of the first probe where two bisection traces differ, or None."""
    if probes == base:
        return None
    return next((i for i, (a, b) in enumerate(zip(probes, base)) if a != b),
                min(len(probes), len(base)))


def envelope(workload: str, seed: int, k: int) -> dict:
    """Per case, the spread of one round's results under threshold nudges."""
    nudges = [0] + [sign * j for j in range(1, k + 1) for sign in (1, -1)]
    runs = []
    for ulps in nudges:
        with nudged_thresholds(ulps):
            runs.append({case.label: _summary(case, workloads.build(case))
                         for case in workloads.ordered_cases(workload, seed)})
    report = {}
    for label, base in runs[0].items():
        seen = [run[label] for run in runs]
        diverging = [_first_difference(s["probes"], base["probes"]) for s in seen]
        report[label] = {
            "rate": [min(s["rate"] for s in seen), max(s["rate"] for s in seen)],
            "rbe": [min(s["rbe"] for s in seen), max(s["rbe"] for s in seen)],
            "splits": _distinct([s["split"] for s in seen]),
            "verdicts": _distinct([[v for _, v in s["probes"]] for s in seen]),
            "first_diverging_probe": min((i for i in diverging if i is not None),
                                         default=None),
        }
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1,
                        help="sets the order of the cases within a round")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                        help="hash only this workload (repeatable; default: all)")
    parser.add_argument("--envelope", type=int, metavar="K",
                        help="print the results' range under threshold nudges of "
                             "up to K ulps instead of the digests")
    args = parser.parse_args()
    chosen = args.workload or workloads.WORKLOADS
    if args.envelope is not None:
        if args.envelope < 1:
            parser.error("--envelope needs K >= 1")
        for workload in chosen:
            for label, entry in envelope(workload, args.seed, args.envelope).items():
                print(json.dumps({"workload": workload, "case": label, "seed": args.seed,
                                  "k": args.envelope, **entry}), flush=True)
        return
    for workload in chosen:
        print(workload, round_digest(workload, args.seed), flush=True)


if __name__ == "__main__":
    main()
