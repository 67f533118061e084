"""One sha256 per benchmark workload over every solve of one round.

    python3 tools/round_digest.py [--seed 1] [--workload NAME ...]

For each workload of `perfbench/workloads.py` (or each one named with
--workload, which may be repeated) this solves one round, in the order the
seed sets, and prints `<workload> <sha256>`. The hash covers each
solve's feasibility, rate, RBE and blocklengths, the bisection trace (rate,
verdict and RBE of every probe) of a Pareto-point solve, the BCD trace of a
fixed-rate solve, and the bytes of F_rf, F_bb and U. Two checkouts whose
digests match return the same points bit for bit.

The package is imported from src/ of the checkout this file sits in, and
BLAS is pinned to one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1,
                        help="sets the order of the cases within a round")
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                        help="hash only this workload (repeatable; default: all)")
    args = parser.parse_args()
    for workload in args.workload or workloads.WORKLOADS:
        print(workload, round_digest(workload, args.seed), flush=True)


if __name__ == "__main__":
    main()
