"""Session setup of the test suite.

BLAS is pinned to one thread before numpy loads so reductions are
bit-reproducible. The slow solves that a test module lists in
SLOW_SOLVES run in worker processes from the session's first test on, so
they overlap every other test of the suite.
"""

import os

for _var in (
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "OMP_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import multiprocessing  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402

import pytest  # noqa: E402


class Solves:
    """Deterministic solves run in worker processes.

    Each slow test spends a minute or more in solver calls that do not
    depend on each other, so the fixture queues all of them at once and a
    test waits only for its own results; a call that was not queued is
    submitted when first asked for. The workers are forked from the test
    process before the first test runs, so before any test patches a
    module, and with BLAS pinned to one thread, so a result is
    bit-identical to an in-process call.
    """

    def __init__(self, pool):
        self._pool = pool
        self._futures = {}

    def _future(self, fn, args, kwargs):
        key = (fn.__module__, fn.__name__, args, tuple(sorted(kwargs.items())))
        if key not in self._futures:
            self._futures[key] = self._pool.submit(fn, *args, **kwargs)
        return self._futures[key]

    def submit(self, fn, *args, **kwargs):
        self._future(fn, args, kwargs)

    def get(self, fn, *args, **kwargs):
        return self._future(fn, args, kwargs).result()


def _reads_solves(items):
    return [item for item in items if "solves" in item.fixturenames]


def _workers():
    # one per CPU this process may run on, between two and four (each
    # worker is a fork of the test process, so memory bounds the count)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 2)
    return max(2, min(4, cpus))


@pytest.fixture(scope="session")
def solves(request):
    modules = []
    for item in _reads_solves(request.session.items):
        if item.module not in modules:
            modules.append(item.module)
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(max_workers=_workers(), mp_context=context) as pool:
        runs = Solves(pool)
        for module in modules:
            for fn, args, kwargs in getattr(module, "SLOW_SOLVES", ()):
                runs.submit(fn, *args, **kwargs)
        yield runs
        pool.shutdown(cancel_futures=True)


@pytest.fixture(scope="session", autouse=True)
def _slow_solves_from_the_start(request):
    """Start the queued solves with the first test when any collected test
    reads them."""
    if _reads_solves(request.session.items):
        request.getfixturevalue("solves")
