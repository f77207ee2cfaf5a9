"""One worker thread that runs the upper half of a memory-bound sweep.

The CSR matvec (``linop``) and the iteration kernel's blocked passes
(``solvers``) always come in two halves, and ``halves`` alone decides where
the upper one runs: on the worker thread, at the same time as the lower one,
from ``SPLIT_MIN_N`` elements on where the process may run on two or more
CPUs (``cpus``); after it in the calling thread otherwise. Either way the
same code sums each row and block in the same order, so the bits do not
depend on the schedule. numpy's ufuncs and dot products and scipy's CSR
matvec release the GIL while they stream.

The worker is the one thread of a ``ThreadPoolExecutor``, made at first
use. It is shut down before any ``os.fork`` and made again at the next use,
so a forked child (one of the trace writer's, say) never copies a process
that has a second thread; at exit the interpreter joins it.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context

# Elements from which a sweep is split in two: eight kernel blocks. A hand-off
# to the worker costs 28-38 us a round trip on a 2-vCPU Xeon VM, and the two
# threads wait for the GIL between their numpy calls. In 18 runs of
# `scripts/pairs.py --extra parts` each method's median whole iteration was
# 1.08-1.21x faster split at n = 262144 and 1.39-1.47x at 1e6, but at 65536
# 34 of the 72 rows were slower split.
SPLIT_MIN_N = 262144


def cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:    # not on every platform
        return os.cpu_count() or 1


_executor: ThreadPoolExecutor | None = None
_start = threading.Lock()


def halves(n: int, lower, upper) -> tuple:
    """``(lower(), upper())`` of a sweep over n elements.

    From ``SPLIT_MIN_N`` elements on, where the process may run on two CPUs,
    ``upper()`` runs on the worker thread meanwhile, in a copy of the
    caller's context, so numpy's error state (``np.errstate``) holds for both
    halves; otherwise it runs after ``lower()``. Returns once both have
    finished; an exception of ``lower`` is raised first, then one of ``upper``.
    """
    if n < SPLIT_MIN_N or cpus() < 2:
        return lower(), upper()
    global _executor
    with _start:    # so that a stop cannot come between the check and the submit
        if _executor is None:
            _executor = ThreadPoolExecutor(1, thread_name_prefix="splitmerge-worker")
        future = _executor.submit(copy_context().run, upper)
    try:
        low = lower()
    finally:
        future.exception()    # waits without raising: the worker may still be writing
        # into the caller's arrays
    return low, future.result()


def _stop() -> None:
    """Shut the worker thread down, if one runs; the next ``halves`` makes another."""
    global _executor
    with _start:
        if _executor is not None:
            _executor.shutdown()
            _executor = None


os.register_at_fork(before=_stop)
