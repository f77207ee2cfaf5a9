"""One worker thread that runs the upper half of a memory-bound sweep.

The CSR matvec (``linop``) and the iteration kernel's blocked passes
(``solvers``) always come in two halves, and ``halves`` alone decides where
the upper one runs: on the worker thread, at the same time as the lower one,
from ``SPLIT_MIN_N`` elements on where the process may run on two or more
CPUs (``cpus``); after it in the calling thread otherwise. Either way the
same code sums each row and block in the same order, so the bits do not
depend on the schedule. numpy's ufuncs and dot products and scipy's CSR
matvec release the GIL while they stream.

The worker is one daemon thread, started at first use. It is stopped before
any ``os.fork`` and started again at the next use, so a forked child (one
of the trace writer's, say) never copies a process that has a second thread.
"""

from __future__ import annotations

import os
import threading
from contextvars import copy_context
from functools import partial
from queue import SimpleQueue

# Elements from which a sweep is split in two: eight kernel blocks. A hand-off
# to the worker costs 20-30 us a round trip on a 2-core Xeon VM, and the two
# threads wait for the GIL between their numpy calls. In three runs of
# scripts/two_cpus.py every method's whole iteration was faster split from
# n = 262144 on (1.1-1.8x); at 65536 some methods were slower split in every
# run, and at 131072 two of the four in one run (BENCH_two_cpus.json holds
# the last run).
SPLIT_MIN_N = 262144


def cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:    # not on every platform
        return os.cpu_count() or 1


_tasks: SimpleQueue = SimpleQueue()
_thread: threading.Thread | None = None
_start = threading.Lock()


def _serve() -> None:
    while (task := _tasks.get()) is not None:
        call, done, box = task
        del task    # an idle worker keeps none of the caller's arrays alive
        try:
            box.append((True, call()))
        except BaseException as exc:    # re-raised in the caller
            box.append((False, exc))
        del call, box
        done.release()


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
    global _thread
    done, box = threading.Lock(), []
    done.acquire()
    with _start:    # so that a stop cannot come between the check and the put
        if _thread is None:
            _thread = threading.Thread(target=_serve, name="splitmerge-worker", daemon=True)
            _thread.start()
        _tasks.put((partial(copy_context().run, upper), done, box))
    try:
        low = lower()
    finally:
        done.acquire()    # the worker may still be writing into the caller's arrays
    ((ok, high),) = box
    if not ok:
        raise high
    return low, high


def _stop() -> None:
    """End the worker thread, if one runs; the next ``halves`` starts another."""
    global _thread
    with _start:
        if _thread is not None:
            _tasks.put(None)
            _thread.join()
            _thread = None


os.register_at_fork(before=_stop)
