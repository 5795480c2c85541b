"""An ordered map over spawned worker processes, for independent CPU-bound calls.

``ordered_map(fn, items)`` returns ``[fn(x) for x in items]``, computing
the calls in one pool made on first use and shut down at exit, with at
most one worker per usable CPU and per item. Workers start with
``OPENBLAS_NUM_THREADS=1``, so they do not oversubscribe the cores, and a
call returns there the bytes it returns in a one-thread process. An
exception a call raises is re-raised here with its class and message.
``fn`` and the items must pickle, and a script that maps at import time
must keep that work under ``if __name__ == "__main__":``. A worker that
dies mid-map, because such a script ran unguarded or because it was
killed, ends the map in ``errors.WorkerPoolError``, and the next map
starts a fresh pool; so does a map that finds the pool broken between
maps. With one usable CPU, or one item, the calls run in this process
and start none.
"""

from __future__ import annotations

import atexit
import gc
import multiprocessing
import os
import signal
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker

_BLAS = "OPENBLAS_NUM_THREADS"
_pool: ProcessPoolExecutor | None = None
_started_workers = False


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def shutdown() -> None:
    """Stop the pool's workers and wait for them to exit."""
    global _pool
    if _pool is not None:
        _pool.shutdown(cancel_futures=True)
        _pool = None


@atexit.register
def _at_exit() -> None:
    # not in a worker that failed to start a pool: it shares its parent's tracker
    if _started_workers:
        shutdown()
        # once the pool's named semaphores are released, stop and reap the
        # resource tracker that spawning started, which would outlive us
        gc.collect()
        resource_tracker._resource_tracker._stop()


def ordered_map(fn, items) -> list:
    """``[fn(x) for x in items]``, computed as the module docstring says."""
    global _pool, _started_workers
    items = list(items)
    if min(usable_cpus(), len(items)) <= 1:
        return list(map(fn, items))
    if _pool is not None and _pool._broken:  # what submit checks: it broke between maps
        shutdown()
    if _pool is None:
        if getattr(multiprocessing.current_process(), "_inheriting", False):
            # A worker re-running an unguarded script: spawning raises
            # multiprocessing's bootstrap error here. When the first such
            # worker dies, the pool terminate()s the others; blocking SIGTERM
            # lets each print its traceback whole and exit on its own.
            signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        _pool = ProcessPoolExecutor(usable_cpus(), mp_context=multiprocessing.get_context("spawn"))
    futures = []
    try:
        # A spawn pool starts a worker inside submit, and only when none is idle:
        # so it never runs more workers than a map had items, and every worker
        # inherits the pin. This process's environment is restored after.
        saved = os.environ.get(_BLAS)
        os.environ[_BLAS] = "1"
        try:
            futures.extend(_pool.submit(fn, x) for x in items)
        finally:
            if saved is None:
                del os.environ[_BLAS]
            else:
                os.environ[_BLAS] = saved
        _started_workers = True
        return [f.result() for f in futures]
    except BrokenProcessPool as exc:
        shutdown()
        from .errors import WorkerPoolError  # here, so importing this module loads no other

        raise WorkerPoolError(
            "a worker process died before its calls returned: it was killed (out "
            "of memory, say), or a script started the pool at import time; keep "
            'such a script\'s work under `if __name__ == "__main__":`') from exc
    finally:
        for f in futures:  # after an error, drop the calls not yet started
            f.cancel()
