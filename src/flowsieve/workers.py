"""Forked worker pools: the one place the package decides whether to fork.

`forked_map(func, items)` runs `func(item)` for every item on one forked
worker process per usable CPU (`os.sched_getaffinity`), capped at the
number of items, while the body of its `with` statement runs in the
calling process. `train_filter2`'s k sweep and `run_benchmark`'s one-step
detectors use it.
"""
from __future__ import annotations

import os
import signal
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, Sequence, TypeVar

Item = TypeVar("Item")
Result = TypeVar("Result")


@contextmanager
def forked_map(
    func: Callable[[Item], Result], items: Sequence[Item], small: bool = False
) -> Iterator[Callable[[], list[Result]]]:
    """Start `func(item)` for every item and yield `results`, which returns
    their results in item order, or raises the first failure in item order
    with the type and message of a run in one process.

    `func` reaches the workers through fork, not pickle: it may close over
    large arrays, which a fork hands over without copying them and without
    the fresh imports of a spawned worker, either of which would cost more
    than a k sweep. Items and results are pickled. Leaving the `with` shuts
    the pool down and reaps its workers, so none outlives it. When the body
    raises, `results()` included, the items not yet done are dropped: the
    queued ones never start and the running ones are stopped.

    The items run in the calling process instead, one after another and
    only when `results` is called, so after the body's own work and in the
    order of a serial run, when
    - `os.sched_getaffinity` is missing or shows one usable CPU;
    - the caller says the work is `small`, too small to pay for a pool;
    - another thread is alive. Fork copies only the calling thread, so a
      lock another thread held would stay held in a worker. A pool's own
      manager thread is such a thread: a `forked_map` in the body of
      another one runs in the calling process. A worker has no other
      thread, so its `forked_map` may fork workers of its own.
    """
    items = list(items)
    affinity = getattr(os, "sched_getaffinity", None)
    workers = 1 if affinity is None else min(len(items), len(affinity(0)))
    if workers <= 1 or small or threading.active_count() > 1:
        yield lambda: [func(item) for item in items]
        return

    # imported here, so that commands which never fork skip loading them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    others = set(multiprocessing.active_children())
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(func,),
    ) as pool:
        futures = [pool.submit(_run_in_worker, item) for item in items]
        # the submits forked the workers, and no other thread runs here
        pool_workers = set(multiprocessing.active_children()) - others
        try:
            yield lambda: [future.result() for future in futures]
        except BaseException:
            # the error stands: stop the running items; the pool, broken,
            # drops the queued ones and reaps every worker as it shuts down
            for worker in pool_workers:
                worker.terminate()
            raise


_worker_func = None  # set in each worker by the pool's initializer


def _start_worker(func: Callable) -> None:
    global _worker_func
    _worker_func = func
    signal.signal(signal.SIGTERM, _stop_worker)


def _stop_worker(signum, frame) -> None:
    """A worker told to stop first stops and reaps the workers of its own
    pool, if it holds one, which would otherwise wait for work forever."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    os._exit(1)


def _run_in_worker(item):
    return _worker_func(item)
