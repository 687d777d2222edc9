"""The engine's backend: a local :class:`ProcessPoolExecutor`.

Each task goes to ``pool.submit(execute_payload, ...)``; a done
callback on its future queues the task id, so :meth:`next_result`
hands results back in completion order.
"""

import queue
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.engine.executors.base import (
    Executor,
    ExecutorBroken,
    execute_payload,
)


def _default_pool_factory(workers):
    return ProcessPoolExecutor(max_workers=workers)


class LocalPoolExecutor(Executor):
    """Process-pool backend on this host."""

    def __init__(self, workers=1, pool_factory=None):
        self._workers = max(1, int(workers))
        self._pool_factory = pool_factory or _default_pool_factory
        self._pool = None
        self._futures = {}        # task_id -> future
        self._done = queue.Queue()  # task_ids, in completion order

    def start(self):
        if self._pool is None:
            self._pool = self._pool_factory(self._workers)

    def submit(self, task_id, payload, obs_ctx=None):
        self.start()
        args = (payload, obs_ctx) if obs_ctx is not None else (payload,)
        try:
            future = self._pool.submit(execute_payload, *args)
        except Exception as exc:
            raise ExecutorBroken(
                f"could not submit to pool: {exc}", lost=[task_id]
            ) from exc
        self._futures[task_id] = future
        future.add_done_callback(lambda _f, t=task_id: self._done.put(t))

    def next_result(self, timeout):
        try:
            task_id = self._done.get(timeout=timeout)
        except queue.Empty:
            return None
        future = self._futures.pop(task_id, None)
        if future is None:  # already abandoned by _broken()
            return None
        try:
            outcomes, obs_payload = future.result(timeout=0)
        except (BrokenProcessPool, OSError) as exc:
            raise self._broken(exc, also_lost=[task_id]) from exc
        return task_id, outcomes, obs_payload

    def _broken(self, exc, also_lost=()):
        """A dead pool loses every outstanding task; drop the pool so
        the next :meth:`start` builds a fresh one."""
        lost = list(also_lost) + list(self._futures)
        self._futures.clear()
        self._done = queue.Queue()
        self.shutdown()
        return ExecutorBroken(
            f"{type(exc).__name__}: worker pool broke", lost=lost
        )

    def shutdown(self):
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
