"""The engine's backend: a local :class:`ProcessPoolExecutor`.

Each job goes to ``pool.submit(execute_payload, ...)`` as one task; a
done callback on its future queues the task id, so :meth:`next_result`
hands outcomes back in completion order.  A pool that breaks, in a
result or in a submit, is dropped, and the next :meth:`start` builds
a fresh one.
"""

import queue
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.engine.executors.base import ExecutorBroken, execute_payload


def _default_pool_factory(workers):
    return ProcessPoolExecutor(max_workers=workers)


class LocalPoolExecutor:
    """Process-pool backend on this host.

    Lifecycle: construct → :meth:`start` (idempotent) → any number of
    :meth:`submit`/:meth:`next_result` cycles → :meth:`shutdown`.  One
    instance may serve many engine runs; the scheduler namespaces task
    ids per run, and a result whose task id was submitted again since
    (to a fresh pool) is dropped on arrival.
    """

    def __init__(self, workers=1, pool_factory=None):
        self._workers = max(1, int(workers))
        self._pool_factory = pool_factory or _default_pool_factory
        self._pool = None
        self._futures = {}        # task_id -> future
        self._done = queue.Queue()  # task_ids, in completion order

    def start(self):
        """Bring up the pool; idempotent."""
        if self._pool is None:
            self._pool = self._pool_factory(self._workers)

    def submit(self, task_id, job, obs_ctx=None):
        """Queue one ``(fn, params, seed, label)`` job; returns at once."""
        self.start()
        args = (job, obs_ctx) if obs_ctx is not None else (job,)
        try:
            future = self._pool.submit(execute_payload, *args)
        except Exception as exc:
            raise self._broken(exc) from exc
        self._futures[task_id] = future
        future.add_done_callback(
            lambda f, t=task_id: self._done.put((t, f))
        )

    def next_result(self, timeout):
        """One finished ``(task_id, outcome, obs_payload)``, or ``None``
        after ``timeout`` seconds, so the scheduler can poll its cancel
        flag between waits."""
        try:
            task_id, future = self._done.get(timeout=timeout)
        except queue.Empty:
            return None
        # A future abandoned by _broken() may finish late, after its
        # task id was submitted again to a fresh pool.
        if self._futures.get(task_id) is not future:
            return None
        del self._futures[task_id]
        try:
            outcome, obs_payload = future.result(timeout=0)
        except (BrokenProcessPool, OSError) as exc:
            raise self._broken(exc) from exc
        return task_id, outcome, obs_payload

    def _broken(self, exc):
        """A dead pool loses every outstanding task; drop the pool so
        the next :meth:`start` builds a fresh one."""
        self._futures.clear()
        self._done = queue.Queue()
        self.shutdown()
        return ExecutorBroken(f"{type(exc).__name__}: worker pool broke")

    def shutdown(self):
        """Tear down the pool; idempotent."""
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
