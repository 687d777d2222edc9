"""The executor contract: where engine jobs physically run.

The scheduler (:mod:`repro.engine.scheduler`) decides *what* to run and
in *which order*; an :class:`Executor` decides *where*.  The one
backend is :class:`~repro.engine.executors.local.LocalPoolExecutor`, a
process pool on this host, and the scheduler talks to it only through
this contract:

- :meth:`Executor.submit` takes an opaque ``task_id``, a payload of
  ``(fn, params, seed, label)`` tuples (the scheduler sends one job per
  task), and an optional obs context, and returns immediately;
- :meth:`Executor.next_result` blocks up to ``timeout`` seconds and
  returns one finished ``(task_id, outcomes, obs_payload)`` triple (or
  ``None`` on timeout), in *completion* order -- the scheduler
  reassembles submission order itself;
- a backend that loses work it cannot recover raises
  :class:`ExecutorBroken` carrying the lost task ids, and the scheduler
  dispatches those tasks again on a fresh pool (serially once the run
  has used up its pool restarts).

Outcomes use the same shape everywhere: ``("ok", value, elapsed_s)`` or
``("err", message, traceback_text)``, one per payload entry, in payload
order.  Exceptions are flattened to strings on the worker side because
a raw exception object may itself fail to pickle on the way back.

Executors only run jobs.  The result cache belongs to the engine, which
looks every job up before dispatch and stores each result as it lands.
"""

import time
import traceback

from repro import obs


class ExecutorBroken(RuntimeError):
    """The backend lost tasks it cannot recover (a dead pool).

    ``lost`` holds the task ids whose results will never arrive; the
    scheduler runs them again.
    """

    def __init__(self, reason, lost=()):
        super().__init__(reason)
        self.lost = list(lost)


def execute_payload(payload, obs_ctx=None):
    """Worker-side entry point: run one payload of job tuples.

    ``obs_ctx`` carries the parent's observability context
    (:func:`repro.obs.worker_context`); when present, each job runs
    under its own ``engine.job`` span (``where=pool``) and the
    worker's recorded spans and metric deltas travel back with the
    results.
    """
    if obs_ctx is not None:
        obs.enter_worker(obs_ctx)
    results = []
    for fn, params, seed, label in payload:
        started = time.perf_counter()
        try:
            with obs.span("engine.job", label=label, where="pool"):
                value = fn(params, seed)
        except Exception as exc:
            results.append((
                "err",
                f"{type(exc).__name__}: {exc}",
                traceback.format_exc(),
            ))
        else:
            results.append(("ok", value, time.perf_counter() - started))
    return results, (obs.leave_worker() if obs_ctx is not None else None)


class Executor:
    """Abstract backend running payloads of engine jobs.

    Lifecycle: construct → :meth:`start` (idempotent) → any number of
    :meth:`submit`/:meth:`next_result` cycles → :meth:`shutdown`.  A
    single executor instance may serve many engine runs; the
    scheduler namespaces task ids per run so late results from an
    abandoned (cancelled / timed-out) run are discarded on arrival.
    """

    def start(self):
        """Bring up workers; idempotent."""
        raise NotImplementedError

    def submit(self, task_id, payload, obs_ctx=None):
        """Queue one payload; returns immediately."""
        raise NotImplementedError

    def next_result(self, timeout):
        """One finished ``(task_id, outcomes, obs_payload)`` or ``None``.

        Blocks at most ``timeout`` seconds so the scheduler can poll
        its cancel flag between waits.
        """
        raise NotImplementedError

    def shutdown(self):
        """Tear down workers; idempotent."""
        raise NotImplementedError
