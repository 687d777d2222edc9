"""What runs inside a pool worker, and how a lost pool is reported.

The scheduler (:mod:`repro.engine.scheduler`) decides *what* to run and
in *which order*; :class:`~repro.engine.executors.local.LocalPoolExecutor`
runs each job as one pool task of :func:`execute_payload`, which
returns the job's outcome: ``("ok", value, elapsed_s)`` or ``("err",
message, traceback_text)``.  Exceptions are flattened to strings on the
worker side because a raw exception object may itself fail to pickle on
the way back.

A pool that loses work it cannot recover raises :class:`ExecutorBroken`;
the scheduler dispatches every job it has not had back again, on a
fresh pool (serially once the batch has used up its pool restarts).

The pool only runs jobs.  The result cache belongs to the engine, which
looks every job up before dispatch and stores each result as it lands.
"""

import time
import traceback

from repro import obs


class ExecutorBroken(RuntimeError):
    """The pool died (a killed worker, a failed submit); every job it
    held is lost."""


def execute_payload(job, obs_ctx=None):
    """Worker-side entry point: run one ``(fn, params, seed, label)``
    job and return ``(outcome, obs_payload)``.

    ``obs_ctx`` carries the parent's observability context
    (:func:`repro.obs.worker_context`); when present, the job runs
    under its own ``engine.job`` span (``where=pool``) and the
    worker's recorded spans and metric deltas travel back with the
    outcome.
    """
    if obs_ctx is not None:
        obs.enter_worker(obs_ctx)
    fn, params, seed, label = job
    started = time.perf_counter()
    try:
        with obs.span("engine.job", label=label, where="pool"):
            value = fn(params, seed)
    except Exception as exc:
        outcome = ("err", f"{type(exc).__name__}: {exc}",
                   traceback.format_exc())
    else:
        outcome = ("ok", value, time.perf_counter() - started)
    return outcome, (obs.leave_worker() if obs_ctx is not None else None)
