"""The executor contract: where engine jobs physically run.

The scheduler (:mod:`repro.engine.scheduler`) decides *what* to run and
in *which order*; an :class:`Executor` decides *where*.  The contract is
deliberately tiny so backends can range from an in-process pool to a
socket cluster:

- :meth:`Executor.submit` takes an opaque ``task_id``, a payload of
  ``(fn, params, seed, label, cache_key)`` tuples (the scheduler sends
  one job per task), and an optional obs context, and returns
  immediately;
- :meth:`Executor.next_result` blocks up to ``timeout`` seconds and
  returns one finished ``(task_id, outcomes, obs_payload)`` triple (or
  ``None`` on timeout), in *completion* order -- the scheduler
  reassembles submission order itself;
- a backend that loses work it cannot recover raises
  :class:`ExecutorBroken` carrying the lost task ids, and the scheduler
  degrades those tasks to serial execution.

Outcomes use the same shape everywhere: ``("ok", value, elapsed_s)`` or
``("err", message, traceback_text)``, one per payload entry, in payload
order.  Exceptions are flattened to strings on the worker side because
a raw exception object may itself fail to pickle on the way back.
"""

import time
import traceback

from repro import obs

#: Registered executor factories, keyed by spec name.
_REGISTRY = {}


class ExecutorBroken(RuntimeError):
    """The backend lost tasks it cannot recover (dead pool, no workers).

    ``lost`` holds the task ids whose results will never arrive; the
    scheduler re-runs them serially.
    """

    def __init__(self, reason, lost=()):
        super().__init__(reason)
        self.lost = list(lost)


def execute_payload(payload, obs_ctx=None):
    """Worker-side entry point: run one payload of job tuples.

    ``obs_ctx`` carries the parent's observability context
    (:func:`repro.obs.worker_context`); when present, each job runs
    under its own span and the worker's recorded spans and metric
    deltas travel back with the results.
    """
    if obs_ctx is not None:
        obs.enter_worker(obs_ctx)
    results = []
    for entry in payload:
        fn, params, seed, label = entry[0], entry[1], entry[2], entry[3]
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

    #: Spec name (``local`` / ``socket``).
    name = "?"

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

    @property
    def workers(self):
        """Current worker count (may change at runtime for clusters)."""
        return 1

    def describe(self):
        """Stats snapshot for ``repro engine stats`` / ``/v1/stats``."""
        return {"executor": self.name, "workers": self.workers}


def register_executor(name, factory):
    """Register ``factory(**options) -> Executor`` under ``name``."""
    _REGISTRY[name] = factory
    return factory


def executor_names():
    return sorted(_REGISTRY)


def make_executor(spec, **options):
    """Build an executor from a spec.

    ``spec`` is an :class:`Executor` instance (returned as-is), a
    registered name (``local`` / ``socket``), or ``None``
    (the local default).  Unknown names raise ``ValueError`` listing
    the registered backends.
    """
    if isinstance(spec, Executor):
        return spec
    name = spec or "local"
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; expected one of "
            f"{', '.join(executor_names())}"
        ) from None
    return factory(**options)
