"""The experiment scheduler: fan jobs out, survive failures, stay exact.

The scheduler is one of three layers:

- **this module** decides *what* runs and in *which order*: a batch of
  independent jobs, handed over as a list (:meth:`Engine.run`) or one
  handle at a time (:meth:`Engine.submit` + :meth:`Engine.run_graph`).
  Both go through one loop;
- the :class:`~repro.engine.executors.local.LocalPoolExecutor` decides
  *where*: a process pool on this host;
- the :class:`~repro.engine.cache.ResultCache` remembers results by
  content address.  This module reads and writes it around dispatch,
  so the pool only runs jobs.

Execution strategy for one batch:

1. every job is first looked up in the result cache (when enabled);
2. the misses stream into the pool, one job per task; when at most one
   job is left to compute, or ``jobs <= 1``, they run inline and no
   pool starts;
3. each result is cached as soon as it lands;
4. a job that raises inside a worker is retried *serially* with
   exponential backoff plus deterministic-seeded jitter (bounded by
   ``retries``);
5. a broken pool is replaced by a fresh one and the jobs it lost are
   dispatched again, up to :data:`_POOL_RESTARTS` times per batch; one
   more break degrades the batch to serial for the remaining jobs
   rather than failing it.

A job that exhausts its retries is marked ``failed``; the other jobs
continue, and the first :class:`EngineJobError` is raised once the
batch has drained.

Because every job carries its own :class:`~repro.engine.job.ChildSeed`
and results are reassembled in submission order, none of the above
changes a single bit of the output.
"""

import hashlib
import json
import threading
import time
import weakref
from collections import deque

from repro import obs
from repro.engine.cache import ResultCache, job_cache_key
from repro.engine.executors.base import ExecutorBroken
from repro.engine.executors.local import LocalPoolExecutor
from repro.engine.metrics import (
    EngineMetrics,
    HookSet,
    StageMetrics,
    persist_last_run,
)


#: Fresh pools one batch may start after its pool breaks; the next
#: break degrades the rest of the batch to serial.
_POOL_RESTARTS = 2

#: Handle states.
PENDING = "pending"
DONE = "done"
CACHED = "cached"
FAILED = "failed"


class EngineJobError(RuntimeError):
    """A job kept failing after its retry budget was spent."""

    def __init__(self, label, attempts, cause):
        super().__init__(
            f"job {label!r} failed after {attempts} attempt(s): {cause}"
        )
        self.label = label
        self.attempts = attempts
        self.cause = cause


class EngineCancelled(RuntimeError):
    """A run was cancelled (``Engine.cancel``) before it finished."""


class JobNode:
    """The handle of one submitted job: its content address and, once
    its batch has run, its status and result (or error)."""

    __slots__ = ("index", "job", "key", "status", "result", "error")

    def __init__(self, index, job):
        self.index = index
        self.job = job
        try:
            self.key = job_cache_key(job)
        except TypeError:
            self.key = None   # params that cannot be keyed skip the cache
        self.status = PENDING
        self.result = None
        self.error = None     # EngineJobError once failed

    @property
    def done(self):
        return self.status in (DONE, CACHED)

    def __repr__(self):
        return (f"JobNode({self.index}, {self.job.label!r}, "
                f"{self.status})")


#: Every live engine, so a signal handler (or a service drain) can reach
#: in-flight runs without threading a reference through every call site.
_LIVE_ENGINES = weakref.WeakSet()

#: How often a blocked parallel wait rechecks the cancel flag (seconds).
_CANCEL_POLL_S = 0.2


def live_engines():
    """Engines currently executing a run."""
    return [engine for engine in list(_LIVE_ENGINES) if engine.running]


def cancel_all_engines():
    """Cancel every engine that is mid-run; returns how many were
    *newly* cancelled (an engine already winding down counts zero, so
    a repeated interrupt can escalate instead of being swallowed)."""
    cancelled = 0
    for engine in live_engines():
        # Only engines actually mid-run: an idle engine (or a forked
        # child's copy of one) must not absorb the signal -- the
        # handler falls through to the default behavior instead.
        if engine.running and engine.cancel():
            cancelled += 1
    return cancelled


def retry_delay_s(job, attempt, backoff):
    """Exponential backoff with deterministic-seeded jitter.

    ``backoff * 2**(attempt-1)`` scaled into ``[0.75, 1.25)`` by a
    hash of the job's identity and the attempt number, so a crowd of
    parallel workers retrying the same stage desynchronizes instead of
    stampeding the cache/index in lockstep -- while any single job's
    retry schedule stays bit-for-bit reproducible.
    """
    base = backoff * (2 ** (attempt - 1))
    basis = json.dumps([
        job.label,
        job.seed.token() if job.seed is not None else None,
        attempt,
    ], sort_keys=True)
    digest = hashlib.sha256(basis.encode("utf-8")).digest()
    jitter01 = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return base * (0.75 + 0.5 * jitter01)


class Engine:
    """Parallel, cached, fault-tolerant runner for :class:`Job` batches.

    Parameters
    ----------
    jobs:
        Worker count; ``<= 1`` runs everything inline.
    cache:
        ``None`` (disabled), ``True`` (default directory), a path, or a
        ready :class:`~repro.engine.cache.ResultCache`.
    retries / backoff:
        Failed jobs are re-run up to ``retries`` more times, sleeping
        ``backoff * 2**attempt`` seconds (with deterministic jitter)
        between attempts.
    hooks:
        Iterable of ``hook(event, payload)`` progress callbacks.
    pool_factory:
        ``factory(workers)`` returning the process pool (default: a
        :class:`~concurrent.futures.ProcessPoolExecutor`).
    """

    def __init__(self, jobs=1, cache=None, retries=2, backoff=0.05,
                 hooks=None, pool_factory=None):
        self.jobs = max(1, int(jobs))
        if cache is True:
            cache = ResultCache()
        elif isinstance(cache, (str, bytes)) or hasattr(cache, "__fspath__"):
            cache = ResultCache(cache)
        self.cache = cache
        self.retries = max(0, int(retries))
        self.backoff = backoff
        self.hooks = HookSet(hooks)
        self.hooks.add(obs.engine_bridge())
        self._pool_factory = pool_factory
        self._executor = None
        self.metrics = EngineMetrics(workers=self.jobs)
        self._cancel = threading.Event()
        self._running = False
        self._run_seq = 0
        self._submitted = []
        _LIVE_ENGINES.add(self)

    # -- executor plumbing --------------------------------------------

    @property
    def executor(self):
        """The live executor instance, or ``None`` before first use."""
        return self._executor

    def _start_executor(self, failure):
        """The started pool executor, or ``None`` (the batch degraded
        to serial) when no pool can be started."""
        try:
            if self._executor is None:
                self._executor = LocalPoolExecutor(self.jobs,
                                                   self._pool_factory)
            self._executor.start()
        except Exception as exc:
            self._degrade(f"{failure}: {exc}")
            return None
        return self._executor

    def close(self):
        """Shut down the executor's worker pool; idempotent."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()
        return False

    # -- public API ----------------------------------------------------

    def cancel(self):
        """Ask the engine to stop at the next job boundary.

        Safe from any thread or a signal handler.  An in-flight run
        raises :class:`EngineCancelled` promptly (blocked parallel
        waits poll the flag); a cancelled engine refuses further runs
        until :meth:`uncancel`.  Returns True when this call flipped
        the flag (False when already cancelled).
        """
        already = self._cancel.is_set()
        self._cancel.set()
        if not already:
            self.hooks.emit("cancelled", {"reason": "cancel requested"})
        return not already

    def uncancel(self):
        """Clear a previous :meth:`cancel` so the engine can run again."""
        self._cancel.clear()

    @property
    def cancelled(self):
        return self._cancel.is_set()

    @property
    def running(self):
        """True while a run is executing (any thread)."""
        return self._running

    def _check_cancelled(self):
        if self._cancel.is_set():
            raise EngineCancelled("engine run cancelled")

    def run(self, jobs, stage="run"):
        """Run every job; return results in submission order.

        Jobs submitted with :meth:`submit` and not yet run are left
        alone.  Each result is cached as it lands, and the first
        :class:`EngineJobError` is raised only after every other job
        has run, so a failed or cancelled batch keeps what it finished.
        """
        nodes = [JobNode(index, job) for index, job in enumerate(jobs)]
        return self._run_nodes(nodes, stage)

    def submit(self, job):
        """Add one job to the next :meth:`run_graph` batch; returns its
        :class:`JobNode` handle, which reports whether the job was
        computed or answered from the cache."""
        node = JobNode(len(self._submitted), job)
        self._submitted.append(node)
        return node

    def run_graph(self, stage="graph"):
        """Run every job submitted since the last :meth:`run_graph`, as
        :meth:`run` would; returns results in submission order and
        leaves each handle ``done``, ``cached`` or ``failed``."""
        nodes, self._submitted = self._submitted, []
        if not nodes:
            return []
        return self._run_nodes(nodes, stage)

    # -- the one scheduling loop ---------------------------------------

    def _run_nodes(self, nodes, stage):
        started = time.perf_counter()
        stage_metrics = StageMetrics(stage=stage, jobs=len(nodes))
        self.metrics.jobs_submitted += len(nodes)
        self._check_cancelled()
        self._running = True
        failures = []

        def resolve(node, value, *, where, attempts, elapsed,
                    cached=False, announced=False):
            node.result = value
            if cached:
                node.status = CACHED
                self.metrics.cache_hits += 1
                stage_metrics.cache_hits += 1
            else:
                node.status = DONE
                stage_metrics.computed += 1
                if self.cache is not None and node.key is not None:
                    self.cache.put(
                        _fn_name(node.job), node.key, value, meta={
                            "label": node.job.label,
                            "seed": (node.job.seed.token()
                                     if node.job.seed else None),
                        },
                    )
            if not announced:
                self.metrics.jobs_completed += 1
                self.hooks.emit("job_done", {
                    "label": node.job.label, "fn": _fn_name(node.job),
                    "status": "cached" if cached else "completed",
                    "attempts": attempts, "elapsed_s": elapsed,
                    "where": where,
                })

        def run_serial(node, attempts_used=0):
            try:
                value = self._attempt_until_done(node.job, attempts_used)
            except EngineJobError as err:
                node.status = FAILED
                node.error = err
                failures.append(err)
            else:
                resolve(node, value, where="serial",
                        attempts=attempts_used + 1, elapsed=0.0,
                        announced=True)

        try:
            with obs.span(f"engine.{stage}", jobs=len(nodes)):
                todo = deque()
                for node in nodes:
                    if self.cache is not None and node.key is not None:
                        hit, value = self.cache.get(
                            _fn_name(node.job), node.key
                        )
                        if hit:
                            resolve(node, value, where="cache",
                                    attempts=0, elapsed=0.0,
                                    cached=True)
                            continue
                        self.metrics.cache_misses += 1
                    todo.append(node)
                self._compute(todo, resolve, run_serial)
                self.hooks.emit("stage_done", {
                    "stage": stage, "jobs": len(nodes),
                    "cache_hits": stage_metrics.cache_hits,
                    "wall_s": time.perf_counter() - started,
                })
        finally:
            # Runs on success, failure, *and* cancellation: the metrics
            # record and the last-run snapshot must reflect what really
            # happened, so an interrupted campaign never leaves a
            # half-written or stale `.repro-state/` behind.
            self._running = False
            if self._cancel.is_set():
                # A cancelled executor may hold arbitrarily stale
                # work; drop it so the next run starts clean.
                self.close()
            stage_metrics.wall_s = time.perf_counter() - started
            self.metrics.wall_s += stage_metrics.wall_s
            self.metrics.stages.append(stage_metrics)
            persist_last_run(self.metrics)
        if failures:
            raise failures[0]
        return [node.result for node in nodes]

    def _compute(self, todo, resolve, run_serial):
        """Run the cache misses in ``todo``: inline, or streamed to the
        pool one job per task."""
        # A single job to compute runs inline: no pool is worth
        # starting for it.
        executor = None
        if len(todo) > 1 and self.jobs > 1:
            executor = self._start_executor("could not start executor")
        obs_ctx = obs.worker_context() if executor is not None else None
        self._run_seq += 1
        prefix = f"r{self._run_seq}"
        outstanding = {}
        restarts = 0

        while todo or outstanding:
            self._check_cancelled()
            if executor is None:
                run_serial(todo.popleft())
                continue
            broken = None
            while todo and broken is None:
                node = todo.popleft()
                task_id = f"{prefix}:{node.index}"
                job = (node.job.fn, dict(node.job.params), node.job.seed,
                       node.job.label)
                try:
                    executor.submit(task_id, job, obs_ctx)
                except ExecutorBroken as exc:
                    todo.appendleft(node)
                    broken = exc
                else:
                    outstanding[task_id] = node
            if broken is None:
                try:
                    item = executor.next_result(_CANCEL_POLL_S)
                except ExecutorBroken as exc:
                    broken = exc
                    item = None
                if item is not None:
                    task_id, outcome, obs_payload = item
                    node = outstanding.pop(task_id, None)
                    if node is not None:
                        obs.absorb(obs_payload)
                        if outcome[0] == "ok":
                            resolve(node, outcome[1], where="pool",
                                    attempts=1, elapsed=outcome[2])
                        else:
                            self.metrics.worker_failures += 1
                            run_serial(node, attempts_used=1)
            if broken is not None:
                # The executor dropped the dead pool and every job it
                # held: dispatch them again, on a fresh pool while the
                # batch has restarts left, else serially.
                self.metrics.worker_failures += 1
                todo.extend(outstanding.values())
                outstanding.clear()
                if restarts == _POOL_RESTARTS:
                    self._degrade(str(broken))
                    executor = None
                    continue
                restarts += 1
                executor = self._start_executor(
                    "could not restart executor"
                )

    # -- serial path ---------------------------------------------------

    def _attempt_until_done(self, job, attempts_used=0):
        attempt = attempts_used
        last_error = None
        while attempt <= self.retries:
            self._check_cancelled()
            attempt += 1
            started = time.perf_counter()
            try:
                with obs.span("engine.job", label=job.label,
                              where="serial"):
                    value = job.fn(dict(job.params), job.seed)
            except Exception as exc:
                last_error = f"{type(exc).__name__}: {exc}"
                if attempt <= self.retries:
                    self.metrics.retries += 1
                    time.sleep(retry_delay_s(job, attempt, self.backoff))
                continue
            self.metrics.jobs_completed += 1
            self.hooks.emit("job_done", {
                "label": job.label, "fn": _fn_name(job),
                "status": "completed", "attempts": attempt,
                "elapsed_s": time.perf_counter() - started,
                "where": "serial",
            })
            return value
        self.metrics.failures += 1
        self.hooks.emit("job_done", {
            "label": job.label, "fn": _fn_name(job),
            "status": "failed", "attempts": attempt,
            "elapsed_s": 0.0, "where": "serial",
        })
        try:
            from repro.obs import flight
            flight.dump("engine_job_failure", context={
                "label": job.label, "fn": _fn_name(job),
                "attempts": attempt, "error": str(last_error),
            })
        except Exception:  # diagnostics must not mask the real failure
            pass
        raise EngineJobError(job.label, attempt, last_error)

    def _degrade(self, reason):
        self.metrics.degraded = True
        self.hooks.emit("degraded", {"reason": reason})
        try:
            from repro.obs import flight
            flight.dump("engine_degraded", context={"reason": reason})
        except Exception:  # diagnostics must not fail the run
            pass


def _fn_name(job):
    from repro.engine.registry import function_identity

    return function_identity(job.fn)[0]
