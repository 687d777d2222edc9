"""The experiment scheduler: fan jobs out, survive failures, stay exact.

The scheduler is one of three layers:

- **this module** decides *what* runs and in *which order* -- flat
  batches through :meth:`Engine.run`, dependency graphs through
  :meth:`Engine.submit` + :meth:`Engine.run_graph`.  Both go through
  one loop: a flat batch is a graph without edges;
- an :mod:`executor <repro.engine.executors>` decides *where*: a
  process pool on this host;
- the :class:`~repro.engine.cache.ResultCache` remembers results by
  content address.  This module reads and writes it around dispatch,
  so executors only run jobs.

Execution strategy for one run:

1. every job is first looked up in the result cache (when enabled);
2. jobs whose dependencies have finished stream into the executor,
   one job per task, with an optional per-job timeout; when at most
   one job is left to compute, or ``jobs <= 1``, the jobs run inline
   and no pool starts;
3. each result is cached as soon as it lands;
4. a job that raises inside a worker is retried *serially* with
   exponential backoff plus deterministic-seeded jitter (bounded by
   ``retries``);
5. a broken pool is replaced by a fresh one and its lost jobs are
   dispatched again, up to :data:`_POOL_RESTARTS` times per run; one
   more break, or a timeout, degrades the run to serial for the
   remaining jobs rather than failing it.

A job that exhausts its retries marks every transitive dependent
``cancelled`` without running it; unrelated jobs continue, and the
first :class:`EngineJobError` is raised once the run has drained.

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
from repro.engine.graph import (
    CACHED,
    CANCELLED,
    DISPATCHED,
    DONE,
    FAILED,
    PENDING,
    GraphError,
    JobNode,
    effective_params,
    node_cache_key,
    normalize_deps,
)
from repro.engine.job import Job
from repro.engine.metrics import (
    EngineMetrics,
    HookSet,
    StageMetrics,
    persist_last_run,
)


#: Fresh pools one run may start after its pool breaks; the next break
#: degrades the rest of the run to serial.
_POOL_RESTARTS = 2


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
    """Parallel, cached, fault-tolerant runner for :class:`Job` lists.

    Parameters
    ----------
    jobs:
        Worker count; ``<= 1`` runs everything inline.
    cache:
        ``None`` (disabled), ``True`` (default directory), a path, or a
        ready :class:`~repro.engine.cache.ResultCache`.
    timeout:
        Optional per-job seconds; enforced while waiting on worker
        results (a timed-out job degrades the run to serial).
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

    def __init__(self, jobs=1, cache=None, timeout=None, retries=2,
                 backoff=0.05, hooks=None, pool_factory=None):
        self.jobs = max(1, int(jobs))
        if cache is True:
            cache = ResultCache()
        elif isinstance(cache, (str, bytes)) or hasattr(cache, "__fspath__"):
            cache = ResultCache(cache)
        self.cache = cache
        self.timeout = timeout
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
        self._graph = []
        self._graph_seq = 0
        _LIVE_ENGINES.add(self)

    # -- executor plumbing --------------------------------------------

    @property
    def executor(self):
        """The live executor instance, or ``None`` before first use."""
        return self._executor

    def _ensure_executor(self):
        if self._executor is None:
            self._executor = LocalPoolExecutor(self.jobs,
                                               self._pool_factory)
        self._executor.start()
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

        A flat batch is a graph without edges: it runs through the
        same loop as :meth:`run_graph` but leaves the nodes pending
        from :meth:`submit` alone.  Each result is cached as it lands,
        and the first :class:`EngineJobError` is raised only after
        every other job has run, so a failed or cancelled batch keeps
        what it finished.
        """
        nodes = [_keyed_node(index, job, [])
                 for index, job in enumerate(jobs)]
        return self._run_nodes(nodes, stage)

    # -- graph API -----------------------------------------------------

    def submit(self, job, deps=None):
        """Add one job to the pending graph; returns its
        :class:`~repro.engine.graph.JobNode` handle.

        ``deps`` is an iterable of nodes (ordering-only) or a mapping
        of ``param name -> node | [nodes]`` whose results are injected
        into ``params`` at dispatch time.  The next
        :meth:`run_graph` call runs everything submitted since the
        last one.
        """
        node = _keyed_node(self._graph_seq, job, normalize_deps(deps))
        self._graph_seq += 1
        for dep in node.dep_nodes():
            if dep.status in (FAILED, CANCELLED):
                raise GraphError(
                    f"dependency {dep.job.label!r} already "
                    f"{dep.status}; cannot submit {node.job.label!r}"
                )
        self._graph.append(node)
        return node

    def run_graph(self, stage="graph", raise_on_error=True):
        """Run every node submitted since the last graph run.

        Nodes stream into the executor as their dependencies finish,
        so independent branches overlap.  Returns results in
        submission order (``None`` for failed/cancelled nodes).  With
        ``raise_on_error`` (default) the first
        :class:`EngineJobError` is raised *after* the graph has
        drained -- inspect the returned node handles for per-branch
        status when catching it.
        """
        nodes, self._graph = self._graph, []
        if not nodes:
            return []
        return self._run_nodes(nodes, stage, raise_on_error)

    # -- the one scheduling loop ---------------------------------------

    def _run_nodes(self, nodes, stage, raise_on_error=True):
        started = time.perf_counter()
        stage_metrics = StageMetrics(stage=stage, jobs=len(nodes))
        self.metrics.jobs_submitted += len(nodes)
        self._check_cancelled()
        self._running = True

        ready = deque()
        queued = set()
        failures = []

        def push_ready(node):
            if (node.index not in queued and node.status == PENDING
                    and not node.waiting):
                queued.add(node.index)
                ready.append(node)

        def resolve(node, value, *, where, attempts, elapsed,
                    cached=False, announced=False):
            node.result = value
            node.status = DONE
            if cached:
                node.status = CACHED
                self.metrics.cache_hits += 1
                stage_metrics.cache_hits += 1
            else:
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
            for dependent in node.dependents:
                dependent.waiting.discard(node)
                push_ready(dependent)

        def fail(node, error):
            node.status = FAILED
            node.error = error
            failures.append(error)
            stack = list(node.dependents)
            while stack:
                dependent = stack.pop()
                if dependent.status != PENDING:
                    continue
                dependent.status = CANCELLED
                dependent.error = (
                    f"upstream job {node.job.label!r} failed"
                )
                self.metrics.cancelled += 1
                self.hooks.emit("job_done", {
                    "label": dependent.job.label,
                    "fn": _fn_name(dependent.job),
                    "status": "cancelled", "attempts": 0,
                    "elapsed_s": 0.0, "where": "graph",
                })
                stack.extend(dependent.dependents)

        def run_serial_node(node, attempts_used=0):
            try:
                value = self._attempt_until_done(
                    self._effective_job(node), attempts_used
                )
            except EngineJobError as err:
                fail(node, err)
            else:
                resolve(node, value, where="serial",
                        attempts=attempts_used + 1, elapsed=0.0,
                        announced=True)

        try:
            with obs.span(f"engine.{stage}", jobs=len(nodes)):
                for node in nodes:
                    for dep in node.dep_nodes():
                        if dep.status in (FAILED, CANCELLED):
                            raise GraphError(
                                f"dependency {dep.job.label!r} is "
                                f"{dep.status}"
                            )
                        if not dep.done:
                            node.waiting.add(dep)
                            dep.dependents.append(node)

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
                for node in nodes:
                    push_ready(node)

                computing = sum(node.status == PENDING for node in nodes)
                self._drive_graph(ready, resolve, run_serial_node,
                                  computing)

                self.hooks.emit("stage_done", {
                    "stage": stage, "jobs": len(nodes),
                    "cache_hits": stage_metrics.cache_hits,
                    "wall_s": time.perf_counter() - started,
                })
        finally:
            # Runs on success, failure, *and* cancellation: the metrics
            # record and the last-run snapshot must reflect what really
            # happened, so an interrupted campaign never leaves a
            # half-written or stale `.repro-state/` behind.  The
            # snapshot goes to the state directory no matter how (or
            # whether) results were cached, so `repro engine stats`
            # reflects --no-cache runs too; a copy lands next to the
            # cache for backward compatibility with cache-rooted
            # readers.
            self._running = False
            if self._cancel.is_set():
                # A cancelled executor may hold arbitrarily stale
                # work; drop it so the next run starts clean.
                self.close()
            stage_metrics.wall_s = time.perf_counter() - started
            self.metrics.wall_s += stage_metrics.wall_s
            self.metrics.stages.append(stage_metrics)
            persist_last_run(
                self.metrics,
                self.cache.root if self.cache is not None else None,
            )
        if failures and raise_on_error:
            raise failures[0]
        return [node.result for node in nodes]

    def _effective_job(self, node):
        """The node's job with dependency results injected."""
        job = node.job
        return Job(job.fn, effective_params(node), job.seed,
                   job.label, node.key)

    def _drive_graph(self, ready, resolve, run_serial_node, computing):
        # A single job to compute runs inline: no pool is worth
        # starting for it.
        use_parallel = computing > 1 and self.jobs > 1
        executor = None
        if use_parallel:
            try:
                executor = self._ensure_executor()
            except Exception as exc:
                self._degrade(f"could not start executor: {exc}")
                use_parallel = False
        obs_ctx = obs.worker_context() if use_parallel else None
        self._run_seq += 1
        prefix = f"g{self._run_seq}"
        outstanding = {}
        deadlines = {}
        restarts = 0

        def dispatch(node):
            job = node.job
            entry = (job.fn, effective_params(node), job.seed, job.label)
            task_id = f"{prefix}:{node.index}"
            executor.submit(task_id, [entry], obs_ctx)
            node.status = DISPATCHED
            outstanding[task_id] = node
            if self.timeout:
                deadlines[task_id] = time.monotonic() + self.timeout

        # A node queued when its dependency hit the cache may have hit
        # the cache itself since: only PENDING nodes still need work.
        while ready or outstanding:
            self._check_cancelled()
            if not use_parallel:
                node = ready.popleft()
                if node.status == PENDING:
                    run_serial_node(node)
                continue
            broken = None
            timed_out = False
            while ready and broken is None:
                node = ready.popleft()
                if node.status != PENDING:
                    continue
                try:
                    dispatch(node)
                except ExecutorBroken as exc:
                    node.status = PENDING
                    ready.appendleft(node)
                    broken = exc
            if outstanding and broken is None:
                try:
                    item = executor.next_result(_CANCEL_POLL_S)
                except ExecutorBroken as exc:
                    broken = exc
                    item = None
                now = time.monotonic()
                if broken is None and deadlines and any(
                    deadline < now for deadline in deadlines.values()
                ):
                    timed_out = True
                    broken = ExecutorBroken(
                        "timeout waiting on graph node(s)"
                    )
                if item is not None:
                    task_id, outcomes, obs_payload = item
                    node = outstanding.pop(task_id, None)
                    if node is not None:
                        deadlines.pop(task_id, None)
                        obs.absorb(obs_payload)
                        outcome = outcomes[0]
                        if outcome[0] == "ok":
                            resolve(node, outcome[1], where="pool",
                                    attempts=1, elapsed=outcome[2])
                        else:
                            self.metrics.worker_failures += 1
                            run_serial_node(node, attempts_used=1)
            if broken is not None:
                self.metrics.worker_failures += 1
                for node in outstanding.values():
                    node.status = PENDING
                    ready.append(node)
                outstanding.clear()
                deadlines.clear()
                if timed_out or restarts == _POOL_RESTARTS:
                    self._degrade(str(broken))
                    use_parallel = False
                    continue
                # The executor dropped the dead pool; start a fresh one
                # for the lost nodes and the rest of the run.
                restarts += 1
                try:
                    executor = self._ensure_executor()
                except Exception as exc:
                    self._degrade(f"could not restart executor: {exc}")
                    use_parallel = False

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


def _keyed_node(index, job, deps):
    """A graph node for ``job`` with its content address filled in
    (``None`` when its params cannot be keyed: it then skips the
    cache)."""
    job = job if isinstance(job, Job) else Job(*job)
    node = JobNode(index, job, deps)
    try:
        base_key = job_cache_key(job)
    except TypeError:
        base_key = None
    node.key = node_cache_key(base_key, deps)
    return node


def _fn_name(job):
    from repro.engine.registry import function_identity

    return function_identity(job.fn)[0]
