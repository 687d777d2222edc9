"""``repro.engine`` -- parallel, cached, fault-tolerant experiment runs.

The engine is the execution substrate under the heavy experiment paths
(wafer Monte Carlo, the DSE sweep, the figure/table pipeline):

- :class:`Job` + :class:`ChildSeed` -- declarative work units whose
  per-job seeds come from ``numpy.random.SeedSequence.spawn``, so
  serial and parallel runs agree bit-for-bit;
- :class:`Engine` -- a scheduler streaming batches of independent jobs
  onto a local process pool, one job per task, with bounded retry with
  backoff and graceful degradation to serial when workers die;
- :class:`ResultCache` -- a content-addressed on-disk cache keyed on
  function identity + params + seed + package version, making repeat
  figure/table/DSE runs near-instant;
- :mod:`~repro.engine.metrics` -- progress hooks and the data behind
  ``repro engine stats``.
- :func:`run_jobs` -- one per-process memo of job results, keyed by
  job key, over the default engine, so readers that share a job run
  it once per process.

Library call sites accept an ``engine=`` argument and fall back to the
process-wide default configured here (serial, cache off -- the exact
legacy behavior) so nothing changes unless asked to::

    from repro import engine
    engine.configure(jobs=4, cache=True)       # e.g. from the CLI
    summary = run_yield_study(..., seed=2022)  # now parallel + cached
"""

from repro.engine.cache import (  # noqa: F401
    CACHE_DIR_ENV,
    ResultCache,
    default_cache_dir,
    job_cache_key,
)
from repro.engine.executors import ExecutorBroken  # noqa: F401
from repro.engine.job import (  # noqa: F401
    ChildSeed,
    Job,
    as_child_seed,
    spawn_seeds,
)
from repro.engine.metrics import (  # noqa: F401
    EngineMetrics,
    load_last_run,
    progress_printer,
)
from repro.engine.registry import (  # noqa: F401
    function_identity,
    job_function,
    registered,
)
from repro.engine.scheduler import (  # noqa: F401
    Engine,
    EngineCancelled,
    EngineJobError,
    JobNode,
    cancel_all_engines,
    live_engines,
    retry_delay_s,
)

__all__ = [
    "CACHE_DIR_ENV", "ChildSeed", "Engine",
    "EngineCancelled", "EngineJobError", "EngineMetrics",
    "ExecutorBroken", "Job", "JobNode", "ResultCache",
    "as_child_seed", "cancel_all_engines", "configure",
    "current_engine", "default_cache_dir", "engine_or_default",
    "function_identity", "job_cache_key", "job_function",
    "live_engines", "load_last_run", "progress_printer", "registered",
    "reset", "retry_delay_s", "run_jobs", "spawn_seeds",
]

#: Process-wide default configuration.  Serial and cache-less by
#: default so library imports behave exactly like the pre-engine code;
#: the CLI (and tests) opt in via :func:`configure`.
_DEFAULTS = {
    "jobs": 1,
    "cache": None,        # None | True | path | ResultCache
    "retries": 2,
    "backoff": 0.05,
    "hooks": None,
}
_config = dict(_DEFAULTS)
_default_engine = None


def configure(**overrides):
    """Update the process-wide default engine (e.g. ``jobs=4,
    cache=True``).  Returns the new default engine."""
    global _default_engine
    unknown = set(overrides) - set(_DEFAULTS)
    if unknown:
        raise TypeError(f"unknown engine options: {sorted(unknown)}")
    _config.update(overrides)
    _default_engine = None
    return current_engine()


def reset():
    """Restore the serial, cache-less default configuration."""
    global _default_engine
    _config.clear()
    _config.update(_DEFAULTS)
    _default_engine = None


def current_engine():
    """The lazily-built process-wide default :class:`Engine`."""
    global _default_engine
    if _default_engine is None:
        _default_engine = Engine(**_config)
    return _default_engine


def engine_or_default(engine=None):
    """Call-site helper: an explicit engine wins, else the default."""
    return engine if engine is not None else current_engine()


#: Every result :func:`run_jobs` returned in this process, by job key.
_RESULTS = {}


def run_jobs(jobs, stage):
    """``{name: result}`` for ``jobs`` (``{name: Job}``), on the default
    engine.

    Results are kept under each job's cache key, so a reader gets the
    same result however it spells its arguments, and a job two readers
    share runs once per process.  The jobs not kept yet run as one
    engine run: computed when cold, read from the result cache when
    warm."""
    keys = {name: job_cache_key(job) for name, job in jobs.items()}
    missing = {key: jobs[name] for name, key in keys.items()
               if key not in _RESULTS}
    if missing:
        results = current_engine().run(list(missing.values()), stage=stage)
        _RESULTS.update(zip(missing, results))
    return {name: _RESULTS[key] for name, key in keys.items()}
