"""Engine run metrics and progress hooks.

The scheduler emits an event stream through registered hooks and folds
the same events into an :class:`EngineMetrics` record.  Events:

``job_start``      {label, fn}
``job_done``       {label, fn, status, attempts, elapsed_s, where}
``stage_done``     {stage, jobs, cache_hits, wall_s}
``degraded``       {reason}

``status`` is one of ``cached | completed | failed``; ``where`` is
``pool`` or ``serial``.  Hooks must never raise into the scheduler -- a
failing hook is dropped for the remainder of the run.
"""

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List


@dataclass
class StageMetrics:
    """One ``Engine.run`` invocation."""

    stage: str
    jobs: int = 0
    cache_hits: int = 0
    computed: int = 0
    wall_s: float = 0.0


@dataclass
class EngineMetrics:
    """Counters for one engine lifetime (possibly several stages)."""

    jobs_submitted: int = 0
    jobs_completed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    retries: int = 0
    failures: int = 0
    worker_failures: int = 0
    degraded: bool = False
    wall_s: float = 0.0
    workers: int = 1
    stages: List[StageMetrics] = field(default_factory=list)

    @property
    def cache_hit_rate(self):
        seen = self.cache_hits + self.cache_misses
        return self.cache_hits / seen if seen else 0.0

    def to_dict(self):
        return {
            "jobs_submitted": self.jobs_submitted,
            "jobs_completed": self.jobs_completed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_rate": round(self.cache_hit_rate, 4),
            "retries": self.retries,
            "failures": self.failures,
            "worker_failures": self.worker_failures,
            "degraded": self.degraded,
            "wall_s": round(self.wall_s, 4),
            "workers": self.workers,
            "stages": [
                {
                    "stage": s.stage,
                    "jobs": s.jobs,
                    "cache_hits": s.cache_hits,
                    "computed": s.computed,
                    "wall_s": round(s.wall_s, 4),
                }
                for s in self.stages
            ],
        }

    def summary(self):
        """One-paragraph human rendering (the ``engine stats`` view)."""
        lines = [
            f"jobs: {self.jobs_completed}/{self.jobs_submitted} completed"
            f" ({self.workers} worker{'s' if self.workers != 1 else ''}"
            f"{', degraded to serial' if self.degraded else ''})",
            f"cache: {self.cache_hits} hits / {self.cache_misses} misses"
            f" ({100 * self.cache_hit_rate:.0f}% hit rate)",
            f"failures: {self.failures} "
            f"(retries {self.retries}, worker failures "
            f"{self.worker_failures})",
            f"wall clock: {self.wall_s:.2f} s",
        ]
        for stage in self.stages:
            lines.append(
                f"  stage {stage.stage}: {stage.jobs} jobs, "
                f"{stage.cache_hits} cached, {stage.computed} computed, "
                f"{stage.wall_s:.2f} s"
            )
        return "\n".join(lines)


class HookSet:
    """Fan-out of engine events to user callbacks, failure-isolated."""

    def __init__(self, hooks=None):
        self._hooks: List[Callable[[str, Dict], None]] = list(hooks or [])

    def add(self, hook):
        self._hooks.append(hook)

    def emit(self, event, payload):
        dead = []
        for hook in self._hooks:
            try:
                hook(event, payload)
            except Exception:
                dead.append(hook)
        for hook in dead:
            self._hooks.remove(hook)


def progress_printer(stream=None):
    """A ready-made hook rendering one line per finished job/stage.

    Lines go through the structured logger's human renderer to the
    given stream (stderr by default), bypassing the level threshold:
    installing this hook *is* the opt-in (``--engine-verbose``).
    """
    import sys

    from repro.obs.logging import render_human

    def hook(event, payload):
        out = stream or sys.stderr
        if event == "job_done":
            line = render_human(
                "repro.engine", "info",
                f"{payload['label']}: {payload['status']}",
                {"elapsed_s": payload["elapsed_s"],
                 "where": payload["where"]},
            )
        elif event == "stage_done":
            line = render_human(
                "repro.engine", "info",
                f"stage {payload['stage']} done",
                {"jobs": payload["jobs"],
                 "cached": payload["cache_hits"],
                 "wall_s": payload["wall_s"]},
            )
        elif event == "degraded":
            line = render_human(
                "repro.engine", "warning", "degraded to serial",
                {"reason": payload["reason"]},
            )
        else:
            return
        out.write(line + "\n")

    return hook


def persist_last_run(metrics):
    """Persist the metrics snapshot for ``repro engine stats`` to the
    observability state directory (:mod:`repro.obs.state`), which
    exists whether or not caching is on."""
    from repro.obs import state as obs_state

    obs_state.write_json(obs_state.LAST_RUN_FILE,
                         dict(metrics.to_dict(), written=time.time()))


def load_last_run():
    """The latest persisted run metrics, or ``None``."""
    from repro.obs import state as obs_state

    return obs_state.read_json(obs_state.LAST_RUN_FILE)
