"""The run loop: setup probes, timed iterations, the traced iteration.

Everything a run writes goes under ``$REPRO_STATE_DIR/bench/`` (default
``<repo>/.repro-state/bench/``): a scratch directory per run, removed at
the end, and one JSON result (plus a Chrome trace per traced workload).
"""

import contextlib
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.suite import trace as tracing

ROOT = Path(__file__).resolve().parents[2]
SUITE = Path(__file__).resolve().parent

#: Fresh interpreters timed per run for ``setup_s``.
SETUP_REPEATS = 7
#: Timed iterations per workload (and set), however short the budget.
MIN_ITERATIONS = 3
#: Worker processes of every engine the benchmark creates.
ENGINE_JOBS = 2
#: Longest any single benchmark subprocess may run.
SUBPROCESS_TIMEOUT_S = 150


def spec():
    """``BENCHMARK.json``: the declared workloads and metrics."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def golden():
    return json.loads((SUITE / "golden.json").read_text())


def digest(value):
    """Content digest of an output, via the engine's canonical form (so
    floats hash by their exact repr and numpy scalars as Python ones)."""
    from repro.engine.cache import canonical

    text = json.dumps(canonical(value), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def iteration_seed(seed, index):
    """Iteration 0 uses the run seed itself (so it can be checked against
    the pinned digests); later iterations draw their own inputs, so a
    run's medians average over inputs instead of repeating one."""
    if index == 0:
        return seed
    token = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(token[:4], "big")


def median(values):
    return statistics.median(values) if values else float("nan")


def quantile(values, q):
    """The ``q`` quantile by linear interpolation (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb(children_only=False):
    """Highest ``ru_maxrss`` of this process and its reaped children.

    ``RUSAGE_CHILDREN`` covers only children already waited for, so call
    this after every pool and subprocess has been reaped.
    """
    kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if not children_only:
        kib = max(kib, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return kib / 1024.0


def cpu_seconds():
    """User + system CPU of this process and its reaped children.

    Batch timings are differences of this, taken after the workers and
    subprocesses of the timed run are reaped: on this virtual machine
    the hypervisor steals 20-60% of the CPU at times, which stretches
    wall time by as much but leaves CPU time alone.
    """
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


class Sample:
    """What one iteration measured and whether its outputs checked out.

    ``attempted`` counts the operations the iteration made (one for a
    batch run, one per request for the service); ``failed`` counts those
    that failed or whose output check failed.
    """

    def __init__(self, attempted=1):
        self.cold = []
        self.warm = []
        #: Wall seconds of each operation a user waits for (see
        #: :meth:`Tally.metrics`).
        self.latency = []
        self.digest = None
        self.errors = []
        self.attempted = attempted
        self.failed = 0
        self.details = {}

    def fail(self, message):
        self.errors.append(message)
        self.failed = min(self.attempted, self.failed + 1)


def failed_sample(what, exc):
    """A :class:`Sample` for a step that raised: an error in the program
    under test fails the run instead of ending it without a result."""
    sample = Sample()
    sample.fail(f"{what} raised {type(exc).__name__}: {exc}")
    return sample


class Context:
    """Scratch space and process environment of one benchmark run."""

    def __init__(self):
        if not (ROOT / "src" / "repro").is_dir():
            raise SystemExit(
                f"benchmark: no program to measure under {ROOT / 'src'}"
            )
        state = os.environ.get("REPRO_STATE_DIR")
        self.bench_dir = (Path(state) if state else ROOT / ".repro-state") \
            / "bench"
        self.scratch_root = self.bench_dir / f"scratch-{os.getpid()}"
        self._counter = 0
        self._saved_env = {}
        self._saved_tempdir = None

    def __enter__(self):
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))
        import repro

        if not Path(repro.__file__).resolve().is_relative_to(ROOT):
            raise SystemExit(
                f"benchmark: imported repro from {repro.__file__}, "
                f"not from {ROOT / 'src'}"
            )
        self.scratch_root.mkdir(parents=True, exist_ok=True)
        # In-process engines persist a last-run snapshot and the
        # conformance oracles make temp dirs: keep both in scratch.
        for name, value in self._base_env(self.scratch_root).items():
            self._saved_env[name] = os.environ.get(name)
            os.environ[name] = value
        self._saved_tempdir = tempfile.tempdir
        tempfile.tempdir = str(self.scratch_root)
        return self

    def __exit__(self, *exc_info):
        for name, value in self._saved_env.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        tempfile.tempdir = self._saved_tempdir
        shutil.rmtree(self.scratch_root, ignore_errors=True)
        return False

    def _base_env(self, directory):
        return {
            "REPRO_STATE_DIR": str(directory / "state"),
            "REPRO_CACHE_DIR": str(directory / "cache"),
            "TMPDIR": str(self.scratch_root),
        }

    def scratch(self, label):
        """A new empty directory under this run's scratch root."""
        self._counter += 1
        path = self.scratch_root / f"{self._counter:04d}-{label}"
        path.mkdir()
        return path

    def env(self, directory, **extra):
        """Environment for a subprocess whose program state and cache
        live under ``directory``."""
        env = dict(os.environ)
        env.update(self._base_env(directory))
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        env.update(extra)
        return env

    def python(self, *args, directory, **extra):
        """Run ``python *args`` from the repo root; returns ``(CPU
        seconds of it and its workers, wall seconds, return code,
        stderr)``.  On a timeout the whole process group goes, so no
        orphaned pool worker outlives it."""
        started, wall = cpu_seconds(), time.perf_counter()
        with subprocess.Popen(
            [sys.executable, *args], cwd=ROOT,
            env=self.env(directory, **extra), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        ) as process:
            try:
                _, stderr = process.communicate(timeout=SUBPROCESS_TIMEOUT_S)
            except BaseException:
                os.killpg(process.pid, signal.SIGKILL)
                process.wait()
                raise
        return (cpu_seconds() - started, time.perf_counter() - wall,
                process.returncode, stderr)

    @contextlib.contextmanager
    def engine(self, cache):
        """A new ``Engine(jobs=ENGINE_JOBS)`` on ``cache``; its worker
        pools are joined on exit, so their rusage and trace buffers are
        in by the time the block is left."""
        from concurrent.futures import ProcessPoolExecutor

        from repro.engine import Engine

        pools = []

        def pool_factory(workers):
            # The engine's own default, a fork-started pool: forked
            # workers inherit the tracer's probes.
            pool = ProcessPoolExecutor(max_workers=workers)
            pools.append(pool)
            return pool

        engine = Engine(jobs=ENGINE_JOBS, cache=str(cache),
                        pool_factory=pool_factory)
        try:
            yield engine
        finally:
            for pool in pools:
                pool.shutdown(wait=True)
            engine.close()


class Tally:
    """The timed samples of one workload (one set of an interleaved run)."""

    def __init__(self):
        self.setup = []
        self.samples = []
        #: Wall seconds spent in this tally's timed iterations.
        self.elapsed = 0.0

    def values(self, phase):
        return [value for sample in self.samples
                for value in getattr(sample, phase)]

    def metrics(self, rss_mb, tail):
        """``{name: [value, samples]}`` for every end-to-end metric.

        ``latency_ms`` is the ``tail`` quantile (see ``Workload.TAIL``)
        of wall-clock latency pooled over the run, so it sees waiting
        that costs no CPU.
        """
        cold, warm = self.values("cold"), self.values("warm")
        latency = self.values("latency")
        return {
            "setup_s": [median(self.setup), len(self.setup)],
            "cold_s": [median(cold), len(cold)],
            "warm_s": [median(warm), len(warm)],
            "latency_ms": [1e3 * quantile(latency, tail), len(latency)],
            "rss_peak_mb": [rss_mb, 1],
        }


def merged(tallies):
    """One tally holding every set's samples, iteration 0 first."""
    everything = Tally()
    for tally in tallies:
        everything.setup.extend(tally.setup)
        everything.samples.extend(tally.samples)
    return everything


def _log(message):
    print(message, file=sys.stderr, flush=True)


def run(workloads, *, seed, seconds, trace=None, sets=1):
    """Measure ``workloads``; returns the result document.

    ``trace`` is ``0`` (end-to-end metrics only), ``1`` (per-layer
    metrics only) or ``None`` (both).  With ``sets > 1`` iterations
    alternate between sets -- ABAB, the order flipped every round -- and
    each set also gets its own end-to-end metrics.
    """
    tallies = {workload.name: [Tally() for _ in range(sets)]
               for workload in workloads}
    # Warm-up and traced iterations and steps that raised: checked and
    # counted, never timed.
    untimed = {workload.name: [] for workload in workloads}
    layers = {}
    rss = {}
    result = {"seed": seed, "seconds": seconds, "sets": sets,
              "workloads": {}}
    with Context() as ctx:
        started = []
        # Workloads still running without an error raised.
        healthy = []
        try:
            for workload in workloads:
                _log(f"[{workload.name}] starting")
                started.append(workload)  # stopped even if start fails
                try:
                    workload.start(ctx, seed)
                    untimed[workload.name].extend(
                        workload.warm_up(ctx, seed))
                except Exception as exc:
                    untimed[workload.name].append(
                        failed_sample("start and warm-up", exc))
                    continue
                healthy.append(workload)
            _rounds(ctx, healthy, tallies, untimed, seed, seconds, sets,
                    probes=SETUP_REPEATS if trace != 1 else 0)
            # Before tracing: its probes, span buffers and traced
            # subprocesses would add to the peak.
            for workload in healthy:
                rss[workload.name] = workload.peak_rss_mb()
            for workload in healthy:
                first = tallies[workload.name][0].samples[0]
                try:
                    errors = workload.check(ctx, seed, first)
                except Exception as exc:
                    errors = failed_sample("output check", exc).errors
                for error in errors:
                    first.fail(error)
            if trace != 0:
                for workload in healthy:
                    try:
                        samples, layers[workload.name] = _traced(
                            ctx, workload, seed,
                            merged(tallies[workload.name]), result)
                    except Exception as exc:
                        samples = [failed_sample("traced iteration", exc)]
                    untimed[workload.name].extend(samples)
        finally:
            for workload in started:
                workload.stop(ctx)
        for workload in workloads:
            everything = merged(tallies[workload.name])
            samples = everything.samples + untimed[workload.name]
            entry = {
                "params": workload.params(),
                "iterations": len(samples),
                "attempted": sum(sample.attempted for sample in samples),
                "failed": sum(sample.failed for sample in samples),
                "errors": [error for sample in samples
                           for error in sample.errors][:20],
                "digest": samples[0].digest,
                "details": samples[0].details,
            }
            if trace != 1:
                peak = rss.get(workload.name, float("nan"))
                entry["end_to_end"] = everything.metrics(peak, workload.TAIL)
                entry["samples"] = {"setup": everything.setup,
                                    "cold": everything.values("cold"),
                                    "warm": everything.values("warm"),
                                    "latency": everything.values("latency")}
                if sets > 1:
                    entry["sets"] = [tally.metrics(peak, workload.TAIL)
                                     for tally in tallies[workload.name]]
            if trace != 0:
                entry["per_layer"] = layers.get(workload.name, {})
            result["workloads"][workload.name] = entry
        path = ctx.bench_dir / (
            f"{_stamp()}-{'+'.join(result['workloads'])}.json")
        result["result_path"] = str(path)
        path.write_text(json.dumps(result, indent=2, sort_keys=True))
    return result


def _set_order(round_index, sets):
    order = list(range(sets))
    return order if round_index % 2 == 0 else order[::-1]


def _rounds(ctx, workloads, tallies, untimed, seed, seconds, sets, probes):
    """Round-robin over workloads until each has spent ``seconds`` in
    timed iterations (and run ``MIN_ITERATIONS``) and ``probes`` setup
    probes in every set.  Host speed drifts by tens of percent within
    seconds here, so iterations and probes of every workload and set are
    spread over the whole run instead of landing together on one fast or
    slow stretch.

    A workload whose iteration or setup probe raises is recorded as
    failed and dropped from the rest of the run (and from ``workloads``,
    so it is not checked or traced either)."""
    counters = {workload.name: 0 for workload in workloads}
    round_index = 0
    busy = True
    while busy:
        busy = False
        for workload in list(workloads):
            for index in _set_order(round_index, sets):
                if workload not in workloads:
                    break
                tally = tallies[workload.name][index]
                if len(tally.setup) < probes:
                    try:
                        tally.setup.append(workload.setup_seconds(ctx, seed))
                    except Exception as exc:
                        untimed[workload.name].append(
                            failed_sample("setup probe", exc))
                        workloads.remove(workload)
                        break
                    busy = True
                if (len(tally.samples) < MIN_ITERATIONS
                        or tally.elapsed < seconds):
                    count = counters[workload.name]
                    counters[workload.name] += 1
                    started = time.perf_counter()
                    try:
                        sample = workload.iterate(
                            ctx, count, iteration_seed(seed, count))
                    except Exception as exc:
                        sample = failed_sample(f"iteration {count}", exc)
                        workloads.remove(workload)
                    tally.elapsed += time.perf_counter() - started
                    tally.samples.append(sample)
                    _log(f"[{workload.name}] iteration {count}: cold "
                         f"{_fmt(sample.cold)} warm {_fmt(sample.warm)}"
                         + (f" ERRORS {sample.errors}"
                            if sample.errors else ""))
                    busy = True
        round_index += 1


def _fmt(values):
    return f"{median(values):.4f}s" if values else "-"


def _traced(ctx, workload, seed, untraced, result):
    """Iteration 0 again with every probe installed, ``TRACED_REPEATS``
    times; returns those samples and the per-layer metrics.

    The layers come from the first traced iteration.  The overhead
    compares the median cold time of all of them with the untraced
    median: one iteration alone moves by more than the overhead here.
    """
    samples = []
    documents = None
    for _ in range(workload.TRACED_REPEATS):
        sample, found = workload.traced(
            ctx, seed, ctx.scratch(f"trace-{workload.name}"))
        _log(f"[{workload.name}] traced: cold {_fmt(sample.cold)}")
        reference = untraced.samples[0].digest
        if sample.digest != reference:
            sample.fail(f"traced digest {sample.digest} != untraced "
                        f"{reference}")
        samples.append(sample)
        documents = documents or found
    metrics = tracing.layer_metrics(documents)
    traced_cold = [value for sample in samples for value in sample.cold]
    metrics["trace.overhead_frac"] = (
        median(traced_cold) / median(untraced.values("cold")) - 1.0)
    metrics.update(workload.request_metrics(samples[0], untraced))
    chrome = ctx.bench_dir / f"{_stamp()}-{workload.name}.trace.json"
    chrome.write_text(json.dumps(tracing.chrome_trace(documents)))
    result.setdefault("chrome_traces", {})[workload.name] = str(chrome)
    return samples, metrics


def _stamp():
    return time.strftime("%Y%m%dT%H%M%S", time.gmtime())
