"""The engine's process pool computes the same bytes as a serial run,
and a killed pool worker costs time, never a result.

The differential classes are the acceptance check of the executor
layer: a conformance campaign and a cached yield study (cold and warm)
must be byte-identical serially and on a two-worker pool, and ``repro
yield`` must print the same table serially and with ``--jobs 2``.  The
yield study and the DSE sweep are compared at three and four workers in
``tests/test_engine_consumers.py``.  The kill class SIGKILLs a real
pool worker mid-batch, and runs a job that kills every pool worker it
lands in.
"""

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro import engine as engine_mod
from repro.conformance.runner import run_campaign
from repro.engine import Engine, Job, job_function
from repro.fab.process import FC4_WAFER
from repro.fab.yield_model import run_yield_study
from repro.netlist.cores import build_flexicore4


@job_function("exectest.pool_killer", version="1")
def pool_killer_job(params, seed):
    """Kill whichever pool worker runs it; in the engine's own process
    (a serial run) return the value."""
    if os.getpid() != params["parent_pid"]:
        os._exit(1)
    return params["value"]


@job_function("exectest.sleepy", version="1")
def sleepy_job(params, seed):
    """Record the running process's pid, then sleep: a job slow enough
    to be killed mid-run."""
    pid_dir = params.get("pid_dir")
    if pid_dir:
        path = os.path.join(pid_dir, f"{params['value']}.pid")
        with open(path, "w") as handle:
            handle.write(str(os.getpid()))
    time.sleep(params.get("delay", 0.0))
    return params["value"]


def _canon(value):
    """Canonical bytes for a result structure (dict order and float
    repr included), so 'identical' means byte-identical."""
    return json.dumps(value, sort_keys=True, default=repr).encode()


@pytest.fixture(scope="module")
def netlist():
    return build_flexicore4()


@pytest.fixture(scope="module")
def baselines(netlist):
    """The serial results the pool must reproduce."""
    serial = Engine(jobs=1)
    return {
        "yield": run_yield_study(netlist, FC4_WAFER, wafers=3,
                                 seed=2022, engine=serial),
        "conform": run_campaign(0, 8, oracle_names=["asm", "dispatch"],
                                engine=serial, persist=False),
    }


def _campaign_fingerprint(summary):
    # elapsed_s is wall-clock, everything else must match exactly.
    return {key: summary[key] for key in
            ("cases", "slices", "divergences")}


class TestPoolDifferential:
    """The same differential on a real two-worker process pool."""

    def test_conform_identical(self, baselines):
        with Engine(jobs=2) as engine:
            summary = run_campaign(0, 8,
                                   oracle_names=["asm", "dispatch"],
                                   engine=engine, persist=False)
            assert engine.executor is not None  # the pool ran it
        assert _canon(_campaign_fingerprint(summary)) == \
            _canon(_campaign_fingerprint(baselines["conform"]))

    def test_cached_yield_cold_then_warm(self, netlist, baselines,
                                         tmp_path, monkeypatch):
        """The engine's cache is the only tier: a cold pool run stores
        each wafer once, flat, and a warm rerun never starts the
        pool."""
        monkeypatch.setenv("REPRO_STATE_DIR", str(tmp_path / "state"))
        root = tmp_path / "cache"
        with Engine(jobs=2, cache=root) as cold:
            summary = run_yield_study(netlist, FC4_WAFER, wafers=3,
                                      seed=2022, engine=cold)
            assert cold.executor is not None
        assert _canon(summary) == _canon(baselines["yield"])
        assert cold.metrics.cache_misses == 3

        files = sorted(path.relative_to(root).as_posix()
                       for path in root.rglob("*") if path.is_file())
        keys = sorted(path.stem for path in root.rglob("*.pkl"))
        assert len(keys) == 3
        assert files == sorted(
            ["last_run.json"]
            + [f"fab.wafer_yield/{key}{suffix}"
               for key in keys for suffix in (".json", ".pkl")]
        )

        with Engine(jobs=2, cache=root) as warm:
            assert run_yield_study(netlist, FC4_WAFER, wafers=3,
                                   seed=2022, engine=warm) == summary
            assert warm.metrics.cache_hits == 3
            assert warm.metrics.cache_misses == 0
            assert warm.executor is None


class TestCliDifferential:
    def test_yield_table_bytes_match_across_executors(self, capsys):
        """``repro yield`` prints the same table serially and over a
        two-worker pool."""
        from repro.cli import main

        outputs = {}
        for flags in ([], ["--jobs", "2"]):
            try:
                assert main(["yield", "--wafers", "2", "--seed", "7",
                             *flags]) == 0
                outputs[tuple(flags)] = capsys.readouterr().out
            finally:
                engine_mod.current_engine().close()
                engine_mod.reset()
        assert len(set(outputs.values())) == 1


def _await_pid(pid_dir, timeout=30.0):
    """The pid the first started job recorded."""
    deadline = time.monotonic() + timeout
    while True:
        for name in sorted(os.listdir(pid_dir)):
            with open(os.path.join(pid_dir, name)) as handle:
                text = handle.read()
            if text:
                return int(text)
        if time.monotonic() > deadline:
            raise TimeoutError("no job started within the timeout")
        time.sleep(0.01)


class TestPoolWorkerDeath:
    def test_killed_worker_batch_returns_serial_results(self, tmp_path):
        """SIGKILL one pool worker mid-batch: the pool breaks, the
        engine runs the lost jobs and the rest of the batch on a fresh
        pool, and the batch returns exactly what a serial run
        returns."""
        def batch(delay, pid_dir=None):
            return [Job(sleepy_job,
                        {"value": value, "delay": delay,
                         "pid_dir": pid_dir},
                        label=f"sleepy{value}")
                    for value in range(6)]

        # A job's value does not depend on its delay.
        serial = Engine(jobs=1).run(batch(0.0))

        pid_dir = str(tmp_path)
        outcome = {}

        def run():
            try:
                outcome["results"] = engine.run(batch(0.6, pid_dir))
            except Exception as exc:  # asserted on below
                outcome["error"] = exc

        with Engine(jobs=2) as engine:
            runner = threading.Thread(target=run, daemon=True)
            runner.start()
            try:
                pid = _await_pid(pid_dir)
                time.sleep(0.2)
                # Only ever a child of this process: a pool worker.
                children = {child.pid for child in
                            multiprocessing.active_children()}
                assert pid != os.getpid() and pid in children
                os.kill(pid, signal.SIGKILL)
            finally:
                runner.join(timeout=60.0)
            assert not runner.is_alive(), "batch hung after the kill"

        assert "error" not in outcome, outcome.get("error")
        assert outcome["results"] == serial
        # Every job last ran in a pool worker, the killed one's too:
        # none fell back to this process.
        for value in range(6):
            with open(os.path.join(pid_dir, f"{value}.pid")) as handle:
                assert int(handle.read()) != os.getpid()
        assert not engine.metrics.degraded
        assert engine.metrics.worker_failures == 1

    def test_pool_that_keeps_breaking_degrades_to_serial(self):
        """A job that kills every pool worker it runs in breaks each
        fresh pool: after ``_POOL_RESTARTS`` restarts the engine runs
        the batch serially and still returns the serial results."""
        from repro.engine.scheduler import _POOL_RESTARTS

        jobs = [Job(pool_killer_job,
                    {"value": value, "parent_pid": os.getpid()},
                    label=f"killer{value}")
                for value in range(4)]
        with Engine(jobs=2) as engine:
            results = engine.run(jobs)
        assert results == Engine(jobs=1).run(jobs) == [0, 1, 2, 3]
        assert engine.metrics.degraded
        assert engine.metrics.worker_failures == _POOL_RESTARTS + 1
