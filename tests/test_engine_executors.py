"""Executor backends: every backend computes the same bytes, and a
killed worker's jobs are requeued exactly once.

The differential classes are the acceptance check of the pluggable
executor layer: the yield study, the DSE sweep, and a conformance
campaign must be byte-identical serially and over ``socket`` (served
by two real subprocess workers), cold and warm on the engine's cache,
and ``repro yield`` must print the same table serially and with
``--jobs 2``.  The kill class exercises
the fault model directly against the executor protocol.
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro import engine as engine_mod
from repro.conformance.runner import run_campaign
from repro.dse.evaluate import evaluate_all
from repro.engine import Engine, job_function
from repro.engine.executors.socketcluster import SocketClusterExecutor
from repro.fab.process import FC4_WAFER
from repro.fab.yield_model import run_yield_study
from repro.netlist.cores import build_flexicore4

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@job_function("exectest.sleepy", version="1")
def sleepy_job(params, seed):
    time.sleep(params.get("delay", 0.0))
    return params["value"]


def _canon(value):
    """Canonical bytes for a result structure (dict order and float
    repr included), so 'identical' means byte-identical."""
    return json.dumps(value, sort_keys=True, default=repr).encode()


def _spawn_worker(host, port):
    """A real ``repro worker join`` process (what the CLI runs)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "from repro.engine.executors.worker import run_worker\n"
        f"run_worker({host!r}, {port})\n"
    )
    return subprocess.Popen(
        [sys.executable, "-c", code], env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _await_workers(executor, count, timeout=30.0):
    deadline = time.monotonic() + timeout
    while executor.workers < count:
        if time.monotonic() > deadline:
            raise TimeoutError(
                f"only {executor.workers}/{count} workers joined"
            )
        time.sleep(0.02)


def _reap(procs, timeout=10.0):
    for proc in procs:
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=timeout)


@pytest.fixture(scope="module")
def netlist():
    return build_flexicore4()


@pytest.fixture(scope="module")
def baselines(netlist):
    """The serial results every backend must reproduce."""
    serial = Engine(jobs=1)
    return {
        "yield": run_yield_study(netlist, FC4_WAFER, wafers=3,
                                 seed=2022, engine=serial),
        "dse": evaluate_all(engine=serial),
        "conform": run_campaign(0, 8, oracle_names=["asm", "dispatch"],
                                engine=serial, persist=False),
    }


def _campaign_fingerprint(summary):
    # elapsed_s is wall-clock, everything else must match exactly.
    return {key: summary[key] for key in
            ("cases", "slices", "divergences")}


class TestSocketDifferential:
    """The same differential, over a real two-subprocess-worker cluster."""

    @pytest.fixture(scope="class")
    def cluster(self):
        executor = SocketClusterExecutor(bind="127.0.0.1:0",
                                         min_workers=2,
                                         worker_wait_s=60.0)
        host, port = executor.address
        procs = [_spawn_worker(host, port) for _ in range(2)]
        _await_workers(executor, 2)
        engine = Engine(jobs=2, executor=executor)
        yield engine, executor
        engine.close()
        _reap(procs)

    def test_yield_identical(self, netlist, baselines, cluster):
        engine, executor = cluster
        summary = run_yield_study(netlist, FC4_WAFER, wafers=3,
                                  seed=2022, engine=engine)
        assert summary == baselines["yield"]
        assert _canon(summary) == _canon(baselines["yield"])
        assert executor.describe()["workers"] == 2

    def test_dse_identical(self, baselines, cluster):
        engine, _executor = cluster
        assert evaluate_all(engine=engine) == baselines["dse"]

    def test_conform_identical(self, baselines, cluster):
        engine, _executor = cluster
        summary = run_campaign(0, 8, oracle_names=["asm", "dispatch"],
                               engine=engine, persist=False)
        assert _canon(_campaign_fingerprint(summary)) == \
            _canon(_campaign_fingerprint(baselines["conform"]))

    def test_cached_yield_cold_then_warm(self, netlist, baselines,
                                         cluster, tmp_path,
                                         monkeypatch):
        """The engine's cache is the only tier: a cold socket run
        stores each wafer once, flat, and a warm rerun never reaches
        the cluster."""
        monkeypatch.setenv("REPRO_STATE_DIR", str(tmp_path / "state"))
        _engine, executor = cluster
        root = tmp_path / "cache"
        # Not closed: the cluster fixture owns the executor.
        cold = Engine(jobs=2, cache=root, executor=executor)
        summary = run_yield_study(netlist, FC4_WAFER, wafers=3,
                                  seed=2022, engine=cold)
        assert _canon(summary) == _canon(baselines["yield"])
        assert cold.executor is executor
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

        warm = Engine(jobs=2, cache=root, executor=executor)
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


def _drain(executor, expect, timeout=60.0):
    """Collect results until ``expect`` distinct task ids have
    reported; returns {task_id: [outcomes, ...]} (a task id appearing
    twice would grow a second list entry)."""
    seen = {}
    deadline = time.monotonic() + timeout
    while len(seen) < expect:
        if time.monotonic() > deadline:
            raise TimeoutError(f"only {sorted(seen)} of {expect} "
                               f"results arrived")
        item = executor.next_result(0.1)
        if item is None:
            continue
        task_id, outcomes, _obs_payload = item
        seen.setdefault(task_id, []).append(outcomes)
    return seen


class TestSocketWorkerDeath:
    def test_killed_workers_jobs_requeued_exactly_once(self):
        executor = SocketClusterExecutor(bind="127.0.0.1:0",
                                         min_workers=2,
                                         worker_wait_s=60.0)
        host, port = executor.address
        procs = [_spawn_worker(host, port) for _ in range(2)]
        try:
            _await_workers(executor, 2)
            # Two slow tasks pin both workers; two quick ones queue.
            for task_id, delay in ((0, 1.0), (1, 1.0), (2, 0.05),
                                   (3, 0.05)):
                executor.submit(task_id, [(
                    sleepy_job, {"value": task_id, "delay": delay},
                    None, f"sleepy{task_id}",
                )], None)
            deadline = time.monotonic() + 15.0
            while True:
                members = executor.describe()["members"]
                if len(members) == 2 and \
                        all(m["busy"] for m in members):
                    break
                if time.monotonic() > deadline:
                    raise TimeoutError("workers never got busy")
                time.sleep(0.01)
            procs[0].kill()

            seen = _drain(executor, 4)
            assert sorted(seen) == [0, 1, 2, 3]
            # Exactly once: one result per task, every outcome ok.
            assert all(len(reports) == 1 for reports in seen.values())
            for task_id, reports in seen.items():
                (outcome,) = reports[0]
                assert outcome[0] == "ok", outcome
                assert outcome[1] == task_id
            assert executor.requeues == 1
            assert len(executor._requeued) == 1
            assert executor.describe()["workers"] == 1
        finally:
            executor.shutdown()
            _reap(procs)
