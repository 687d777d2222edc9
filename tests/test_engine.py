"""The experiment execution engine: seeds, scheduling, cache, faults."""

import json
import pickle
import time
from concurrent.futures import Future, ProcessPoolExecutor

import numpy as np
import pytest

from repro.engine import (
    ChildSeed,
    Engine,
    EngineCancelled,
    EngineJobError,
    Job,
    ResultCache,
    as_child_seed,
    function_identity,
    job_cache_key,
    job_function,
    load_last_run,
    retry_delay_s,
    spawn_seeds,
)
from repro.engine.cache import canonical


# ----------------------------------------------------------------------
# Module-level job functions (worker processes import them by reference).
# ----------------------------------------------------------------------

@job_function("test.normal_sum", version="1")
def normal_sum_job(params, seed):
    rng = seed.rng()
    return float(rng.normal(size=params["n"]).sum())


@job_function("test.echo", version="1")
def echo_job(params, seed):
    return dict(params)


@job_function("test.slow_echo", version="1")
def slow_echo_job(params, seed):
    time.sleep(params.get("delay", 0.1))
    return params["value"]


@job_function("test.fail_always", version="1")
def fail_always_job(params, seed):
    raise ValueError("deliberate failure")


class FlakyCounter:
    """A callable failing its first ``failures`` invocations.

    Instances stay in one process (serial engine), so a plain attribute
    counter is enough to observe the retry loop.
    """

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0
        self.__name__ = self.__qualname__ = "flaky_counter"
        self.__module__ = __name__

    def __call__(self, params, seed):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError(f"flaky failure #{self.calls}")
        return params["value"]


class TestChildSeeds:
    def test_matches_seed_sequence_spawn(self):
        """ChildSeed reconstruction is exactly SeedSequence.spawn."""
        reference = np.random.SeedSequence(2022).spawn(6)
        for child, ref in zip(spawn_seeds(2022, 6), reference):
            ours = np.random.default_rng(child.seed_sequence())
            theirs = np.random.default_rng(ref)
            assert ours.integers(0, 2**63, 8).tolist() == \
                theirs.integers(0, 2**63, 8).tolist()

    def test_children_are_independent_of_count(self):
        assert spawn_seeds(7, 3) == spawn_seeds(7, 5)[:3]

    def test_nested_spawn_extends_key(self):
        child = spawn_seeds(9, 2)[1]
        grandchild = child.spawn(3)[2]
        assert grandchild.entropy == 9
        assert grandchild.spawn_key == (1, 2)

    def test_as_child_seed(self):
        assert as_child_seed(None) is None
        assert as_child_seed(5) == ChildSeed(5)
        seed = ChildSeed(5, (1,))
        assert as_child_seed(seed) is seed

    def test_seed_is_picklable(self):
        seed = spawn_seeds(11, 4)[3]
        clone = pickle.loads(pickle.dumps(seed))
        assert clone == seed
        assert clone.rng().normal() == seed.rng().normal()


class TestDeterminism:
    def test_parallel_equals_serial_bit_for_bit(self):
        jobs = [
            Job(normal_sum_job, {"n": 2000}, seed=child,
                label=f"sum{index}")
            for index, child in enumerate(spawn_seeds(2022, 10))
        ]
        serial = Engine(jobs=1).run(jobs)
        parallel = Engine(jobs=4).run(jobs)
        assert serial == parallel

    def test_results_in_submission_order(self):
        jobs = [
            Job(echo_job, {"index": index}) for index in range(12)
        ]
        results = Engine(jobs=4).run(jobs)
        assert [r["index"] for r in results] == list(range(12))


class TestCacheKeys:
    def test_canonical_rejects_unstable_objects(self):
        class Opaque:
            pass

        with pytest.raises(TypeError):
            canonical(Opaque())

    def test_canonical_handles_rich_params(self):
        from repro.dse.designs import BASELINE

        document = canonical({
            "design": BASELINE,
            "features": frozenset({"b", "a"}),
            "ratio": 1.5,
            "flags": (1, 2),
        })
        assert json.dumps(document)  # JSON-safe
        assert document == canonical({
            "flags": [1, 2],
            "ratio": 1.5,
            "features": frozenset({"a", "b"}),
            "design": BASELINE,
        })

    def test_key_changes_with_params_and_seed(self):
        base = Job(echo_job, {"a": 1}, seed=ChildSeed(1))
        assert job_cache_key(base) == job_cache_key(
            Job(echo_job, {"a": 1}, seed=ChildSeed(1))
        )
        assert job_cache_key(base) != job_cache_key(
            Job(echo_job, {"a": 2}, seed=ChildSeed(1))
        )
        assert job_cache_key(base) != job_cache_key(
            Job(echo_job, {"a": 1}, seed=ChildSeed(2))
        )

    def test_registered_identity_survives_relocation(self):
        name, version = function_identity(echo_job)
        assert (name, version) == ("test.echo", "1")


class TestResultCache:
    def test_hit_on_rerun(self, tmp_path):
        counter = FlakyCounter(failures=0)
        job = Job(counter, {"value": 41}, seed=ChildSeed(1))
        cold = Engine(jobs=1, cache=tmp_path)
        assert cold.run([job]) == [41]
        assert cold.metrics.cache_misses == 1
        warm = Engine(jobs=1, cache=tmp_path)
        assert warm.run([job]) == [41]
        assert counter.calls == 1          # second run never computed
        assert warm.metrics.cache_hits == 1
        assert warm.metrics.cache_hit_rate == 1.0

    def test_invalidation_on_param_or_seed_change(self, tmp_path):
        engine = Engine(jobs=1, cache=tmp_path)
        engine.run([Job(normal_sum_job, {"n": 10}, seed=ChildSeed(1))])
        engine.run([Job(normal_sum_job, {"n": 11}, seed=ChildSeed(1))])
        engine.run([Job(normal_sum_job, {"n": 10}, seed=ChildSeed(2))])
        assert engine.metrics.cache_hits == 0
        assert engine.metrics.cache_misses == 3
        stats = engine.cache.stats()
        assert stats["entries"] == 3

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        job = Job(normal_sum_job, {"n": 10}, seed=ChildSeed(1))
        first = Engine(jobs=1, cache=tmp_path)
        (value,) = first.run([job])
        (entry,) = (tmp_path / "test.normal_sum").glob("*.pkl")
        entry.write_bytes(b"not a pickle")
        second = Engine(jobs=1, cache=tmp_path)
        assert second.run([job]) == [value]
        assert second.metrics.cache_misses == 1

    def test_clear_and_stats(self, tmp_path):
        engine = Engine(jobs=1, cache=tmp_path)
        engine.run([Job(normal_sum_job, {"n": 10}, seed=ChildSeed(1))])
        cache = ResultCache(tmp_path)
        assert cache.stats()["entries"] == 1
        cache.clear()
        assert cache.stats()["entries"] == 0

    def test_last_run_metrics_persisted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STATE_DIR", str(tmp_path / "state"))
        engine = Engine(jobs=1, cache=tmp_path / "cache")
        engine.run([Job(normal_sum_job, {"n": 10}, seed=ChildSeed(1))],
                   stage="demo")
        last = load_last_run()
        assert last["jobs_completed"] == 1
        assert last["stages"][0]["stage"] == "demo"
        # The state directory holds the one copy; the cache root holds
        # only entries.
        assert (tmp_path / "state" / "last_run.json").is_file()
        assert not (tmp_path / "cache" / "last_run.json").exists()

    def test_second_graph_run_hits_cache(self, tmp_path):
        """A warm ``run_graph`` leaves each handle ``cached`` (the
        search trail's ``cached`` flag reads it) and computes
        nothing."""
        counter = FlakyCounter(failures=0)

        def submit_all(engine):
            return [engine.submit(Job(counter, {"value": value},
                                      seed=ChildSeed(value)))
                    for value in (4, 5)]

        cold = Engine(jobs=1, cache=tmp_path)
        cold_nodes = submit_all(cold)
        assert cold.run_graph() == [4, 5]
        assert [node.status for node in cold_nodes] == ["done", "done"]

        warm = Engine(jobs=1, cache=tmp_path)
        warm_nodes = submit_all(warm)
        assert warm.run_graph() == [4, 5]
        assert [node.status for node in warm_nodes] == \
            ["cached", "cached"]
        assert all(node.done for node in warm_nodes)
        assert (warm.metrics.cache_hits, warm.metrics.cache_misses) == \
            (2, 0)
        assert counter.calls == 2

    def test_cached_rerun_is_5x_faster(self, tmp_path):
        """The acceptance benchmark: warm runs ride the cache."""
        jobs = [
            Job(slow_echo_job, {"value": index, "delay": 0.1},
                seed=ChildSeed(index))
            for index in range(4)
        ]
        cold = Engine(jobs=1, cache=tmp_path)
        started = time.perf_counter()
        cold_results = cold.run(jobs)
        cold_s = time.perf_counter() - started

        warm = Engine(jobs=1, cache=tmp_path)
        started = time.perf_counter()
        warm_results = warm.run(jobs)
        warm_s = time.perf_counter() - started

        assert warm_results == cold_results
        assert warm.metrics.cache_hits == len(jobs)
        assert cold_s >= 5 * warm_s, (cold_s, warm_s)


class TestFaultTolerance:
    def test_retry_until_success(self):
        counter = FlakyCounter(failures=2)
        engine = Engine(jobs=1, retries=2, backoff=0.001)
        (result,) = engine.run([Job(counter, {"value": 7})])
        assert result == 7
        assert counter.calls == 3
        assert engine.metrics.retries == 2
        assert engine.metrics.failures == 0

    def test_bounded_retry_then_raises(self):
        counter = FlakyCounter(failures=10)
        engine = Engine(jobs=1, retries=2, backoff=0.001)
        with pytest.raises(EngineJobError) as info:
            engine.run([Job(counter, {"value": 7}, label="doomed")])
        assert counter.calls == 3
        assert info.value.label == "doomed"
        assert engine.metrics.failures == 1

    def test_worker_exception_retried_serially(self):
        """A job that raises in a pool worker is retried in-process and
        counted as a worker failure, not a run failure."""
        engine = Engine(jobs=2, retries=2, backoff=0.001)
        with pytest.raises(EngineJobError):
            engine.run([
                Job(fail_always_job, {"i": index}) for index in range(2)
            ])
        assert engine.metrics.worker_failures >= 1

    def test_degrades_to_serial_when_pool_unavailable(self):
        def broken_pool_factory(workers):
            raise OSError("no processes for you")

        engine = Engine(jobs=4, pool_factory=broken_pool_factory)
        jobs = [
            Job(normal_sum_job, {"n": 100}, seed=child)
            for child in spawn_seeds(5, 6)
        ]
        results = engine.run(jobs)
        assert results == Engine(jobs=1).run(jobs)
        assert engine.metrics.degraded

    def test_degrades_when_pool_breaks_mid_run(self):
        from concurrent.futures.process import BrokenProcessPool

        class BreakingExecutor:
            def submit(self, fn, payload):
                future = Future()
                future.set_exception(BrokenProcessPool("worker died"))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        engine = Engine(jobs=2, pool_factory=lambda n: BreakingExecutor())
        jobs = [
            Job(normal_sum_job, {"n": 100}, seed=child)
            for child in spawn_seeds(5, 4)
        ]
        results = engine.run(jobs)
        assert results == Engine(jobs=1).run(jobs)
        assert engine.metrics.degraded
        assert engine.metrics.worker_failures >= 1


class TestResultsCachedAsTheyLand:
    """A batch caches each result the moment it lands, so a failed or
    cancelled batch keeps the work it finished."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_batch_keeps_its_successes(self, tmp_path, workers):
        jobs = [Job(fail_always_job, {"i": 0}, label="doomed")] + [
            Job(echo_job, {"i": index}, label=f"ok{index}")
            for index in range(1, 4)
        ]
        with Engine(jobs=workers, cache=tmp_path, retries=1,
                    backoff=0.001) as engine:
            with pytest.raises(EngineJobError) as info:
                engine.run(jobs)
        # The failure surfaced only after every other job had run.
        assert info.value.label == "doomed"
        assert engine.metrics.jobs_completed == 3
        assert engine.cache.stats()["entries"] == 3

        rerun = Engine(jobs=1, cache=tmp_path)
        assert rerun.run(jobs[1:]) == [{"i": 1}, {"i": 2}, {"i": 3}]
        assert rerun.metrics.cache_hits == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cancelled_batch_keeps_finished_jobs(self, tmp_path, workers):
        jobs = [
            Job(slow_echo_job, {"value": index, "delay": 0.05},
                seed=ChildSeed(index), label=f"slow{index}")
            for index in range(4)
        ]
        engine = Engine(jobs=workers, cache=tmp_path)
        finished = []

        def hook(event, payload):
            if event == "job_done":
                finished.append(payload["label"])
                if len(finished) == 2:
                    engine.cancel()

        engine.hooks.add(hook)
        with pytest.raises(EngineCancelled):
            engine.run(jobs)
        assert len(finished) == 2

        fresh = Engine(jobs=1, cache=tmp_path)
        assert fresh.run(jobs) == [0, 1, 2, 3]
        assert fresh.metrics.cache_hits == 2

    def test_cancel_mid_graph_leaves_cache_uncorrupted(self, tmp_path):
        """Cancelling between submitted jobs leaves only complete,
        loadable cache entries behind, and a fresh engine finishes the
        batch from them."""
        engine = Engine(jobs=1, cache=tmp_path)
        finished = []

        def hook(event, payload):
            if event == "job_done":
                finished.append(payload["label"])
                engine.cancel()

        engine.hooks.add(hook)
        for index, child in enumerate(spawn_seeds(5, 4)):
            engine.submit(Job(slow_echo_job,
                              {"value": index, "delay": 0.0},
                              seed=child, label=f"slow{index}"))
        with pytest.raises(EngineCancelled):
            engine.run_graph()
        assert finished == ["slow0"]

        # Every on-disk entry is complete: meta beside data, loadable.
        cache = ResultCache(tmp_path)
        stats = cache.stats()
        data_files = [
            path for path in tmp_path.rglob("*.pkl")
            if path.is_file()
        ]
        assert stats["entries"] == len(data_files)
        for path in data_files:
            assert path.with_suffix(".json").exists()

        # A fresh engine finishes the same batch and reuses whatever
        # completed before the cancel.
        fresh = Engine(jobs=1, cache=tmp_path)
        nodes = [
            fresh.submit(Job(slow_echo_job, {"value": index, "delay": 0.0},
                             seed=child, label=f"slow{index}"))
            for index, child in enumerate(spawn_seeds(5, 4))
        ]
        results = fresh.run_graph()
        assert results == [0, 1, 2, 3]
        assert all(node.done for node in nodes)
        assert fresh.metrics.cache_hits >= 1


class TestSharedLoop:
    def test_empty_graph_is_a_noop(self):
        assert Engine(jobs=1).run_graph() == []

    def test_run_leaves_submitted_nodes_alone(self):
        engine = Engine(jobs=1)
        pending = engine.submit(Job(echo_job, {"node": 1}))
        assert engine.run([Job(echo_job, {"batch": 1})]) == [{"batch": 1}]
        assert not pending.done
        assert engine.run_graph() == [{"node": 1}]
        assert pending.done

    def test_one_job_to_compute_starts_no_pool(self, tmp_path):
        calls = []

        def pool_factory(workers):
            calls.append(workers)
            return ProcessPoolExecutor(max_workers=workers)

        with Engine(jobs=2, cache=tmp_path,
                    pool_factory=pool_factory) as engine:
            assert engine.run([Job(echo_job, {"x": 1})]) == [{"x": 1}]
            engine.submit(Job(echo_job, {"x": 2}))
            assert engine.run_graph() == [{"x": 2}]
            # Two jobs, but one is a cache hit: one left to compute.
            assert engine.run([
                Job(echo_job, {"x": 1}), Job(echo_job, {"x": 3}),
            ]) == [{"x": 1}, {"x": 3}]
            assert calls == []
            assert engine.run([
                Job(echo_job, {"x": 4}), Job(echo_job, {"x": 5}),
            ]) == [{"x": 4}, {"x": 5}]
            assert calls == [2]


class TestHooks:
    def test_events_emitted(self):
        events = []
        engine = Engine(jobs=1, hooks=[
            lambda event, payload: events.append((event, payload))
        ])
        engine.run([Job(echo_job, {"x": 1}, label="probe")],
                   stage="evts")
        kinds = [event for event, _ in events]
        assert "job_done" in kinds
        assert "stage_done" in kinds

    def test_failing_hook_is_dropped_not_fatal(self):
        def bad_hook(event, payload):
            raise RuntimeError("hook bug")

        engine = Engine(jobs=1, hooks=[bad_hook])
        (result,) = engine.run([Job(echo_job, {"x": 1})])
        assert result == {"x": 1}


class TestRetryJitter:
    def test_jitter_is_deterministic_per_job(self):
        job = Job(echo_job, {"value": 1}, seed=3, label="jit")
        assert retry_delay_s(job, 1, 0.1) == retry_delay_s(job, 1, 0.1)

    def test_jitter_within_bounds_and_grows(self):
        job = Job(echo_job, {"value": 1}, seed=3, label="jit")
        first = retry_delay_s(job, 1, 0.1)
        second = retry_delay_s(job, 2, 0.1)
        assert 0.075 <= first < 0.125
        assert 0.15 <= second < 0.25

    def test_different_jobs_desynchronize(self):
        delays = {
            retry_delay_s(Job(echo_job, {"value": v}, seed=v,
                              label=f"jit{v}"), 1, 0.1)
            for v in range(8)
        }
        assert len(delays) > 1


class TestGlobalConfiguration:
    def test_configure_and_reset(self):
        from repro import engine as engine_mod

        try:
            configured = engine_mod.configure(jobs=3)
            assert configured.jobs == 3
            assert engine_mod.current_engine() is configured
            assert engine_mod.engine_or_default(None) is configured
            explicit = Engine(jobs=1)
            assert engine_mod.engine_or_default(explicit) is explicit
        finally:
            engine_mod.reset()
        assert engine_mod.current_engine().jobs == 1

    def test_unknown_option_rejected(self):
        from repro import engine as engine_mod

        with pytest.raises(TypeError):
            engine_mod.configure(wrokers=4)
