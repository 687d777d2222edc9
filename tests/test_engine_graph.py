"""The dependency-graph layer: ordering, injection, failure, cancel."""

import threading
import time

import pytest

from repro.engine import (
    Engine,
    EngineCancelled,
    EngineJobError,
    GraphError,
    Job,
    ResultCache,
    job_function,
    retry_delay_s,
    spawn_seeds,
)
from repro.engine.graph import CACHED, CANCELLED, DONE, FAILED

#: Execution order observed by the serial graph jobs (jobs=1 keeps
#: everything in-process, so a plain list is a faithful recorder).
_ORDER = []


@job_function("graphtest.record", version="1")
def record_job(params, seed):
    _ORDER.append(params["name"])
    return params["name"]


@job_function("graphtest.add", version="1")
def add_job(params, seed):
    return params.get("base", 0) + sum(params.get("inputs", ()))


@job_function("graphtest.recorded_add", version="1")
def recorded_add_job(params, seed):
    _ORDER.append("add")
    return add_job(params, seed)


@job_function("graphtest.double", version="1")
def double_job(params, seed):
    return 2 * params["value"]


@job_function("graphtest.fail", version="1")
def fail_job(params, seed):
    raise ValueError("deliberate graph failure")


@job_function("graphtest.slow", version="1")
def slow_value_job(params, seed):
    time.sleep(params.get("delay", 0.0))
    return params["value"]


class TestGraphOrdering:
    def setup_method(self):
        _ORDER.clear()

    def test_dependency_runs_first(self):
        engine = Engine(jobs=1)
        first = engine.submit(Job(record_job, {"name": "first"}))
        engine.submit(Job(record_job, {"name": "second"}),
                      deps=[first])
        engine.run_graph()
        assert _ORDER == ["first", "second"]

    def test_diamond_order_respects_edges(self):
        engine = Engine(jobs=1)
        top = engine.submit(Job(record_job, {"name": "top"}))
        left = engine.submit(Job(record_job, {"name": "left"}),
                             deps=[top])
        right = engine.submit(Job(record_job, {"name": "right"}),
                              deps=[top])
        engine.submit(Job(record_job, {"name": "join"}),
                      deps=[left, right])
        engine.run_graph()
        assert _ORDER[0] == "top"
        assert _ORDER[-1] == "join"
        assert set(_ORDER[1:3]) == {"left", "right"}

    def test_results_in_submission_order(self):
        engine = Engine(jobs=1)
        b = engine.submit(Job(double_job, {"value": 2}))
        a = engine.submit(Job(double_job, {"value": 1}), deps=[b])
        results = engine.run_graph()
        assert results == [4, 2]
        assert a.status == DONE and b.status == DONE

    def test_empty_graph_is_a_noop(self):
        assert Engine(jobs=1).run_graph() == []


class TestResultInjection:
    def test_single_node_injects_bare_result(self):
        engine = Engine(jobs=1)
        source = engine.submit(Job(double_job, {"value": 21}))
        sink = engine.submit(Job(double_job, {}),
                             deps={"value": source})
        engine.run_graph()
        assert sink.result == 84

    def test_node_list_injects_result_list(self):
        engine = Engine(jobs=1)
        parents = [
            engine.submit(Job(double_job, {"value": value}))
            for value in (1, 2, 3)
        ]
        sink = engine.submit(Job(add_job, {"base": 100}),
                             deps={"inputs": parents})
        engine.run_graph()
        assert sink.result == 100 + 2 + 4 + 6

    def test_injected_deps_widen_cache_key(self):
        engine = Engine(jobs=1)
        parent = engine.submit(Job(double_job, {"value": 1}))
        injected = engine.submit(Job(add_job, {"base": 0}),
                                 deps={"inputs": [parent]})
        ordering = engine.submit(Job(add_job, {"base": 0}),
                                 deps=[parent])
        plain = engine.submit(Job(add_job, {"base": 0}))
        # Ordering-only deps leave the address alone; injection widens.
        assert ordering.key == plain.key
        assert injected.key != plain.key
        engine.run_graph()

    def test_mixed_graph_runs_across_engine_runs(self):
        """Nodes resolved by a previous run_graph serve as deps."""
        engine = Engine(jobs=1)
        parent = engine.submit(Job(double_job, {"value": 5}))
        engine.run_graph()
        child = engine.submit(Job(double_job, {}),
                              deps={"value": parent})
        engine.run_graph()
        assert child.result == 20


class TestGraphFailure:
    def test_failing_upstream_cancels_dependents(self):
        engine = Engine(jobs=1, retries=0)
        bad = engine.submit(Job(fail_job, label="bad"))
        child = engine.submit(Job(double_job, {"value": 1}),
                              deps=[bad])
        grandchild = engine.submit(Job(double_job, {}),
                                   deps={"value": child})
        bystander = engine.submit(Job(double_job, {"value": 7}))
        with pytest.raises(EngineJobError):
            engine.run_graph()
        assert bad.status == FAILED
        assert child.status == CANCELLED
        assert grandchild.status == CANCELLED
        assert child.result is None and grandchild.result is None
        # The unrelated branch still ran to completion.
        assert bystander.status == DONE and bystander.result == 14
        assert engine.metrics.cancelled == 2
        assert engine.metrics.failures == 1

    def test_raise_on_error_false_returns_partial_results(self):
        engine = Engine(jobs=1, retries=0)
        bad = engine.submit(Job(fail_job, label="bad"))
        engine.submit(Job(double_job, {"value": 1}), deps=[bad])
        ok = engine.submit(Job(double_job, {"value": 3}))
        results = engine.run_graph(raise_on_error=False)
        assert results == [None, None, 6]
        assert ok.status == DONE

    def test_submitting_on_failed_dep_raises(self):
        engine = Engine(jobs=1, retries=0)
        bad = engine.submit(Job(fail_job, label="bad"))
        engine.run_graph(raise_on_error=False)
        with pytest.raises(GraphError):
            engine.submit(Job(double_job, {"value": 1}), deps=[bad])

    def test_cancelled_dependents_never_execute(self):
        _ORDER.clear()
        engine = Engine(jobs=1, retries=0)
        bad = engine.submit(Job(fail_job, label="bad"))
        engine.submit(Job(record_job, {"name": "never"}), deps=[bad])
        engine.run_graph(raise_on_error=False)
        assert _ORDER == []


class TestGraphCache:
    def test_second_graph_run_hits_cache(self, tmp_path):
        cold = Engine(jobs=1, cache=tmp_path)
        a = cold.submit(Job(double_job, {"value": 4}))
        cold.submit(Job(recorded_add_job, {"base": 1}),
                    deps={"inputs": [a]})
        cold_results = cold.run_graph()

        _ORDER.clear()
        warm = Engine(jobs=1, cache=tmp_path)
        a2 = warm.submit(Job(double_job, {"value": 4}))
        b2 = warm.submit(Job(recorded_add_job, {"base": 1}),
                         deps={"inputs": [a2]})
        warm_results = warm.run_graph()
        assert warm_results == cold_results
        assert warm.metrics.cache_hits == 2
        assert warm.metrics.cache_misses == 0
        # The dependent is answered from the cache, not run again after
        # its dependency's hit queued it.
        assert (a2.status, b2.status) == (CACHED, CACHED)
        assert _ORDER == []

    def test_cancel_mid_graph_leaves_cache_uncorrupted(self, tmp_path):
        """Cancelling between graph nodes must leave only complete,
        loadable cache entries behind (PR 5's crash-safety invariant
        holds through the graph path)."""
        engine = Engine(jobs=1, cache=tmp_path)
        release = threading.Event()

        def hook(event, payload):
            if event == "job_done":
                engine.cancel()
                release.set()

        engine.hooks.add(hook)
        for index, child in enumerate(spawn_seeds(5, 4)):
            engine.submit(Job(slow_value_job, {"value": index},
                              seed=child, label=f"slow{index}"))
        with pytest.raises(EngineCancelled):
            engine.run_graph()
        assert release.is_set()

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

        # A fresh engine finishes the same graph and reuses whatever
        # completed before the cancel.
        fresh = Engine(jobs=1, cache=tmp_path)
        nodes = [
            fresh.submit(Job(slow_value_job, {"value": index},
                             seed=child, label=f"slow{index}"))
            for index, child in enumerate(spawn_seeds(5, 4))
        ]
        results = fresh.run_graph()
        assert results == [0, 1, 2, 3]
        assert all(node.done for node in nodes)
        assert fresh.metrics.cache_hits >= 1


class TestGraphParallel:
    def test_parallel_graph_matches_serial(self):
        def build(engine):
            parents = [
                engine.submit(Job(double_job, {"value": value},
                                  label=f"p{value}"))
                for value in range(6)
            ]
            return engine.submit(Job(add_job, {"base": 1}),
                                 deps={"inputs": parents})

        serial = Engine(jobs=1)
        serial_sink = build(serial)
        serial.run_graph()
        parallel = Engine(jobs=3)
        parallel_sink = build(parallel)
        parallel.run_graph()
        parallel.close()
        assert serial_sink.result == parallel_sink.result == \
            1 + sum(2 * v for v in range(6))


class TestRetryJitter:
    def test_jitter_is_deterministic_per_job(self):
        job = Job(double_job, {"value": 1}, seed=3, label="jit")
        assert retry_delay_s(job, 1, 0.1) == retry_delay_s(job, 1, 0.1)

    def test_jitter_within_bounds_and_grows(self):
        job = Job(double_job, {"value": 1}, seed=3, label="jit")
        first = retry_delay_s(job, 1, 0.1)
        second = retry_delay_s(job, 2, 0.1)
        assert 0.075 <= first < 0.125
        assert 0.15 <= second < 0.25

    def test_different_jobs_desynchronize(self):
        delays = {
            retry_delay_s(Job(double_job, {"value": v}, seed=v,
                              label=f"jit{v}"), 1, 0.1)
            for v in range(8)
        }
        assert len(delays) > 1
