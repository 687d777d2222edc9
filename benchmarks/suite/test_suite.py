"""Tests of the benchmark itself: ``pytest benchmarks/suite``.

They run the workloads at tiny sizes through the Python API (about a
minute in all), check the span arithmetic on hand-built span trees,
and check the probes and the cold-run guard.
"""

import json
import sys

import pytest

from benchmarks.suite import harness, trace
from benchmarks.suite.__main__ import summarize
from benchmarks.suite.service import Service
from benchmarks.suite.workloads import Conform, DseSearch, GateYield, Report

sys.path.insert(0, str(harness.ROOT / "src"))


def tiny_workloads():
    return [Report(), GateYield(wafers=1), DseSearch(budget=4),
            Conform(budget=12), Service(rate=20.0, window_s=0.5)]


@pytest.fixture
def quick(monkeypatch):
    """One setup probe and one timed iteration per workload."""
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(harness, "MIN_ITERATIONS", 1)


def test_every_declared_metric_is_emitted_with_its_unit(quick):
    declared = harness.spec()
    workloads = tiny_workloads()
    assert [w.name for w in workloads] == \
        [w["name"] for w in declared["workloads"]]

    result = harness.run(workloads, seed=7, seconds=0.0)

    for name, entry in result["workloads"].items():
        assert entry["failed"] == 0, (name, entry["errors"])
        assert entry["attempted"] >= 2, name
    document = summarize(result, declared, trace=None)
    assert document["correct"] and document["failed"] == 0
    expected = {
        f"{workload['name']}/{metric['name']}": metric["unit"]
        for workload in declared["workloads"]
        for metric in declared["end_to_end"] + declared["per_layer"]
    }
    assert {key: value["unit"] for key, value in
            document["metrics"].items()} == expected
    for key, value in document["metrics"].items():
        assert isinstance(value["value"], (int, float)), key
    for kind in ("cold_s", "warm_s", "setup_s", "latency_ms",
                 "rss_peak_mb"):
        for workload in declared["workloads"]:
            assert document["metrics"][f"{workload['name']}/{kind}"][
                "value"] > 0
    json.loads(json.dumps(document, allow_nan=False))


def test_a_raising_iteration_fails_the_run_but_still_reports(quick):
    class Broken(DseSearch):
        def warm_up(self, ctx, seed):
            return []

        def run_once(self, engine, seed):
            raise RuntimeError("boom")

    result = harness.run([Broken(budget=4)], seed=7, seconds=0.0, trace=0)

    entry = result["workloads"]["dse_search"]
    assert entry["failed"] == 1 and entry["iterations"] == 1
    assert entry["errors"] == ["iteration 0 raised RuntimeError: boom"]
    document = summarize(result, harness.spec(), trace=0)
    assert not document["correct"] and document["failed"] == 1
    assert document["metrics"]["cold_s"]["value"] is None
    json.loads(json.dumps(document, allow_nan=False))


def test_traced_and_untraced_digests_are_equal(tmp_path):
    workload = DseSearch(budget=6)
    with harness.Context() as ctx:
        plain = workload.iterate(ctx, 0, 11)
        traced, documents = workload.traced(ctx, 11, tmp_path)
    assert plain.errors == [] and traced.errors == []
    assert traced.digest == plain.digest
    metrics = trace.layer_metrics(documents)
    assert metrics["dse.evaluations"] > 0
    assert metrics["asm.calls"] > 0
    assert len(documents) == 1 + harness.ENGINE_JOBS  # parent + workers


def _document(pid, spans, busy_ns, probes):
    # span: (id, probe, parent, thread, wall0, wall1, cpu0, cpu1, count)
    return {"pid": pid, "busy_cpu_ns": busy_ns, "probes": probes,
            "tally": [0] * len(probes), "spans": [list(s) for s in spans]}


PROBES = ["engine.run_graph", "engine.cache_get", "engine.worker",
          "asm.assemble", "sim.run"]


def test_self_time_of_a_nested_span_tree():
    # run_graph [0, 100] > cache_get [10, 30] and cache_get [40, 45];
    # a second root on another thread keeps its own stack.
    spans = [
        (2, 1, 1, 7, 10, 30, 10, 30, 1),
        (3, 1, 1, 7, 40, 45, 40, 45, 0),
        (1, 0, 0, 7, 0, 100, 0, 100, [3, 1, 0, 99]),
        (4, 3, 0, 8, 0, 50, 0, 50, 0),
    ]
    document = _document(1, spans, 200, PROBES)
    own = trace.self_times(document)
    assert own["engine.run_graph"] == pytest.approx(75e-9)
    assert own["engine.cache_get"] == pytest.approx(25e-9)
    assert own["asm.assemble"] == pytest.approx(50e-9)


def test_self_time_across_processes():
    # The same span ids in two processes must not be mixed up.
    parent = _document(1, [
        (1, 0, 0, 1, 0, 1000, 0, 100, [4, 2, 0, 5]),
        (2, 1, 1, 1, 10, 20, 10, 20, 1),
    ], 300, PROBES)
    worker = _document(2, [
        (2, 4, 1, 1, 100, 200, 100, 200, 1000),
        (1, 2, 0, 1, 0, 900, 0, 900, 1),
        (3, 3, 1, 1, 300, 700, 300, 700, 0),
        (4, 4, 3, 1, 400, 500, 400, 500, 500),
    ], 1000, PROBES)
    assert trace.self_times(parent)["engine.run_graph"] == \
        pytest.approx(90e-9)
    worker_own = trace.self_times(worker)
    assert worker_own["engine.worker"] == pytest.approx(400e-9)
    assert worker_own["asm.assemble"] == pytest.approx(300e-9)
    assert worker_own["sim.run"] == pytest.approx(200e-9)

    metrics = trace.layer_metrics([parent, worker])
    assert metrics["trace.busy_cpu_s"] == pytest.approx(1300e-9)
    # engine: 90 (scheduler) + 10 (cache) + 400 (worker) of 1300
    assert metrics["engine.self_frac"] == pytest.approx(500 / 1300)
    assert metrics["asm.self_frac"] == pytest.approx(300 / 1300)
    assert metrics["sim.self_frac"] == pytest.approx(200 / 1300)
    assert metrics["unattributed_frac"] == pytest.approx(300 / 1300)
    assert metrics["sim.instructions"] == 1500
    assert metrics["engine.jobs"] == 4
    assert metrics["engine.cache_hits"] == 1
    # 2 workers x 1000 ns of graph wall, 900 ns of worker wall.
    assert metrics["engine.idle_frac"] == pytest.approx(1 - 900 / 2000)


def test_alias_rebinding_covers_names_imported_from_the_package(tmp_path):
    from repro.sim import run_program
    from repro.sim import simulator

    original = simulator.run_program
    tracer = trace.Tracer(str(tmp_path)).install()
    try:
        import repro.kernels.kernel as kernel_module
        import repro.sim as sim_package

        wrapped = simulator.run_program
        assert wrapped is not original
        assert wrapped.__wrapped__ is original
        assert sim_package.run_program is wrapped
        assert kernel_module.run_program is wrapped

        from repro.isa import get_isa
        from repro.fab.testing import directed_program

        isa = get_isa("flexicore4")
        result, _ = sim_package.run_program(
            directed_program(isa), inputs=[1, 2, 3], max_cycles=50,
            on_exhausted="hold")
        names = [tracer.names[span[1]] for span in tracer.buffer.spans]
        assert "sim.run_program" in names
        assert "sim.run" in names
    finally:
        tracer.uninstall()
    assert simulator.run_program is original
    assert sys.modules["repro.sim"].run_program is run_program


def test_cold_validity_guard_trips_on_a_prewarmed_cache(monkeypatch):
    workload = Conform(budget=6)
    with harness.Context() as ctx:
        cache = ctx.scratch("prewarmed")
        with ctx.engine(cache) as engine:
            workload.run_once(engine, 3)
        monkeypatch.setattr(ctx, "scratch", lambda label: cache)
        sample = workload.iterate(ctx, 1, 3)
    assert "cold run found every result already cached" in sample.errors
    assert sample.failed == 1
