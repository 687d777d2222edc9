"""The observability layer: logging, metrics, spans, transport, CLI."""

import io
import json
import threading

import pytest

from repro import obs
from repro.engine import (
    Engine,
    EngineJobError,
    Job,
    job_function,
    load_last_run,
)
from repro.obs import bridge as obs_bridge
from repro.obs import flight as obs_flight
from repro.obs import logging as obs_logging
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs import state as obs_state


@pytest.fixture(autouse=True)
def clean_obs(tmp_path, monkeypatch):
    """Every test gets an isolated state dir and an all-off switchboard."""
    monkeypatch.setenv("REPRO_STATE_DIR", str(tmp_path / "state"))
    obs.reset()
    yield
    obs.reset()


# ----------------------------------------------------------------------
# Module-level job functions (worker processes import them by reference).
# ----------------------------------------------------------------------

@job_function("test.obs_instrumented", version="1")
def obs_instrumented_job(params, seed):
    with obs.span("t.inner", item=params["item"]):
        if obs.active():
            obs.registry().counter("test_obs_jobs_total").inc()
    return params["item"]


@job_function("test.obs_plain", version="1")
def obs_plain_job(params, seed):
    return params["item"] * 2


@job_function("test.obs_doomed", version="1")
def obs_doomed_job(params, seed):
    raise RuntimeError("deliberately broken")


# ----------------------------------------------------------------------
# Logging
# ----------------------------------------------------------------------

class TestLogging:
    def test_default_threshold_hides_info(self):
        stream = io.StringIO()
        obs.configure(log_stream=stream)
        log = obs.get_logger("t")
        log.info("quiet by default")
        log.warning("but warnings show")
        output = stream.getvalue()
        assert "quiet by default" not in output
        assert "but warnings show" in output

    def test_debug_level_opens_the_gate(self):
        stream = io.StringIO()
        obs.configure(log_level="debug", log_stream=stream)
        obs.get_logger("t").debug("fine detail", n=3)
        assert "[t] debug: fine detail n=3" in stream.getvalue()

    def test_quiet_forces_error_threshold(self):
        stream = io.StringIO()
        obs.configure(quiet=True, log_stream=stream)
        log = obs.get_logger("t")
        log.warning("suppressed")
        log.error("still visible")
        output = stream.getvalue()
        assert "suppressed" not in output
        assert "still visible" in output

    def test_info_renders_without_level_prefix(self):
        line = obs_logging.render_human("eng", "info", "stage done",
                                        {"jobs": 2})
        assert line == "[eng] stage done jobs=2"
        warn = obs_logging.render_human("eng", "warning", "careful", {})
        assert warn == "[eng] warning: careful"

    def test_force_bypasses_threshold(self):
        stream = io.StringIO()
        obs.configure(log_stream=stream)   # threshold still warning
        obs.get_logger("t").force("progress line")
        assert "progress line" in stream.getvalue()

    def test_jsonl_sink_and_tail(self, tmp_path):
        stream = io.StringIO()
        obs.configure(log_level="info", log_stream=stream,
                      persist_log=True)
        log = obs.get_logger("t")
        for index in range(5):
            log.info("event", index=index)
        records = obs_logging.tail_log(count=3)
        assert [record["index"] for record in records] == [2, 3, 4]
        assert all(record["event"] == "event" for record in records)
        rendered = obs_logging.render_log_records(records)
        assert "[t] event index=4" in rendered

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown log level"):
            obs_logging.level_number("chatty")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

class TestMetrics:
    def test_counter_labels_and_total(self):
        counter = obs_metrics.Counter("hits")
        counter.inc(2, kind="a")
        counter.inc(kind="b")
        assert counter.value(kind="a") == 2
        assert counter.value(kind="b") == 1
        assert counter.total() == 3

    def test_gauge_set_replaces(self):
        gauge = obs_metrics.Gauge("level")
        gauge.set(5)
        gauge.set(3)
        assert gauge.value() == 3

    def test_histogram_buckets_and_overflow(self):
        histogram = obs_metrics.Histogram("lat", buckets=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(0.5)
        histogram.observe(100.0)       # beyond the last bound
        cell = histogram.snapshot()["values"][0]
        assert cell["counts"] == [1, 1, 1]
        assert cell["count"] == 3
        assert histogram.mean() == pytest.approx(100.55 / 3)

    def test_registry_rejects_kind_change(self):
        registry = obs_metrics.Registry()
        registry.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            registry.histogram("x")

    def test_merge_adds_counters_and_histograms(self):
        a = obs_metrics.Registry()
        a.counter("jobs").inc(2, status="ok")
        a.histogram("secs", buckets=(1.0,)).observe(0.5)
        b = obs_metrics.Registry()
        b.counter("jobs").inc(3, status="ok")
        b.histogram("secs", buckets=(1.0,)).observe(2.0)
        b.gauge("depth").set(7)
        a.merge(b.snapshot())
        assert a.counter("jobs").value(status="ok") == 5
        assert a.histogram("secs").count() == 2
        assert a.gauge("depth").value() == 7

    def test_prometheus_rendering(self):
        registry = obs_metrics.Registry()
        registry.counter("jobs_total", help="Jobs run").inc(4, status="ok")
        registry.histogram("secs", buckets=(0.5, 1.0)).observe(0.7)
        text = obs_metrics.render_prometheus(registry.snapshot())
        assert "# HELP jobs_total Jobs run" in text
        assert "# TYPE jobs_total counter" in text
        assert 'jobs_total{status="ok"} 4' in text
        assert 'secs_bucket{le="0.5"} 0' in text
        assert 'secs_bucket{le="1.0"} 1' in text
        assert 'secs_bucket{le="+Inf"} 1' in text
        assert "secs_count 1" in text
        assert text.endswith("\n")

    def test_jsonl_rendering_parses(self):
        registry = obs_metrics.Registry()
        registry.counter("jobs").inc(2, where="pool")
        registry.histogram("secs", buckets=(1.0,)).observe(0.2)
        lines = obs_metrics.render_metrics_jsonl(
            registry.snapshot()
        ).splitlines()
        records = [json.loads(line) for line in lines]
        assert {record["metric"] for record in records} == {"jobs", "secs"}
        jobs = next(r for r in records if r["metric"] == "jobs")
        assert jobs["value"] == 2 and jobs["labels"] == {"where": "pool"}

    def test_facade_merge_via_absorb(self):
        obs.configure(metrics=True)
        obs.registry().counter("n").inc()
        obs.absorb({"metrics": {"n": {
            "kind": "counter", "help": "",
            "values": [{"labels": {}, "value": 4}],
        }}})
        assert obs.registry().counter("n").total() == 5


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class TestSpans:
    def test_disabled_span_records_nothing(self):
        with obs.span("never", x=1) as handle:
            handle.set(y=2)
        assert obs.collected_spans() == []

    def test_nesting_and_attributes(self):
        obs.configure(trace=True)
        with obs.span("outer"):
            with obs.span("inner", item=3):
                pass
        records = obs.collected_spans()
        assert [record["name"] for record in records] == \
            ["inner", "outer"]           # close order
        inner, outer = records
        assert inner["parent"] == outer["id"]
        assert inner["attrs"] == {"item": 3}
        assert inner["wall_s"] >= 0 and inner["cpu_s"] >= 0

    def test_exception_marks_span(self):
        obs.configure(trace=True)
        with pytest.raises(RuntimeError):
            with obs.span("doomed"):
                raise RuntimeError("boom")
        (record,) = obs.collected_spans()
        assert record["error"] == "RuntimeError"

    def test_render_tree_indents_children(self):
        obs.configure(trace=True)
        with obs.span("parent"):
            with obs.span("child"):
                pass
        tree = obs.render_tree(obs.collected_spans())
        lines = tree.splitlines()
        parent_line = next(l for l in lines if "parent" in l)
        child_line = next(l for l in lines if "child" in l)
        assert lines.index(parent_line) < lines.index(child_line)
        assert child_line.startswith("  ")

    def test_chrome_export_shape(self):
        obs.configure(trace=True)
        with obs.span("work"):
            pass
        document = obs.to_chrome(obs.collected_spans())
        events = document["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == 1
        event = complete[0]
        assert event["name"] == "work"
        assert event["dur"] >= 0 and "ts" in event
        assert any(e["ph"] == "M" for e in events)

    def test_ids_stay_unique_across_reactivations(self):
        # A pool worker is re-activated once per chunk; ids must not
        # restart or the assembled tree aliases spans across chunks.
        obs.configure(trace=True)
        context = obs.trace_context()
        seen = set()
        for _ in range(2):
            obs_spans.activate_worker(context, process="w")
            with obs.span("job"):
                pass
            for record in obs.drain_spans():
                assert record["id"] not in seen
                seen.add(record["id"])


# ----------------------------------------------------------------------
# Cross-process transport through the engine
# ----------------------------------------------------------------------

class TestEngineTransport:
    def test_worker_context_none_when_off(self):
        assert obs.worker_context() is None

    def test_parallel_run_merges_spans_and_metrics(self):
        obs.configure(metrics=True, trace=True)
        jobs = [
            Job(obs_instrumented_job, {"item": index}, label=f"j{index}")
            for index in range(4)
        ]
        with obs.span("test.stage"):
            results = Engine(jobs=2).run(jobs, stage="t")
        assert results == [0, 1, 2, 3]
        assert obs.registry().counter("test_obs_jobs_total").total() == 4
        records = obs.collected_spans()
        by_name = {}
        for record in records:
            by_name.setdefault(record["name"], []).append(record)
        assert len(by_name["t.inner"]) == 4
        assert len(by_name["engine.job"]) == 4
        # Worker spans really came from other processes and hang off
        # the pool-side job spans.
        job_ids = {record["id"] for record in by_name["engine.job"]}
        for inner in by_name["t.inner"]:
            assert inner["process"].startswith("worker")
            assert inner["parent"] in job_ids
        # Engine bridge folded scheduling metrics too.
        snapshot = obs.registry().snapshot()
        assert obs._counter_total(snapshot, "engine_jobs_total") == 4
        assert obs._counter_total(snapshot, "engine_stages_total") == 1

    def test_serial_run_records_job_spans(self):
        obs.configure(metrics=True, trace=True)
        jobs = [Job(obs_plain_job, {"item": 2}, label="one")]
        Engine(jobs=1).run(jobs, stage="t")
        names = [record["name"] for record in obs.collected_spans()]
        assert "engine.job" in names and "engine.t" in names

    def test_cache_hits_reach_the_registry(self, tmp_path):
        obs.configure(metrics=True)
        jobs = [
            Job(obs_plain_job, {"item": index}, label=f"j{index}")
            for index in range(3)
        ]
        cache = tmp_path / "cache"
        Engine(jobs=1, cache=cache).run(jobs, stage="t")
        assert obs.registry().counter(
            "engine_cache_misses_total"
        ).total() == 3
        Engine(jobs=1, cache=cache).run(jobs, stage="t")
        assert obs.registry().counter(
            "engine_cache_hits_total"
        ).total() == 3

    def test_last_run_persists_without_cache(self):
        # The satellite regression: `--no-cache` runs must still leave
        # `repro engine stats` fresh via the state directory.
        jobs = [Job(obs_plain_job, {"item": 1}, label="only")]
        Engine(jobs=1).run(jobs, stage="t")
        payload = load_last_run()
        assert payload is not None
        assert payload["jobs_completed"] == 1


# ----------------------------------------------------------------------
# Persistence, exports, CLI
# ----------------------------------------------------------------------

def _collect_some_data():
    obs.configure(metrics=True, trace=True)
    with obs.span("test.root"):
        obs.registry().counter(
            "sim_instructions_total", "Instructions retired",
        ).inc(42, mnemonic="addi")
    return obs.persist_snapshot()


class TestPersistenceAndExport:
    def test_snapshot_round_trip(self):
        _collect_some_data()
        snapshot, spans = obs.load_snapshot()
        assert obs._counter_total(snapshot, "sim_instructions_total") == 42
        assert spans[0]["name"] == "test.root"

    def test_export_reads_persisted_data(self):
        _collect_some_data()
        text = obs.export_text("prometheus")
        assert 'sim_instructions_total{mnemonic="addi"} 42' in text
        document = json.loads(obs.export_text("chrome"))
        assert any(
            event.get("name") == "test.root"
            for event in document["traceEvents"]
        )
        records = [
            json.loads(line)
            for line in obs.export_text("jsonl").splitlines()
        ]
        metrics = {record["metric"] for record in records}
        assert "sim_instructions_total" in metrics
        # Standard process gauges ride along in every persisted
        # snapshot, so stock Prometheus dashboards have them.
        assert "process_uptime_seconds" in metrics

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="unknown export format"):
            obs.export_text("yaml", snapshot={}, spans=[])

    def test_summary_headlines(self):
        obs.configure(metrics=True)
        registry = obs.registry()
        registry.counter("sim_instructions_total").inc(10)
        registry.counter("fab_dies_probed_total").inc(4, voltage="4.5")
        registry.counter("fab_dies_pass_total").inc(3, voltage="4.5")
        registry.counter("fab_die_failures_total").inc(
            1, mode="defect", voltage="4.5"
        )
        registry.counter("engine_cache_hits_total").inc(1)
        registry.counter("engine_cache_misses_total").inc(1)
        text = obs.summary()
        assert "instructions retired: 10" in text
        assert "dies tested:          4 (3 pass, 1 fail defect)" in text
        assert "engine cache:         1/2 hits (50% hit rate)" in text


class TestObsCli:
    def test_summary_without_data_hints(self, capsys):
        from repro.cli import main

        assert main(["obs", "summary"]) == 1
        assert "--profile" in capsys.readouterr().out

    def test_summary_with_data(self, capsys):
        from repro.cli import main

        _collect_some_data()
        obs.reset()     # the CLI must read the persisted copy
        assert main(["obs", "summary"]) == 0
        output = capsys.readouterr().out
        assert "test.root" in output
        assert "instructions retired: 42" in output

    def test_export_formats(self, capsys):
        from repro.cli import main

        _collect_some_data()
        obs.reset()
        assert main(["obs", "export", "--format", "prometheus"]) == 0
        assert "# TYPE sim_instructions_total counter" in \
            capsys.readouterr().out
        assert main(["obs", "export", "--format", "chrome"]) == 0
        json.loads(capsys.readouterr().out)

    def test_tail(self, capsys):
        from repro.cli import main

        obs.configure(log_level="info", persist_log=True)
        obs.get_logger("t").info("hello from the log", run=7)
        assert main(["obs", "tail", "-n", "5"]) == 0
        assert "hello from the log run=7" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Trace context: traceparent parsing and cross-thread binding
# ----------------------------------------------------------------------

class TestTraceContext:
    def test_traceparent_round_trip(self):
        trace_id = obs_spans.new_trace_id()
        header = obs_spans.format_traceparent(trace_id, "abc123")
        parsed = obs_spans.parse_traceparent(header)
        assert parsed is not None
        assert parsed[0] == trace_id
        assert parsed[1] == "abc123".zfill(16)

    @pytest.mark.parametrize("header", [
        None,
        "",
        "not-a-traceparent",
        "00-deadbeef-cafe-01",                       # wrong field widths
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",   # all-zero trace id
        "00-" + "a" * 32 + "-" + "0" * 16 + "-01",   # all-zero parent id
        "zz-" + "a" * 32 + "-" + "1" * 16 + "-01",   # non-hex version
    ])
    def test_traceparent_rejects_malformed(self, header):
        assert obs_spans.parse_traceparent(header) is None

    def test_minted_header_parses(self):
        trace_id = obs_spans.new_trace_id()
        header = obs_spans.format_traceparent(trace_id)
        parsed = obs_spans.parse_traceparent(header)
        assert parsed is not None and parsed[0] == trace_id

    def test_push_pop_trace_scopes_current_trace(self):
        assert obs.current_trace_id() is None
        token = obs_spans.push_trace("feedface" * 4)
        try:
            assert obs.current_trace_id() == "feedface" * 4
        finally:
            obs_spans.pop_trace(token)
        assert obs.current_trace_id() is None

    def test_bound_trace_wins_over_global(self):
        obs.enable_tracing()
        global_id = obs.current_trace_id()
        token = obs_spans.push_trace("ab" * 16)
        try:
            assert obs.current_trace_id() == "ab" * 16
        finally:
            obs_spans.pop_trace(token)
        assert obs.current_trace_id() == global_id

    def test_threads_have_isolated_bindings(self):
        seen = {}

        def worker(name, trace_id):
            token = obs_spans.push_trace(trace_id)
            try:
                seen[name] = obs.current_trace_id()
            finally:
                obs_spans.pop_trace(token)

        threads = [
            threading.Thread(target=worker, args=(f"t{i}", f"{i:032x}"))
            for i in (1, 2, 3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert seen == {"t1": f"{1:032x}", "t2": f"{2:032x}",
                        "t3": f"{3:032x}"}
        assert obs.current_trace_id() is None

    def test_spans_inside_binding_carry_the_trace(self):
        obs.enable_tracing()
        token = obs_spans.push_trace("cd" * 16, "ef" * 8)
        try:
            with obs.span("bound.work"):
                pass
        finally:
            obs_spans.pop_trace(token)
        matching = obs_spans.drain_trace("cd" * 16)
        assert [record["name"] for record in matching] == ["bound.work"]
        # The bound parent id seeds the root span's parent pointer.
        assert matching[0]["parent"] == "ef" * 8

    def test_drain_trace_leaves_other_traces(self):
        obs.enable_tracing()
        token = obs_spans.push_trace("11" * 16)
        try:
            with obs.span("mine"):
                pass
        finally:
            obs_spans.pop_trace(token)
        with obs.span("global.other"):
            pass
        assert [record["name"]
                for record in obs_spans.drain_trace("11" * 16)] == ["mine"]
        remaining = [record["name"]
                     for record in obs_spans.collected_spans()]
        assert "global.other" in remaining and "mine" not in remaining

    def test_log_records_stamp_the_bound_trace(self):
        records = []
        obs_logging.add_log_sink(records.append)
        try:
            token = obs_spans.push_trace("77" * 16)
            try:
                obs.get_logger("t").warning("inside the trace")
            finally:
                obs_spans.pop_trace(token)
            obs.get_logger("t").warning("outside the trace")
        finally:
            obs_logging.remove_log_sink(records.append)
        inside = next(r for r in records
                      if r["event"] == "inside the trace")
        outside = next(r for r in records
                       if r["event"] == "outside the trace")
        assert inside["trace_id"] == "77" * 16
        assert "trace_id" not in outside


# ----------------------------------------------------------------------
# Bridge fan-out: subscribe/unsubscribe under fire
# ----------------------------------------------------------------------

class TestBridgeFanOut:
    def test_all_subscribers_see_every_event(self):
        seen_a, seen_b = [], []
        token_a = obs_bridge.subscribe(
            lambda event, payload: seen_a.append(event))
        token_b = obs_bridge.subscribe(
            lambda event, payload: seen_b.append(event))
        try:
            obs_bridge.engine_event("stage_done", {"stage": "s1"})
            obs_bridge.engine_event("stage_done", {"stage": "s2"})
        finally:
            obs_bridge.unsubscribe(token_a)
            obs_bridge.unsubscribe(token_b)
        assert seen_a == ["stage_done", "stage_done"]
        assert seen_b == ["stage_done", "stage_done"]

    def test_concurrent_publishers_reach_one_subscriber(self):
        lock = threading.Lock()
        count = [0]

        def tally(event, payload):
            with lock:
                count[0] += 1

        token = obs_bridge.subscribe(tally)
        try:
            def publish(worker):
                for index in range(50):
                    obs_bridge.engine_event(
                        "job_done",
                        {"label": f"w{worker}.{index}",
                         "status": "completed", "elapsed_s": 0.0},
                    )

            threads = [threading.Thread(target=publish, args=(i,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            obs_bridge.unsubscribe(token)
        assert count[0] == 200

    def test_raising_subscriber_dropped_others_survive(self):
        calls = {"bad": 0}
        seen = []

        def bad(event, payload):
            calls["bad"] += 1
            raise RuntimeError("subscriber bug")

        token_bad = obs_bridge.subscribe(bad)
        token_good = obs_bridge.subscribe(
            lambda event, payload: seen.append(event))
        try:
            engine = Engine(jobs=1)
            results = engine.run(
                [Job(obs_plain_job, {"item": 3}, label="fanout")])
            assert results == [6]
            # The engine run completed, the good subscriber kept
            # receiving, and the raising one was dropped after one call.
            assert "job_done" in seen
            assert calls["bad"] == 1
            seen.clear()
            obs_bridge.engine_event("stage_done", {"stage": "again"})
            assert seen == ["stage_done"]
            assert calls["bad"] == 1
        finally:
            obs_bridge.unsubscribe(token_bad)
            obs_bridge.unsubscribe(token_good)

    def test_unsubscribe_during_publish(self):
        seen_b = []
        token_b = None

        def saboteur(event, payload):
            obs_bridge.unsubscribe(token_b)

        token_a = obs_bridge.subscribe(saboteur)
        token_b = obs_bridge.subscribe(
            lambda event, payload: seen_b.append(event))
        try:
            obs_bridge.engine_event("stage_done", {"stage": "first"})
            after_first = list(seen_b)
            obs_bridge.engine_event("stage_done", {"stage": "second"})
        finally:
            obs_bridge.unsubscribe(token_a)
            obs_bridge.unsubscribe(token_b)
        # b may or may not see the event that removed it (snapshot
        # semantics) but must see nothing afterwards.
        assert seen_b == after_first

    def test_self_unsubscribe_during_publish(self):
        seen = []
        token = [None]

        def once(event, payload):
            seen.append(event)
            obs_bridge.unsubscribe(token[0])

        token[0] = obs_bridge.subscribe(once)
        obs_bridge.engine_event("stage_done", {"stage": "one"})
        obs_bridge.engine_event("stage_done", {"stage": "two"})
        assert seen == ["stage_done"]


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------

class TestFlightRecorder:
    def test_enabled_by_default_and_reset_keeps_it_on(self):
        assert obs_flight.enabled()
        obs_flight.record("event", {"event": "x", "payload": {}})
        assert obs_flight.snapshot()
        obs.reset()
        assert obs_flight.snapshot() == []
        assert obs_flight.enabled()

    def test_ring_is_bounded(self):
        obs_flight.configure(capacity=8)
        try:
            for index in range(50):
                obs_flight.record("event", {"index": index})
            records = obs_flight.snapshot()
            assert len(records) == 8
            assert [r["index"] for r in records] == list(range(42, 50))
        finally:
            obs_flight.configure(capacity=obs_flight.DEFAULT_CAPACITY)

    def test_records_engine_events_with_profiling_off(self):
        assert not obs.active()
        engine = Engine(jobs=1)
        engine.run([Job(obs_plain_job, {"item": 2}, label="quiet")])
        kinds = {record["kind"] for record in obs_flight.snapshot()}
        assert "event" in kinds
        events = [record for record in obs_flight.snapshot()
                  if record["kind"] == "event"]
        assert any(record["event"] == "job_done" for record in events)

    def test_disabled_recorder_drops_records(self):
        obs_flight.configure(enabled=False)
        try:
            obs_flight.record("event", {"event": "x"})
            assert obs_flight.snapshot() == []
        finally:
            obs_flight.configure(enabled=True)

    def test_engine_failure_leaves_replayable_dump(self, tmp_path):
        engine = Engine(jobs=1, cache=None, retries=0)
        with pytest.raises(EngineJobError):
            engine.run([Job(obs_doomed_job, {}, label="doomed")])
        dumps = obs_flight.list_dumps()
        assert dumps, "engine failure must write a flight dump"
        document = obs_flight.load_dump()
        assert document["reason"] == "engine_job_failure"
        assert document["context"]["label"] == "doomed"
        assert "deliberately broken" in document["context"]["error"]
        # Replay-readable: the render is self-describing text.
        text = obs_flight.render(document)
        assert "reason=engine_job_failure" in text

    def test_dump_prunes_to_max(self):
        for _ in range(obs_flight.MAX_DUMPS + 3):
            assert obs_flight.dump("test") is not None
        assert len(obs_flight.list_dumps()) == obs_flight.MAX_DUMPS

    def test_dump_failure_is_counted_not_raised(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        before = obs_state.write_error_count()
        assert obs_flight.dump("test", root=blocker) is None
        assert obs_state.write_error_count() == before + 1

    def test_render_snapshot_and_missing(self):
        assert "(no flight dump found)" in obs_flight.render(None)
        obs_flight.record("log", {"logger": "t", "level": "warning",
                                  "event": "hello"})
        text = obs_flight.render(obs_flight.snapshot())
        assert "flight ring: records=1" in text
        assert "[t] warning: hello" in text


class TestFlightCli:
    def test_dump_then_show(self, capsys):
        from repro.cli import main

        obs_flight.record("event",
                          {"event": "job_done",
                           "payload": {"label": "cli-job",
                                       "status": "completed"}})
        assert main(["obs", "flight", "dump"]) == 0
        dump_path = capsys.readouterr().out.strip()
        assert dump_path.endswith(".json")
        assert main(["obs", "flight", "show"]) == 0
        output = capsys.readouterr().out
        assert "reason=cli" in output
        assert "label=cli-job" in output

    def test_show_without_dumps_fails(self, capsys):
        from repro.cli import main

        assert main(["obs", "flight", "show"]) == 1
        assert "no flight dump" in capsys.readouterr().out.lower()


# ----------------------------------------------------------------------
# State-dir write errors: counted, warned once
# ----------------------------------------------------------------------

class TestWriteErrors:
    def test_oserror_counted_and_warned_once(self, tmp_path,
                                             monkeypatch):
        stream = io.StringIO()
        obs.configure(log_stream=stream)
        monkeypatch.setattr(obs_state, "_write_warned", False)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the state dir should be")
        before_total = obs_state.write_error_count()
        before_named = obs_state.write_error_count("metrics.json")
        assert not obs_state.write_json("metrics.json", {},
                                        root=blocker)
        assert not obs_state.write_jsonl("spans.jsonl", [],
                                         root=blocker)
        assert not obs_state.append_jsonl("log.jsonl", {},
                                          root=blocker)
        assert obs_state.write_error_count() == before_total + 3
        assert (obs_state.write_error_count("metrics.json")
                == before_named + 1)
        # Warn-once: three failures, one warning line.
        output = stream.getvalue()
        assert output.count("state-dir write failed") == 1

    def test_write_errors_fold_into_metrics(self, tmp_path):
        obs.configure(metrics=True)
        blocker = tmp_path / "blocked"
        blocker.write_text("x")
        obs_state.write_json("metrics.json", {}, root=blocker)
        counter = obs.registry().counter("obs_write_errors_total")
        assert counter.value(file="metrics.json") == 1


# ----------------------------------------------------------------------
# Process gauges
# ----------------------------------------------------------------------

class TestProcessGauges:
    def test_gauges_report_live_process(self):
        obs.configure(metrics=True)
        obs.update_process_gauges()
        registry = obs.registry()
        assert registry.gauge("process_uptime_seconds").value() > 0
        assert (registry.gauge("process_resident_memory_bytes").value()
                > 1024 * 1024)
        assert registry.gauge("process_open_fds").value() >= 3

    def test_gauges_ride_along_in_prometheus_export(self):
        obs.configure(metrics=True)
        obs.update_process_gauges()
        text = obs.export_text(
            "prometheus", snapshot=obs.registry().snapshot(), spans=[])
        assert "# TYPE process_uptime_seconds gauge" in text
        assert "process_resident_memory_bytes" in text
        assert "process_open_fds" in text
