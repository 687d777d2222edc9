"""End-to-end tests of ``repro.service``: real sockets, real jobs.

Every test starts a full service (asyncio HTTP server on an ephemeral
port, executor-backed job runner, shared result cache in tmp_path) and
talks to it with the bundled clients -- the same path ``repro client``
and the CI smoke job use.
"""

import http.client
import time

import pytest

from repro import obs
from repro.engine import EngineCancelled
from repro.obs import flight as obs_flight
from repro.obs import state as obs_state
from repro.service import (
    CANCELLED,
    COMPLETED,
    Field,
    JobStore,
    ServiceApiError,
    ServiceClient,
    ServiceConfig,
    Tenant,
    TenantRegistry,
    TokenBucket,
    ValidationError,
    register_job_type,
    start_in_thread,
)
from repro.service import jobs as service_jobs
from repro.service.artifacts import ArtifactStore
from repro.service.jobs import validate_params
from repro.service.slo import SloMeter, outcome_class
from repro.service.state import JobRecord
from repro.service.top import render_dashboard

KERNEL_PARAMS = {"kernel": "Parity Check", "transactions": 3}


def _sleep_runner(params, ctx):
    """Test-only job: cancellable busy-wait, no engine involved."""
    deadline = time.monotonic() + params["seconds"]
    while time.monotonic() < deadline:
        if ctx.record.cancel_requested:
            raise EngineCancelled("test sleep cancelled")
        time.sleep(0.02)
    return {"slept": params["seconds"]}, []


register_job_type(
    "sleep_test", "test-only cancellable sleeper",
    {"seconds": Field(float, default=0.2, minimum=0.0, maximum=30.0)},
    _sleep_runner,
)


def _fail_runner(params, ctx):
    """Test-only job: admitted, then raises when it runs."""
    raise RuntimeError(f"deliberate failure: {params['reason']}")


register_job_type(
    "fail_test", "test-only job whose runner raises",
    {"reason": Field(str, default="NoSuchDesign")},
    _fail_runner,
)


def _registry():
    return TenantRegistry([
        Tenant(name="alice", key="alice-key", rate=1000.0, burst=1000,
               max_active=4),
        Tenant(name="bob", key="bob-key", rate=1000.0, burst=1000,
               max_active=2),
    ])


@pytest.fixture()
def handle(tmp_path):
    instance = start_in_thread(ServiceConfig(
        port=0, cache=str(tmp_path / "svc-cache"), tenants=_registry(),
        max_running=2, max_queued=2,
    ))
    yield instance
    instance.stop()


@pytest.fixture()
def alice(handle):
    return ServiceClient(handle.base_url, "alice-key", timeout=120)


@pytest.fixture()
def bob(handle):
    return ServiceClient(handle.base_url, "bob-key", timeout=120)


class TestRoundTrip:
    def test_two_tenants_yield_and_dse(self, alice, bob):
        """The ISSUE acceptance path: two tenants, a yield study and a
        DSE sweep, events streamed, artifacts fetched."""
        yield_doc = alice.submit("yield_study", {
            "core": "flexicore4", "wafers": 1, "seed": 7,
        })
        dse_doc = bob.submit("dse_sweep", {
            "designs": ["FlexiCore4"], "transactions": 2,
        })

        yield_final = alice.wait(yield_doc["id"], timeout=300)
        dse_final = bob.wait(dse_doc["id"], timeout=300)
        assert yield_final["status"] == COMPLETED
        assert dse_final["status"] == COMPLETED

        summary = yield_final["result"]["summary"]
        assert set(summary) == {"3", "4.5"}
        assert 0.0 <= summary["3"]["full"] <= 1.0
        metrics = dse_final["result"]["designs"]["FlexiCore4"]
        assert metrics["gate_count"] > 0
        assert metrics["kernels"]

        events = list(alice.events(yield_doc["id"]))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "queued"
        assert "started" in kinds
        assert kinds[-1] == "completed"
        assert [event["seq"] for event in events] == \
            list(range(len(events)))
        assert any(kind == "engine_stage" for kind in kinds)

        assert yield_final["artifacts"]
        text = alice.artifact(
            yield_final["artifacts"][0]["digest"]
        ).decode()
        assert "yield study" in text
        assert "flexicore4" in text

    def test_resubmission_is_cache_hit(self, alice):
        first = alice.run("kernel_run", KERNEL_PARAMS)
        assert first["status"] == COMPLETED
        assert first["cache_hit"] is False

        started = time.monotonic()
        second = alice.run("kernel_run", KERNEL_PARAMS)
        elapsed = time.monotonic() - started
        assert second["status"] == COMPLETED
        assert second["cache_hit"] is True
        assert second["result"] == first["result"]
        assert elapsed < 10.0
        # Identical results render identical artifacts -> same digest.
        assert [a["digest"] for a in second["artifacts"]] == \
            [a["digest"] for a in first["artifacts"]]

    def test_cache_is_shared_across_tenants(self, alice, bob):
        alice_doc = alice.run("kernel_run", KERNEL_PARAMS)
        bob_doc = bob.run("kernel_run", KERNEL_PARAMS)
        assert alice_doc["cache_hit"] is False
        assert bob_doc["cache_hit"] is True

    def test_wafer_maps_job(self, alice):
        doc = alice.run("wafer_maps", {
            "core": "flexicore4", "seed": 3, "voltages": [4.5],
        })
        assert doc["status"] == COMPLETED
        assert "4.5" in doc["result"]["voltages"]
        names = [a["name"] for a in doc["artifacts"]]
        assert "figure6.txt" in names
        assert "figure7.txt" in names
        fig6 = next(a for a in doc["artifacts"]
                    if a["name"] == "figure6.txt")
        assert "Figure 6" in alice.artifact(fig6["digest"]).decode()

    def test_conformance_job(self, alice):
        doc = alice.run("conformance", {
            "seed": 0, "budget": 4, "oracles": ["dispatch"],
        })
        assert doc["status"] == COMPLETED
        assert doc["result"]["cases"] > 0
        assert doc["result"]["divergences"] == []
        # Campaigns must execute, never replay: no cache hit even on
        # an identical resubmission.
        again = alice.run("conformance", {
            "seed": 0, "budget": 4, "oracles": ["dispatch"],
        })
        assert again["cache_hit"] is False

    def test_types_and_stats_and_health(self, alice):
        types = alice.types()
        assert {"yield_study", "dse_sweep", "conformance",
                "kernel_run", "wafer_maps"} <= set(types)
        assert types["yield_study"]["params"]["core"]["required"]
        stats = alice.stats()
        assert stats["tenants"] == ["alice", "bob"]
        assert "cache" in stats
        assert stats["engine"]["executor"] == "local"
        assert alice.health()["ok"] is True


class TestAdmission:
    def test_unknown_key_is_401(self, handle):
        client = ServiceClient(handle.base_url, "wrong-key")
        with pytest.raises(ServiceApiError) as info:
            client.types()
        assert info.value.status == 401

    def test_unknown_type_is_400(self, alice):
        with pytest.raises(ServiceApiError) as info:
            alice.submit("no_such_type", {})
        assert info.value.status == 400
        assert "no_such_type" in info.value.message

    def test_bad_params_are_400(self, alice):
        for params in (
            {"core": "not-a-core"},            # out of choices
            {"core": "flexicore4", "wafers": "two"},  # wrong type
            {"core": "flexicore4", "bogus": 1},       # unknown name
            {},                                       # missing required
            {"core": "flexicore4", "wafers": 0},      # below minimum
        ):
            with pytest.raises(ServiceApiError) as info:
                alice.submit("yield_study", params)
            assert info.value.status == 400

    def test_unknown_design_is_400(self, alice):
        with pytest.raises(ServiceApiError) as info:
            alice.submit("dse_sweep", {"designs": ["NoSuchDesign"]})
        assert info.value.status == 400
        assert "NoSuchDesign" in info.value.message

    def test_yield_study_takes_no_backend(self, alice):
        # The lane count picks the gate-level simulator; a client that
        # still names one is refused like any unknown parameter.
        with pytest.raises(ServiceApiError) as info:
            alice.submit("yield_study",
                         {"core": "flexicore4", "backend": "compiled"})
        assert info.value.status == 400
        assert "unknown parameter(s) ['backend']" in info.value.message

    def test_quota_is_403_and_isolated(self, alice, bob):
        """Bob (max_active=2) hitting his quota must not disturb
        Alice's in-flight jobs."""
        first = bob.submit("sleep_test", {"seconds": 2.0})
        second = bob.submit("sleep_test", {"seconds": 2.0})
        with pytest.raises(ServiceApiError) as info:
            bob.submit("sleep_test", {"seconds": 0.1})
        assert info.value.status == 403
        assert info.value.code == "quota_exceeded"

        # Alice is unaffected: her quota is her own.
        alice_doc = alice.submit("sleep_test", {"seconds": 0.1})
        assert alice.wait(alice_doc["id"], timeout=60)["status"] in (
            COMPLETED, CANCELLED
        )
        bob.cancel(first["id"])
        bob.cancel(second["id"])
        bob.wait(first["id"], timeout=60)
        bob.wait(second["id"], timeout=60)

    def test_rate_limit_is_429_with_retry_after(self, tmp_path):
        registry = TenantRegistry([
            Tenant(name="slow", key="slow-key", rate=0.5, burst=1,
                   max_active=8),
        ])
        handle = start_in_thread(ServiceConfig(
            port=0, cache=str(tmp_path / "rate-cache"),
            tenants=registry, max_running=1, max_queued=8,
        ))
        try:
            client = ServiceClient(handle.base_url, "slow-key")
            first = client.submit("sleep_test", {"seconds": 0.05})
            with pytest.raises(ServiceApiError) as info:
                client.submit("sleep_test", {"seconds": 0.05})
            assert info.value.status == 429
            assert info.value.code == "rate_limited"
            assert info.value.retry_after is not None
            assert info.value.retry_after >= 1
            client.wait(first["id"], timeout=60)
        finally:
            handle.stop()

    def test_backlog_is_429(self, tmp_path):
        handle = start_in_thread(ServiceConfig(
            port=0, cache=str(tmp_path / "bp-cache"),
            tenants=_registry(), max_running=1, max_queued=1,
        ))
        try:
            alice = ServiceClient(handle.base_url, "alice-key")
            bob = ServiceClient(handle.base_url, "bob-key")
            running = alice.submit("sleep_test", {"seconds": 2.0})
            queued = bob.submit("sleep_test", {"seconds": 0.05})
            with pytest.raises(ServiceApiError) as info:
                alice.submit("sleep_test", {"seconds": 0.05})
            assert info.value.status == 429
            assert info.value.code == "backlog_full"
            # The jobs already admitted still complete.
            alice.cancel(running["id"])
            assert bob.wait(queued["id"], timeout=60)["status"] == \
                COMPLETED
        finally:
            handle.stop()

    def test_jobs_are_tenant_scoped(self, alice, bob):
        doc = alice.run("kernel_run", KERNEL_PARAMS)
        with pytest.raises(ServiceApiError) as info:
            bob.status(doc["id"])
        assert info.value.status == 404
        assert any(j["id"] == doc["id"] for j in alice.jobs())
        assert all(j["id"] != doc["id"] for j in bob.jobs())

    def test_unknown_artifact_is_404(self, alice):
        with pytest.raises(ServiceApiError) as info:
            alice.artifact("f" * 64)
        assert info.value.status == 404
        with pytest.raises(ServiceApiError) as info:
            alice.artifact("../../etc/passwd")
        assert info.value.status == 404


class TestCancel:
    def test_cancel_running_job(self, alice):
        doc = alice.submit("sleep_test", {"seconds": 20.0})
        deadline = time.monotonic() + 10
        while alice.status(doc["id"])["status"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.02)
        started = time.monotonic()
        alice.cancel(doc["id"])
        final = alice.wait(doc["id"], timeout=30)
        assert final["status"] == CANCELLED
        assert time.monotonic() - started < 10
        events = [e["event"] for e in alice.events(doc["id"])]
        assert "cancel_requested" in events
        assert events[-1] == "cancelled"

    def test_cancel_queued_job(self, tmp_path):
        handle = start_in_thread(ServiceConfig(
            port=0, cache=str(tmp_path / "cq-cache"),
            tenants=_registry(), max_running=1, max_queued=2,
        ))
        try:
            alice = ServiceClient(handle.base_url, "alice-key")
            running = alice.submit("sleep_test", {"seconds": 2.0})
            queued = alice.submit("sleep_test", {"seconds": 10.0})
            final = alice.cancel(queued["id"])
            # Depending on timing the executor may already have
            # started it; either way it must reach CANCELLED fast.
            final = alice.wait(queued["id"], timeout=30)
            assert final["status"] == CANCELLED
            alice.cancel(running["id"])
        finally:
            handle.stop()

    def test_failed_job_reports_error(self, alice):
        doc = alice.run("fail_test", {"reason": "NoSuchDesign"})
        assert doc["status"] == "failed"
        assert "NoSuchDesign" in doc["error"]
        assert "result" not in doc


class TestDrain:
    def test_drain_rejects_new_submissions(self, handle, alice):
        doc = alice.submit("sleep_test", {"seconds": 5.0})
        leftovers = handle.service.drain(grace_s=0.2)
        assert leftovers  # the sleeper outlived the grace period
        with pytest.raises(ServiceApiError) as info:
            alice.submit("kernel_run", KERNEL_PARAMS)
        assert info.value.status == 503
        final = alice.wait(doc["id"], timeout=30)
        assert final["status"] == CANCELLED


class TestUnits:
    def test_token_bucket(self):
        bucket = TokenBucket(rate=10.0, burst=2)
        assert bucket.try_acquire() == (True, 0.0)
        assert bucket.try_acquire()[0] is True
        granted, retry = bucket.try_acquire()
        assert granted is False
        assert 0.0 < retry <= 0.1

    def test_registry_rejects_duplicates(self):
        with pytest.raises(ValueError):
            TenantRegistry([
                Tenant(name="a", key="k"),
                Tenant(name="b", key="k"),
            ])
        with pytest.raises(ValueError):
            TenantRegistry([
                Tenant(name="a", key="k1"),
                Tenant(name="a", key="k2"),
            ])

    def test_registry_from_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(
            '{"tenants": [{"name": "x", "key": "kx", "rate": 3,'
            ' "burst": 5, "max_active": 7}]}'
        )
        registry = TenantRegistry.from_file(path)
        tenant = registry.authenticate("kx")
        assert tenant.name == "x"
        assert tenant.max_active == 7
        path.write_text('{"tenants": []}')
        with pytest.raises(ValueError):
            TenantRegistry.from_file(path)

    def test_validate_params(self):
        schema = {
            "n": Field(int, default=2, minimum=1, maximum=4),
            "name": Field(str, required=True),
        }
        assert validate_params(schema, {"name": "x"}) == \
            {"n": 2, "name": "x"}
        for bad in ({"name": "x", "n": 9}, {"name": "x", "n": True},
                    {"n": 1}, {"name": "x", "zzz": 0}, "not-a-dict"):
            with pytest.raises(ValidationError):
                validate_params(schema, bad)

    def test_job_store_evicts_only_terminal(self):
        store = JobStore(max_records=2)
        live = JobRecord("t", "sleep_test", {})
        done = JobRecord("t", "sleep_test", {})
        done.set_status(COMPLETED)
        store.add(done)
        store.add(live)
        extra = JobRecord("t", "sleep_test", {})
        store.add(extra)
        assert store.get(done.id) is None      # evicted (terminal)
        assert store.get(live.id) is live      # kept (still active)
        assert store.active_count("t") == 2

    def test_artifact_store_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "arts")
        descriptor = store.put("a.txt", "hello", "text/plain")
        again = store.put("a.txt", "hello", "text/plain")
        assert descriptor["digest"] == again["digest"]
        meta, data = store.get(descriptor["digest"])
        assert data == b"hello"
        assert meta["name"] == "a.txt"
        with pytest.raises(KeyError):
            store.get("0" * 64)
        with pytest.raises(KeyError):
            store.get("../sneaky")


# ----------------------------------------------------------------------
# Tracing: traceparent in, span tree out
# ----------------------------------------------------------------------

TRACEPARENT = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"


class TestTracing:
    @pytest.fixture()
    def traced_handle(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STATE_DIR",
                           str(tmp_path / "obs-state"))
        obs.reset()
        instance = start_in_thread(ServiceConfig(
            port=0, cache=str(tmp_path / "trace-cache"),
            tenants=_registry(), engine_jobs=2,
            max_running=2, max_queued=4,
        ))
        yield instance
        instance.stop()
        obs.reset()

    def test_client_traceparent_reaches_worker_spans(
            self, traced_handle):
        """The acceptance path: a client-supplied traceparent yields a
        span tree whose leaves ran in worker processes, all stamped
        with the same trace id."""
        client = ServiceClient(traced_handle.base_url, "alice-key",
                               timeout=120)
        doc = client.submit(
            "yield_study",
            {"core": "flexicore4", "wafers": 2, "seed": 3},
            traceparent=TRACEPARENT,
        )
        assert doc["trace_id"] == "ab" * 16
        assert doc["traceparent"].startswith("00-" + "ab" * 16 + "-")
        final = client.wait(doc["id"], timeout=120)
        assert final["status"] == COMPLETED

        trace = client.trace(doc["id"])
        assert trace["trace_id"] == "ab" * 16
        assert trace["complete"] is True
        spans = trace["spans"]
        assert spans
        assert all(span["trace"] == "ab" * 16 for span in spans)
        names = {span["name"] for span in spans}
        assert "service.job" in names
        processes = {span.get("process", "main") for span in spans}
        assert any(process.startswith("worker-")
                   for process in processes), processes
        assert "service.job" in trace["tree"]

    def test_minted_trace_and_chrome_export(self, traced_handle):
        client = ServiceClient(traced_handle.base_url, "alice-key",
                               timeout=120)
        doc = client.submit("sleep_test", {"seconds": 0.02})
        trace_id = doc["trace_id"]
        assert len(trace_id) == 32
        int(trace_id, 16)   # well-formed hex
        client.wait(doc["id"], timeout=30)
        chrome = client.trace(doc["id"], format="chrome")
        assert "traceEvents" in chrome
        assert any(event.get("name") == "service.job"
                   for event in chrome["traceEvents"])

    def test_jsonl_log_records_carry_trace_id(self, traced_handle):
        obs.configure(log_level="debug", persist_log=True)
        client = ServiceClient(traced_handle.base_url, "alice-key",
                               timeout=120)
        doc = client.submit(
            "yield_study", {"core": "flexicore4", "wafers": 1,
                            "seed": 11},
            traceparent=TRACEPARENT,
        )
        client.wait(doc["id"], timeout=120)
        records = obs_state.read_jsonl("log.jsonl")
        assert any(record.get("trace_id") == "ab" * 16
                   for record in records), \
            "no JSONL log record carried the request trace id"

    def test_tracing_disabled_is_404(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STATE_DIR",
                           str(tmp_path / "obs-state"))
        obs.reset()
        handle = start_in_thread(ServiceConfig(
            port=0, cache=str(tmp_path / "nt-cache"),
            tenants=_registry(), tracing=False,
        ))
        try:
            client = ServiceClient(handle.base_url, "alice-key",
                                   timeout=60)
            doc = client.run("sleep_test", {"seconds": 0.01})
            assert "trace_id" not in doc
            with pytest.raises(ServiceApiError) as info:
                client.trace(doc["id"])
            assert info.value.status == 404
        finally:
            handle.stop()
            obs.reset()


# ----------------------------------------------------------------------
# SLO metering
# ----------------------------------------------------------------------

def _broken_runner(params, ctx):   # pragma: no cover - never reached
    return {}, []


class TestSlo:
    def test_outcome_classes(self):
        assert outcome_class(200) == "ok"
        assert outcome_class(202) == "ok"
        assert outcome_class(304) == "ok"
        assert outcome_class(404) == "client_error"
        assert outcome_class(429) == "throttled"
        assert outcome_class(500) == "server_error"
        assert outcome_class(503) == "server_error"

    def test_meter_excludes_throttled_from_availability(self):
        meter = SloMeter()
        meter.observe_request("t", 200, 0.01)
        for _ in range(5):
            meter.observe_request("t", 429, 0.001)
        report = meter.report()["tenants"]["t"]
        assert report["requests"]["throttled"] == 5
        assert report["availability"] == 1.0
        meter.observe_request("t", 500, 0.01)
        report = meter.report()["tenants"]["t"]
        assert report["availability"] == pytest.approx(0.5)

    def test_mixed_traffic_two_tenants(self, tmp_path, monkeypatch):
        """The acceptance scenario: success + 429 + 500 through two
        tenants, then assert quantiles, availability vs objective,
        and the remaining error budget."""
        monkeypatch.setenv("REPRO_STATE_DIR",
                           str(tmp_path / "obs-state"))
        obs.reset()
        registry = TenantRegistry([
            Tenant(name="alice", key="alice-key", rate=1000.0,
                   burst=1000, max_active=4),
            Tenant(name="bob", key="bob-key", rate=0.5, burst=1,
                   max_active=2, slo_availability=0.5),
        ])
        register_job_type(
            "broken_schema_test", "schema blows up in validation",
            {"x": object()}, _broken_runner,
        )
        handle = start_in_thread(ServiceConfig(
            port=0, cache=str(tmp_path / "slo-cache"),
            tenants=registry, max_running=2, max_queued=4,
        ))
        try:
            alice = ServiceClient(handle.base_url, "alice-key",
                                  timeout=60)
            bob = ServiceClient(handle.base_url, "bob-key",
                                timeout=60)
            for index in range(3):
                final = alice.run(
                    "sleep_test", {"seconds": 0.01 + index / 1000})
                assert final["status"] == COMPLETED
            with pytest.raises(ServiceApiError) as info:
                alice.submit("broken_schema_test", {})
            assert info.value.status == 500
            assert bob.run("sleep_test",
                           {"seconds": 0.01})["status"] == COMPLETED
            with pytest.raises(ServiceApiError) as info:
                bob.submit("sleep_test", {"seconds": 0.01})
            assert info.value.status == 429

            report = alice.slo()
            assert report["window_s"] > 0
            a = report["tenants"]["alice"]
            b = report["tenants"]["bob"]

            assert a["requests"]["server_error"] == 1
            assert a["requests"]["ok"] >= 6      # submits + polls
            assert a["objective"]["availability"] == pytest.approx(
                0.99)
            assert 0.0 < a["availability"] < 1.0
            assert a["availability_met"] is False
            # One 500 against a 1% budget over this little traffic:
            # the budget is overspent.
            assert a["error_budget"]["spent"] == 1
            assert a["error_budget"]["remaining_fraction"] < 0.0
            latency = a["latency"]
            assert latency["p50_s"] > 0.0
            assert latency["p50_s"] <= latency["p95_s"] \
                <= latency["p99_s"]
            usage = a["usage"]
            assert usage["jobs_total"] == 3
            assert usage["by_status"] == {"completed": 3}
            assert usage["by_type"] == {"sleep_test": 3}
            assert usage["wall_seconds"] > 0.0

            assert b["requests"]["throttled"] == 1
            assert b["requests"]["server_error"] == 0
            assert b["availability"] == 1.0
            assert b["availability_met"] is True
            assert b["objective"]["availability"] == pytest.approx(
                0.5)
            assert b["error_budget"]["remaining_fraction"] == 1.0
            assert b["usage"]["jobs_total"] == 1
        finally:
            handle.stop()
            service_jobs._JOB_TYPES.pop("broken_schema_test", None)
            obs.reset()

    def test_slo_objectives_parse_from_tenants_file(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(
            '{"tenants": [{"name": "x", "key": "kx",'
            ' "slo": {"availability": 0.999, "latency_p95_s": 0.25}}]}'
        )
        registry = TenantRegistry.from_file(path)
        tenant = registry.authenticate("kx")
        assert tenant.slo_availability == pytest.approx(0.999)
        assert tenant.slo_latency_p95_s == pytest.approx(0.25)
        meter = SloMeter()
        meter.observe_request("x", 200, 0.01)
        report = meter.report(registry)["tenants"]["x"]
        assert report["objective"]["availability"] == \
            pytest.approx(0.999)
        assert report["objective"]["latency_p95_s"] == \
            pytest.approx(0.25)


# ----------------------------------------------------------------------
# Flight recorder at the service layer
# ----------------------------------------------------------------------

class TestServiceFlight:
    def test_unhandled_500_dumps_the_flight_ring(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STATE_DIR",
                           str(tmp_path / "obs-state"))
        obs.reset()
        register_job_type(
            "broken_schema_test", "schema blows up in validation",
            {"x": object()}, _broken_runner,
        )
        handle = start_in_thread(ServiceConfig(
            port=0, cache=str(tmp_path / "fl-cache"),
            tenants=_registry(),
        ))
        try:
            alice = ServiceClient(handle.base_url, "alice-key",
                                  timeout=60)
            alice.run("sleep_test", {"seconds": 0.01})
            with pytest.raises(ServiceApiError) as info:
                alice.submit("broken_schema_test", {})
            assert info.value.status == 500
            dumps = obs_flight.list_dumps()
            assert dumps, "an unhandled 500 must dump the flight ring"
            document = obs_flight.load_dump()
            assert document["reason"] == "service_500"
            assert document["context"]["path"] == "/v1/jobs"
            assert "AttributeError" in document["context"]["error"]
        finally:
            handle.stop()
            service_jobs._JOB_TYPES.pop("broken_schema_test", None)
            obs.reset()


# ----------------------------------------------------------------------
# /v1/metrics: stock-Prometheus scrapability
# ----------------------------------------------------------------------

class TestMetricsEndpoint:
    def test_process_gauges_always_scrapable(self, handle):
        client = ServiceClient(handle.base_url, "alice-key")
        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=30)
        try:
            connection.request(
                "GET", "/v1/metrics",
                headers={"Authorization": "Bearer alice-key"})
            response = connection.getresponse()
            body = response.read().decode("utf-8")
            assert response.status == 200
            assert response.getheader("Content-Type").startswith(
                "text/plain")
        finally:
            connection.close()
        assert "# TYPE process_uptime_seconds gauge" in body
        assert "# TYPE process_resident_memory_bytes gauge" in body
        assert "# TYPE process_open_fds gauge" in body


# ----------------------------------------------------------------------
# repro top
# ----------------------------------------------------------------------

class TestTopDashboard:
    def test_render_dashboard_frame(self):
        stats = {
            "uptime_s": 125.0, "draining": False,
            "jobs": {"completed": 3, "running": 1},
            "cache": {"entries": 5},
            "max_running": 2, "max_queued": 4,
        }
        slo = {"window_s": 125.0, "tenants": {"alice": {
            "requests": {"total": 10, "ok": 8, "throttled": 1,
                         "client_error": 0, "server_error": 1},
            "latency": {"p50_s": 0.01, "p95_s": 0.05, "p99_s": 0.09,
                        "mean_s": 0.02},
            "availability": 0.8889, "availability_met": False,
            "objective": {"availability": 0.99,
                          "latency_p95_s": 2.0},
            "error_budget": {"allowed": 0.09, "consumed": 1,
                             "remaining_fraction": -1.0},
            "usage": {"jobs_total": 4, "cache_hits": 1,
                      "wall_seconds": 1.25,
                      "by_type": {"sleep_test": 4},
                      "by_status": {"completed": 4}},
        }}}
        frame = render_dashboard(stats, slo)
        assert "repro top" in frame
        assert "up 2.1m" in frame
        assert "completed=3 running=1" in frame
        assert "alice" in frame
        assert "88.89%" in frame
        assert "!" in frame          # availability objective missed
        assert "sleep_test=4" in frame

    def test_render_dashboard_without_traffic(self):
        frame = render_dashboard(
            {"uptime_s": 5.0, "jobs": {}, "cache": {}},
            {"tenants": {}},
        )
        assert "(no tenant traffic yet)" in frame
        assert "jobs: none" in frame

    def test_cli_top_once(self, handle, capsys):
        from repro.cli import main

        client = ServiceClient(handle.base_url, "alice-key",
                               timeout=60)
        client.run("sleep_test", {"seconds": 0.01})
        assert main(["top", "--url", handle.base_url,
                     "--key", "alice-key", "--once"]) == 0
        output = capsys.readouterr().out
        assert "repro top" in output
        assert "alice" in output
