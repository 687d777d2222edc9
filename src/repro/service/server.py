"""The fab-as-a-service HTTP server: asyncio front, engine back.

Two layers, both in this module because they ship as one unit:

:class:`JobService`
    Transport-agnostic core.  Owns the shared
    :class:`~repro.engine.ResultCache`, the artifact store, the job
    store, and a thread pool of ``max_running`` executor slots; admits
    submissions through the tenant's token bucket, its concurrent-job
    quota, and a global backlog bound; executes each job on its own
    :class:`~repro.engine.Engine` bound to the shared cache; and taps
    the :mod:`repro.obs.bridge` subscription stream to attribute
    engine progress events to the job that caused them.

:class:`ServiceServer`
    A deliberately small HTTP/1.1 layer on ``asyncio.start_server`` --
    JSON in, JSON out, ``Connection: close`` on every response, NDJSON
    long-poll streaming for ``/v1/jobs/{id}/events``.  No third-party
    web framework; the whole protocol surface is in this file.

The event-stream thread model: executor threads run jobs (and the
engine hooks fire in those same threads, because ``Engine.run`` is
called there); the asyncio thread serves sockets and never blocks on
job state except through ``run_in_executor`` on the *default* loop
executor -- never on the job pool, which would deadlock a full queue.
"""

import asyncio
import json
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional
from urllib.parse import parse_qs, urlsplit

from repro import obs
from repro.engine import EngineCancelled, ResultCache
from repro.obs import bridge
from repro.obs import flight
from repro.obs import spans as obs_spans
from repro.obs.logging import get_logger
from repro.service.artifacts import ARTIFACTS_DIRNAME, ArtifactStore
from repro.service.slo import SloMeter
from repro.service.jobs import (
    JobContext,
    ValidationError,
    describe_job_types,
    get_job_type,
    validate_params,
)
from repro.service.state import (
    CANCELLED,
    COMPLETED,
    FAILED,
    RUNNING,
    JobRecord,
    JobStore,
)
from repro.service.tenants import DEV_TENANT_KEY, TenantRegistry

_log = get_logger("repro.service")

#: Largest accepted request body (a submission document is tiny).
MAX_BODY_BYTES = 256 * 1024

#: How long one ``/events`` long-poll slice blocks before re-checking
#: for client disconnect / service shutdown.
EVENT_POLL_S = 1.0


class ServiceError(Exception):
    """An HTTP-mappable service failure."""

    def __init__(self, status, code, message, retry_after=None):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after = retry_after

    def to_doc(self):
        doc = {"error": self.code, "message": self.message}
        if self.retry_after is not None:
            doc["retry_after_s"] = round(self.retry_after, 3)
        return doc


@dataclass
class ServiceConfig:
    """Everything a :class:`JobService` needs to know."""

    host: str = "127.0.0.1"
    port: int = 8321
    #: ``None`` -> the single development tenant.
    tenants: Optional[TenantRegistry] = None
    #: Cache root path or a ready :class:`ResultCache`; ``None`` uses
    #: the default directory ($REPRO_CACHE_DIR / .repro-cache).
    cache: object = None
    #: Worker processes per job's engine (1 = inline in the executor
    #: thread; fine for small studies, no pool startup cost).
    engine_jobs: int = 1
    #: Executor threads = jobs running concurrently (across tenants).
    max_running: int = 2
    #: Admitted-but-not-running jobs beyond the running set; past
    #: this the service answers 429 with Retry-After.
    max_queued: int = 8
    max_records: int = 4096
    #: Turn on the obs metrics registry for request/job accounting.
    metrics: bool = False
    #: Record spans per request/job (the ``/v1/jobs/{id}/trace`` view).
    tracing: bool = True
    #: Most span records kept per job for the trace endpoint.
    max_trace_spans: int = 1024
    #: Seconds a graceful drain waits for in-flight jobs.
    drain_grace_s: float = 30.0


class JobService:
    """The transport-agnostic service core."""

    def __init__(self, config=None):
        self.config = config or ServiceConfig()
        self.tenants = self.config.tenants or TenantRegistry.development()
        cache = self.config.cache
        if not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        self.artifacts = ArtifactStore(cache.root / ARTIFACTS_DIRNAME)
        self.store = JobStore(max_records=self.config.max_records)
        self.started = time.time()
        self.draining = False
        self._executor = ThreadPoolExecutor(
            max_workers=max(1, self.config.max_running),
            thread_name_prefix="repro-job",
        )
        self._local = threading.local()
        self.slo = SloMeter()
        self._bridge_token = bridge.subscribe(self._on_engine_event)
        self._was_metrics_active = obs.active()
        if self.config.metrics and not self._was_metrics_active:
            obs.configure(metrics=True)
        self._was_tracing = obs.tracing_enabled()
        if self.config.tracing and not self._was_tracing:
            obs.enable_tracing()
        self._closed = False

    # -- engine event attribution --------------------------------------

    def _on_engine_event(self, event, payload):
        """Bridge tap: runs in whichever thread called ``Engine.run``
        (a job executor thread here), so the thread-local names the
        record the event belongs to.  Events from engines the service
        did not start (another thread of the same process) carry no
        record and are ignored."""
        record = getattr(self._local, "record", None)
        if record is None:
            return
        if event == "job_done":
            record.emit(
                "engine_job", label=payload.get("label"),
                status=payload.get("status"),
                where=payload.get("where"),
                elapsed_s=round(payload.get("elapsed_s", 0.0), 6),
            )
        elif event == "stage_done":
            record.emit(
                "engine_stage", stage=payload.get("stage"),
                jobs=payload.get("jobs"),
                cache_hits=payload.get("cache_hits"),
                wall_s=round(payload.get("wall_s", 0.0), 6),
            )
        elif event in ("degraded", "cancelled"):
            record.emit("engine_" + event,
                        reason=payload.get("reason"))

    # -- admission -----------------------------------------------------

    def authenticate(self, key):
        """Tenant for ``key`` or :class:`ServiceError` 401."""
        tenant = self.tenants.authenticate(key)
        if tenant is None:
            raise ServiceError(
                401, "unauthorized",
                "missing or unknown API key "
                "(Authorization: Bearer <key>)",
            )
        return tenant

    def submit(self, tenant, jobtype_name, params, traceparent=None):
        """Admit and queue one job; returns the :class:`JobRecord`.

        Admission order matters: drain first (503 regardless of who
        asks), then the tenant's own rate/quota (429/403 hurt only the
        noisy tenant), then the global backlog bound (429) -- so one
        tenant hitting its quota never consumes global queue space.
        """
        if self.draining or self._closed:
            raise ServiceError(
                503, "draining", "service is shutting down",
                retry_after=self.config.drain_grace_s,
            )
        granted, retry_after = tenant.bucket.try_acquire()
        if not granted:
            self._count_rejection(tenant, "rate_limited")
            raise ServiceError(
                429, "rate_limited",
                f"tenant {tenant.name!r} exceeded "
                f"{tenant.rate:g} submissions/s",
                retry_after=retry_after,
            )
        if self.store.active_count(tenant.name) >= tenant.max_active:
            self._count_rejection(tenant, "quota_exceeded")
            raise ServiceError(
                403, "quota_exceeded",
                f"tenant {tenant.name!r} already has "
                f"{tenant.max_active} active job(s)",
            )
        capacity = self.config.max_running + self.config.max_queued
        if self.store.active_count() >= capacity:
            self._count_rejection(tenant, "backlog_full")
            raise ServiceError(
                429, "backlog_full",
                f"service backlog is full ({capacity} active jobs)",
                retry_after=5.0,
            )
        jobtype = get_job_type(jobtype_name)
        normalized = validate_params(jobtype.schema, params or {})
        record = JobRecord(tenant.name, jobtype.name, normalized)
        if self.config.tracing:
            parsed = obs_spans.parse_traceparent(traceparent)
            if parsed is not None:
                record.trace_id, record.parent_span_id = parsed
            else:
                record.trace_id = obs_spans.new_trace_id()
            record.traceparent = obs_spans.format_traceparent(
                record.trace_id, record.parent_span_id
            )
        self.store.add(record)
        record.emit("queued", type=record.type, tenant=tenant.name,
                    trace_id=record.trace_id)
        record.future = self._executor.submit(self._execute, record)
        if obs.active():
            obs.registry().counter(
                "service_jobs_submitted_total",
                "Jobs admitted by the service",
            ).inc(type=record.type, tenant=tenant.name)
        return record

    def _count_rejection(self, tenant, reason):
        if obs.active():
            obs.registry().counter(
                "service_rejections_total",
                "Submissions rejected at admission",
            ).inc(reason=reason, tenant=tenant.name)

    # -- execution -----------------------------------------------------

    def _execute(self, record):
        if record.cancel_requested:
            record.finished = time.time()
            record.set_status(CANCELLED)
            record.emit("cancelled", where="queue")
            return
        self._local.record = record
        record.started = time.time()
        record.set_status(RUNNING)
        record.emit("started")
        context = JobContext(
            record, self.cache, engine_jobs=self.config.engine_jobs,
        )
        status = FAILED
        trace_token = None
        if record.trace_id is not None:
            # Bind the request's trace to this executor thread: spans,
            # log records, and bridge events below all carry it, and
            # worker_context() ships it into pool workers.
            trace_token = obs_spans.push_trace(
                record.trace_id, record.parent_span_id
            )
        job_span = obs.span(
            "service.job",
            job=record.id, type=record.type, tenant=record.tenant,
        )
        job_span.__enter__()
        try:
            jobtype = get_job_type(record.type)
            result, artifacts = jobtype.runner(record.params, context)
            record.result = result
            record.cache_hit = context.cache_hit
            for name, content_type, payload in artifacts:
                record.artifacts.append(
                    self.artifacts.put(name, payload, content_type)
                )
            status = COMPLETED
            record.emit(
                "completed", cache_hit=record.cache_hit,
                artifacts=[a["digest"] for a in record.artifacts],
            )
        except EngineCancelled:
            status = CANCELLED
            record.error = "cancelled while running"
            record.emit("cancelled", where="running")
        except ValidationError as exc:
            record.error = str(exc)
            record.emit("failed", error=record.error)
        except Exception as exc:
            record.error = f"{type(exc).__name__}: {exc}"
            _log.warning(
                f"job {record.id} ({record.type}) failed: "
                f"{record.error}"
            )
            _log.debug(traceback.format_exc())
            record.emit("failed", error=record.error)
        finally:
            self._local.record = None
            record.engine = None
            record.finished = time.time()
            job_span.set(status=status)
            job_span.__exit__(None, None, None)
            if trace_token is not None:
                obs_spans.pop_trace(trace_token)
            if record.trace_id is not None:
                harvested = obs_spans.drain_trace(record.trace_id)
                record.spans = harvested[:self.config.max_trace_spans]
            record.set_status(status)
            wall_s = (record.finished - record.started
                      if record.started else 0.0)
            self.slo.account_job(
                record.tenant, record.type, status,
                record.cache_hit, wall_s,
            )
            if obs.active():
                registry = obs.registry()
                registry.counter(
                    "service_jobs_total", "Jobs by terminal status",
                ).inc(type=record.type, status=status)
                if record.cache_hit:
                    registry.counter(
                        "service_job_cache_hits_total",
                        "Jobs answered entirely from the result cache",
                    ).inc(type=record.type)
                registry.histogram(
                    "service_job_seconds", "Job wall time",
                ).observe(wall_s)

    def cancel(self, record):
        """Request cancellation; returns the record (idempotent)."""
        if record.terminal:
            return record
        record.cancel_requested = True
        record.emit("cancel_requested")
        future = getattr(record, "future", None)
        if future is not None and future.cancel():
            # Never started: the executor dropped it, so _execute will
            # not run to mark the terminal state.
            record.finished = time.time()
            record.set_status(CANCELLED)
            record.emit("cancelled", where="queue")
            return record
        engine = record.engine
        if engine is not None:
            engine.cancel()
        return record

    # -- introspection -------------------------------------------------

    def stats(self):
        records = self.store.all_records()
        by_status = {}
        for record in records:
            by_status[record.status] = by_status.get(record.status, 0) + 1
        return {
            "uptime_s": round(time.time() - self.started, 3),
            "draining": self.draining,
            "tenants": self.tenants.names(),
            "jobs": by_status,
            "max_running": self.config.max_running,
            "max_queued": self.config.max_queued,
            "engine": {
                "executor": "local",
                "jobs": self.config.engine_jobs,
            },
            "cache": self.cache.stats(),
        }

    # -- lifecycle -----------------------------------------------------

    def drain(self, grace_s=None):
        """Stop admitting; wait up to ``grace_s`` for in-flight jobs,
        then cancel whatever is left.  Returns the jobs still live
        after the grace period (cancelled, not awaited)."""
        self.draining = True
        grace_s = (self.config.drain_grace_s
                   if grace_s is None else grace_s)
        deadline = time.monotonic() + grace_s
        while time.monotonic() < deadline:
            if self.store.active_count() == 0:
                break
            time.sleep(0.05)
        leftovers = [
            record for record in self.store.all_records()
            if not record.terminal
        ]
        for record in leftovers:
            self.cancel(record)
        return leftovers

    def close(self, grace_s=0.0):
        """Drain (briefly by default), release every resource, and
        restore process-global state the service changed."""
        if self._closed:
            return
        self.drain(grace_s=grace_s)
        self._closed = True
        bridge.unsubscribe(self._bridge_token)
        self._executor.shutdown(wait=True, cancel_futures=True)
        if self.config.metrics and not self._was_metrics_active:
            obs.configure(metrics=False)
        if self.config.tracing and not self._was_tracing:
            obs.stop_tracing()


# ----------------------------------------------------------------------
# HTTP layer.
# ----------------------------------------------------------------------

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request",
    401: "Unauthorized", 403: "Forbidden", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class _Request:
    __slots__ = ("method", "path", "query", "headers", "body", "tenant")

    def __init__(self, method, path, query, headers, body):
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body
        self.tenant = None

    def json(self):
        if not self.body:
            raise ServiceError(400, "bad_request",
                               "expected a JSON body")
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise ServiceError(
                400, "bad_request", f"invalid JSON body: {exc}"
            ) from None


class ServiceServer:
    """asyncio HTTP front for one :class:`JobService`."""

    def __init__(self, service, host=None, port=None):
        self.service = service
        self.host = host if host is not None else service.config.host
        self.port = port if port is not None else service.config.port
        self._server = None

    async def start(self):
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.service.tenants.authenticate(DEV_TENANT_KEY):
            _log.warning(
                "development tenant active "
                "(key 'dev-local-key'); pass --tenants for real use"
            )
        _log.info(f"serving on http://{self.host}:{self.port}")
        return self

    @property
    def base_url(self):
        return f"http://{self.host}:{self.port}"

    async def aclose(self):
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self, stop_event=None):
        """Serve until ``stop_event`` (an :class:`asyncio.Event`) is
        set, then drain gracefully and close."""
        if stop_event is None:
            stop_event = asyncio.Event()
        async with self._server:
            await stop_event.wait()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, self.service.drain,
            self.service.config.drain_grace_s,
        )
        self.service.close(grace_s=0.0)

    # -- request plumbing ----------------------------------------------

    async def _handle_connection(self, reader, writer):
        started = time.perf_counter()
        route = "?"
        status = 500
        request = None
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            route, status = await self._dispatch(request, writer)
        except ServiceError as exc:
            status = exc.status
            await self._send_json(writer, exc.status, exc.to_doc(),
                                  retry_after=exc.retry_after)
        except (ConnectionResetError, BrokenPipeError):
            status = 499  # client went away mid-response
        except Exception as exc:
            _log.warning(f"request failed: {type(exc).__name__}: {exc}")
            _log.debug(traceback.format_exc())
            flight.dump("service_500", context={
                "route": route,
                "path": getattr(request, "path", None),
                "error": f"{type(exc).__name__}: {exc}",
            })
            try:
                await self._send_json(writer, 500, {
                    "error": "internal",
                    "message": f"{type(exc).__name__}: {exc}",
                })
            except (ConnectionResetError, BrokenPipeError):
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            elapsed = time.perf_counter() - started
            if request is not None:
                tenant_name = (request.tenant.name
                               if request.tenant is not None else None)
                self.service.slo.observe_request(
                    tenant_name, status, elapsed
                )
                if obs.active():
                    registry = obs.registry()
                    registry.counter(
                        "service_requests_total", "HTTP requests served",
                    ).inc(route=route, status=str(status),
                          tenant=tenant_name or "-")
                    registry.histogram(
                        "service_request_seconds",
                        "HTTP request latency",
                    ).observe(elapsed, tenant=tenant_name or "-")

    async def _read_request(self, reader):
        try:
            request_line = await reader.readline()
        except (ConnectionResetError, asyncio.LimitOverrunError):
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise ServiceError(400, "bad_request",
                               "malformed request line")
        method, target, _version = parts
        headers = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > MAX_BODY_BYTES:
            raise ServiceError(
                413, "too_large",
                f"body of {length} bytes exceeds {MAX_BODY_BYTES}",
            )
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = {
            key: values[-1]
            for key, values in parse_qs(split.query).items()
        }
        return _Request(method.upper(), split.path, query, headers, body)

    def _auth(self, request):
        auth = request.headers.get("authorization", "")
        key = auth[7:] if auth.lower().startswith("bearer ") else \
            request.headers.get("x-api-key", "")
        request.tenant = self.service.authenticate(key)
        return request.tenant

    async def _send_json(self, writer, status, document,
                         retry_after=None):
        body = (json.dumps(document, indent=2) + "\n").encode("utf-8")
        await self._send_raw(writer, status, "application/json", body,
                             retry_after=retry_after)

    async def _send_raw(self, writer, status, content_type, body,
                        retry_after=None):
        reason = _STATUS_TEXT.get(status, "Unknown")
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        if retry_after is not None:
            head.append(f"Retry-After: {max(1, int(retry_after + 0.999))}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(body)
        await writer.drain()

    # -- routing -------------------------------------------------------

    async def _dispatch(self, request, writer):
        """Route one request; returns (route label, status) for the
        metrics fold."""
        path = request.path
        method = request.method
        if path in ("/", "/healthz", "/v1/healthz"):
            await self._send_json(writer, 200, {
                "ok": True, "service": "repro",
                "draining": self.service.draining,
            })
            return "healthz", 200
        if not path.startswith("/v1/"):
            raise ServiceError(404, "not_found",
                               f"no such route {path!r}")
        self._auth(request)

        if path == "/v1/types" and method == "GET":
            await self._send_json(writer, 200,
                                  {"types": describe_job_types()})
            return "types", 200
        if path == "/v1/stats" and method == "GET":
            await self._send_json(writer, 200, self.service.stats())
            return "stats", 200
        if path == "/v1/slo" and method == "GET":
            await self._send_json(
                writer, 200,
                self.service.slo.report(self.service.tenants),
            )
            return "slo", 200
        if path == "/v1/metrics" and method == "GET":
            # Process gauges always; the full registry when metrics
            # collection is on.  Either way the output is stock
            # Prometheus text a scraper can ingest.
            obs.update_process_gauges()
            snapshot = obs.registry().snapshot()
            await self._send_raw(
                writer, 200, "text/plain; version=0.0.4",
                obs.render_prometheus(snapshot).encode("utf-8"),
            )
            return "metrics", 200
        if path == "/v1/jobs" and method == "POST":
            return await self._route_submit(request, writer)
        if path == "/v1/jobs" and method == "GET":
            docs = [
                record.to_doc(include_result=False)
                for record in
                self.service.store.for_tenant(request.tenant.name)
            ]
            await self._send_json(writer, 200, {"jobs": docs})
            return "jobs_list", 200
        if path.startswith("/v1/jobs/"):
            return await self._route_job(request, writer)
        if path.startswith("/v1/artifacts/") and method == "GET":
            return await self._route_artifact(request, writer)
        raise ServiceError(404, "not_found", f"no such route {path!r}")

    async def _route_submit(self, request, writer):
        document = request.json()
        if not isinstance(document, dict) or "type" not in document:
            raise ServiceError(
                400, "bad_request",
                'expected {"type": ..., "params": {...}}',
            )
        try:
            record = self.service.submit(
                request.tenant, document["type"],
                document.get("params") or {},
                traceparent=request.headers.get("traceparent"),
            )
        except ValidationError as exc:
            raise ServiceError(400, "invalid_params", str(exc)) \
                from None
        await self._send_json(writer, 202, record.to_doc())
        return "submit", 202

    def _record_or_404(self, request, job_id):
        record = self.service.store.get(
            job_id, tenant=request.tenant.name
        )
        if record is None:
            raise ServiceError(404, "not_found",
                               f"no such job {job_id!r}")
        return record

    async def _route_job(self, request, writer):
        tail = request.path[len("/v1/jobs/"):]
        job_id, _, action = tail.partition("/")
        if not action and request.method == "GET":
            record = self._record_or_404(request, job_id)
            await self._send_json(writer, 200, record.to_doc())
            return "job_get", 200
        if action == "cancel" and request.method == "POST":
            record = self._record_or_404(request, job_id)
            self.service.cancel(record)
            await self._send_json(writer, 202,
                                  record.to_doc(include_result=False))
            return "job_cancel", 202
        if action == "events" and request.method == "GET":
            record = self._record_or_404(request, job_id)
            await self._stream_events(request, writer, record)
            return "job_events", 200
        if action == "trace" and request.method == "GET":
            record = self._record_or_404(request, job_id)
            await self._route_trace(request, writer, record)
            return "job_trace", 200
        raise ServiceError(404, "not_found",
                           f"no such route {request.path!r}")

    async def _route_trace(self, request, writer, record):
        """The assembled span tree of one job (``?format=chrome`` for
        a Chrome ``trace_event`` document)."""
        if record.trace_id is None:
            raise ServiceError(
                404, "no_trace",
                f"job {record.id!r} carries no trace "
                "(service tracing is disabled)",
            )
        spans = list(record.spans)
        fmt = request.query.get("format", "tree")
        if fmt == "chrome":
            await self._send_json(
                writer, 200, obs_spans.to_chrome(spans)
            )
            return
        if fmt != "tree":
            raise ServiceError(400, "bad_request",
                               "format must be tree or chrome")
        await self._send_json(writer, 200, {
            "job": record.id,
            "status": record.status,
            "trace_id": record.trace_id,
            "traceparent": record.traceparent,
            "complete": record.terminal,
            "span_count": len(spans),
            "spans": spans,
            "tree": obs_spans.render_tree(spans)
            if spans else "(no spans recorded)",
        })

    async def _stream_events(self, request, writer, record):
        """NDJSON long-poll: one event per line from ``?since=N`` until
        the job reaches a terminal state (the closing connection is the
        end-of-stream marker)."""
        try:
            index = max(0, int(request.query.get("since", 0)))
        except ValueError:
            raise ServiceError(400, "bad_request",
                               "since must be an integer") from None
        writer.write((
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1"))
        await writer.drain()
        loop = asyncio.get_running_loop()
        while True:
            events = await loop.run_in_executor(
                None, record.events_since, index, EVENT_POLL_S
            )
            for event in events:
                writer.write(
                    (json.dumps(event) + "\n").encode("utf-8")
                )
            if events:
                index = events[-1]["seq"] + 1
                await writer.drain()
            elif record.terminal:
                break
            if self.service.draining and record.terminal:
                break

    async def _route_artifact(self, request, writer):
        digest = request.path[len("/v1/artifacts/"):]
        try:
            descriptor, data = self.service.artifacts.get(digest)
        except KeyError:
            raise ServiceError(
                404, "not_found", f"no such artifact {digest!r}"
            ) from None
        await self._send_raw(
            writer, 200,
            descriptor.get("content_type", "application/octet-stream"),
            data,
        )
        return "artifact", 200


# ----------------------------------------------------------------------
# Entry points.
# ----------------------------------------------------------------------

async def serve(config=None, stop_event=None, ready=None):
    """Run the service until ``stop_event``; SIGINT/SIGTERM also stop
    it (installed when the loop supports signal handlers)."""
    import signal as signal_module

    service = JobService(config)
    server = ServiceServer(service)
    await server.start()
    if ready is not None:
        ready(server)
    if stop_event is None:
        stop_event = asyncio.Event()
    loop = asyncio.get_running_loop()
    installed = []
    for signum in (signal_module.SIGINT, signal_module.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop_event.set)
            installed.append(signum)
        except (NotImplementedError, RuntimeError):
            break
    try:
        await server.serve_forever(stop_event)
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        await server.aclose()
        service.close(grace_s=0.0)


@dataclass
class ServiceHandle:
    """A service running on a daemon thread (tests, benchmarks)."""

    service: JobService
    server: ServiceServer
    thread: threading.Thread
    loop: asyncio.AbstractEventLoop
    stop_event: asyncio.Event = field(repr=False, default=None)

    @property
    def base_url(self):
        return self.server.base_url

    def stop(self):
        if self.thread.is_alive():
            self.loop.call_soon_threadsafe(self.stop_event.set)
            self.thread.join(timeout=30)
        self.service.close(grace_s=0.0)


def start_in_thread(config=None):
    """Start a full service + HTTP server on a background thread.

    Returns a :class:`ServiceHandle`; the caller owns ``handle.stop()``.
    Binds port 0 by default so parallel test runs never collide.
    """
    config = config or ServiceConfig(port=0)
    service = JobService(config)
    boot = {}
    booted = threading.Event()

    def _run():
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        stop_event = asyncio.Event()
        server = ServiceServer(service)

        async def _main():
            try:
                await server.start()
            except Exception as exc:
                boot["error"] = exc
                booted.set()
                return
            boot["server"] = server
            boot["stop_event"] = stop_event
            boot["loop"] = loop
            booted.set()
            await server.serve_forever(stop_event)
            await server.aclose()

        try:
            loop.run_until_complete(_main())
        finally:
            loop.close()

    thread = threading.Thread(
        target=_run, name="repro-service", daemon=True
    )
    thread.start()
    booted.wait(timeout=30)
    if "error" in boot:
        raise boot["error"]
    if "server" not in boot:
        raise RuntimeError("service failed to start within 30s")
    return ServiceHandle(
        service=service, server=boot["server"], thread=thread,
        loop=boot["loop"], stop_event=boot["stop_event"],
    )


__all__ = [
    "JobService", "ServiceConfig", "ServiceError", "ServiceHandle",
    "ServiceServer", "serve", "start_in_thread",
]
