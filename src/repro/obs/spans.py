"""Hierarchical spans with wall/CPU timing, across process boundaries.

A span is a named region of work::

    with span("yield.wafer", wafer=3):
        ...

Spans nest through a :mod:`contextvars` variable, so a span opened
inside an engine job automatically hangs under the job's span.  The
whole machinery is off by default: with tracing disabled, ``span()``
returns a shared no-op context manager after a single module-global
check.

Crossing the process pool
-------------------------
A live span cannot be pickled, but its *context* -- the trace id plus
the would-be parent's span id -- is two strings.  The engine ships that
context to its workers (:func:`trace_context` ->
:func:`activate_worker`), each worker records spans locally, and the
parent adopts the serialized records afterwards
(:func:`drain_spans` -> :func:`adopt_spans`).  Span ids are prefixed
with the producing pid, so ids never collide across processes and the
assembled tree renders parent and workers as one trace.
"""

import itertools
import os
import time
import uuid
from contextvars import ContextVar

_TRACING = False
_trace_id = None
_process = "main"
_root_parent = None      # parent id grafted onto worker-side roots
_finished = []           # finished span record dicts, in close order
_ids = itertools.count(1)
_current = ContextVar("repro_obs_span", default=None)
#: Per-task/thread (trace_id, parent_span_id) override of the globals.
#: The service sets this for each HTTP request so concurrent jobs keep
#: distinct W3C trace ids while sharing one process-wide span buffer.
_ctx_trace = ContextVar("repro_obs_trace", default=None)
_sinks = []              # callables fed each finished span record


def tracing_enabled():
    return _TRACING


# ----------------------------------------------------------------------
# W3C-style trace identity.
# ----------------------------------------------------------------------

def new_trace_id():
    """A fresh 32-hex-char trace id (W3C ``trace-id`` width)."""
    return uuid.uuid4().hex


def parse_traceparent(header):
    """``(trace_id, parent_id)`` from a W3C ``traceparent``, or None.

    Accepts ``00-<32 hex>-<16 hex>-<2 hex>``; rejects the all-zero
    trace id per the spec.  Malformed headers are ignored (a service
    should mint a fresh trace rather than fail the request).
    """
    if not isinstance(header, str):
        return None
    parts = header.strip().lower().split("-")
    if len(parts) < 4 or parts[0] != "00":
        return None
    trace_id, parent_id = parts[1], parts[2]
    if len(trace_id) != 32 or len(parent_id) != 16:
        return None
    try:
        int(trace_id, 16)
        int(parent_id, 16)
        int(parts[3], 16)
    except ValueError:
        return None
    if trace_id == "0" * 32 or parent_id == "0" * 16:
        return None
    return (trace_id, parent_id)


def format_traceparent(trace_id, span_id=None):
    """Render a W3C ``traceparent`` header value for ``trace_id``."""
    parent = (span_id or "").replace(":", "")
    parent = (parent[-16:] if parent else uuid.uuid4().hex[:16]).zfill(16)
    trace = (trace_id or new_trace_id())[:32].zfill(32)
    return f"00-{trace}-{parent}-01"


def push_trace(trace_id, parent_id=None):
    """Bind a trace identity to the current thread/task.

    Returns a token for :func:`pop_trace`.  While bound, spans record
    ``trace_id`` (instead of the process-global id) and new root spans
    parent under ``parent_id``.
    """
    return _ctx_trace.set((trace_id, parent_id))


def pop_trace(token):
    _ctx_trace.reset(token)


def current_trace_id():
    """The trace id in effect here: context binding, else the global."""
    bound = _ctx_trace.get()
    if bound is not None:
        return bound[0]
    return _trace_id


def start_tracing(trace_id=None, parent_id=None, process=None):
    """Enable span recording (idempotent; resets collected spans).

    The span-id counter is *not* reset: a pool worker is re-activated
    once per job, and ids must stay unique across activations of the
    same process or the assembled tree would alias spans.
    """
    global _TRACING, _trace_id, _root_parent, _process
    _TRACING = True
    _trace_id = trace_id or uuid.uuid4().hex[:16]
    _root_parent = parent_id
    if process is not None:
        _process = process
    _finished.clear()
    return _trace_id


def enable_tracing(process=None):
    """Turn span recording on *without* discarding collected spans.

    Unlike :func:`start_tracing` this is safe to call on a process that
    is already collecting: the buffer and trace id survive, so a
    long-lived service can flip tracing on at boot and keep per-request
    identities via :func:`push_trace`.  Returns the global trace id.
    """
    global _TRACING, _trace_id
    _TRACING = True
    if _trace_id is None:
        _trace_id = new_trace_id()
    if process is not None:
        global _process
        _process = process
    return _trace_id


def stop_tracing():
    global _TRACING
    _TRACING = False


def reset_spans():
    global _TRACING, _trace_id, _root_parent, _process
    _TRACING = False
    _trace_id = None
    _root_parent = None
    _process = "main"
    _finished.clear()
    _current.set(None)
    _ctx_trace.set(None)


def add_span_sink(callback):
    """Feed every finished span record to ``callback`` (idempotent)."""
    if callback not in _sinks:
        _sinks.append(callback)


def trace_context():
    """(trace_id, parent span id) to ship to a worker, or None."""
    if not _TRACING:
        return None
    active = _current.get()
    bound = _ctx_trace.get()
    trace = bound[0] if bound is not None else _trace_id
    if active is not None:
        parent = active.id
    elif bound is not None:
        parent = bound[1]
    else:
        parent = _root_parent
    return (trace, parent)


def activate_worker(context, process=None):
    """Adopt a shipped trace context inside a worker process.

    Resets the local span buffer (a forked worker inherits the
    parent's), so :func:`drain_spans` returns only this activation's
    records.
    """
    trace_id, parent_id = context
    start_tracing(
        trace_id=trace_id, parent_id=parent_id,
        process=process or f"worker-{os.getpid()}",
    )


def drain_spans():
    """Remove and return every finished span record."""
    records = list(_finished)
    _finished.clear()
    return records


def collected_spans():
    """The finished span records, without draining them."""
    return list(_finished)


def adopt_spans(records):
    """Graft records drained in another process into this collection."""
    records = records or []
    _finished.extend(records)
    for sink in list(_sinks):
        for record in records:
            try:
                sink(record)
            except Exception:
                pass


def drain_trace(trace_id):
    """Remove and return the finished records belonging to one trace.

    Lets the service harvest exactly the spans of a completed job from
    the shared buffer without disturbing concurrent requests' spans.
    """
    if trace_id is None:
        return []
    kept, mine = [], []
    for record in _finished:
        (mine if record.get("trace") == trace_id else kept).append(record)
    _finished[:] = kept
    return mine


class span:
    """Context manager recording one span (no-op unless tracing)."""

    __slots__ = ("name", "attrs", "id", "_parent", "_token",
                 "_start", "_wall0", "_cpu0")

    def __init__(self, name, **attrs):
        self.name = name
        self.attrs = attrs
        self.id = None

    def __enter__(self):
        if not _TRACING:
            return self
        parent = _current.get()
        if parent is not None:
            self._parent = parent.id
        else:
            bound = _ctx_trace.get()
            self._parent = bound[1] if bound is not None else _root_parent
        self.id = f"{os.getpid()}:{next(_ids)}"
        self._token = _current.set(self)
        self._start = time.time()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.id is None:
            return False
        _current.reset(self._token)
        bound = _ctx_trace.get()
        record = {
            "name": self.name,
            "id": self.id,
            "parent": self._parent,
            "trace": bound[0] if bound is not None else _trace_id,
            "process": _process,
            "pid": os.getpid(),
            "start": self._start,
            "wall_s": time.perf_counter() - self._wall0,
            "cpu_s": time.process_time() - self._cpu0,
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        if self.attrs:
            record["attrs"] = {
                key: value if isinstance(
                    value, (bool, int, float, str, type(None))
                ) else str(value)
                for key, value in self.attrs.items()
            }
        _finished.append(record)
        for sink in list(_sinks):
            try:
                sink(record)
            except Exception:
                pass
        self.id = None
        return False

    def set(self, **attrs):
        """Attach attributes to an open span (no-op when disabled)."""
        if self.id is not None:
            self.attrs.update(attrs)
        return self


# ----------------------------------------------------------------------
# Renderers.
# ----------------------------------------------------------------------

def render_tree(records, width=52):
    """Indented span tree with wall/CPU timings and owning process."""
    if not records:
        return "(no spans recorded)"
    by_id = {record["id"]: record for record in records}
    children = {}
    roots = []
    for record in records:
        parent = record.get("parent")
        if parent in by_id:
            children.setdefault(parent, []).append(record)
        else:
            roots.append(record)
    roots.sort(key=lambda r: r.get("start", 0.0))

    lines = [f"{'span':<{width}} {'wall':>9} {'cpu':>9}  process"]
    def walk(record, depth):
        label = "  " * depth + record["name"]
        attrs = record.get("attrs") or {}
        if attrs:
            label += " (" + ", ".join(
                f"{key}={value}" for key, value in sorted(attrs.items())
            ) + ")"
        if len(label) > width:
            label = label[: width - 1] + "…"
        error = " !" + record["error"] if record.get("error") else ""
        lines.append(
            f"{label:<{width}} {record['wall_s']:8.3f}s "
            f"{record['cpu_s']:8.3f}s  {record['process']}{error}"
        )
        for child in sorted(
            children.get(record["id"], ()),
            key=lambda r: r.get("start", 0.0),
        ):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


def to_chrome(records):
    """Chrome ``trace_event`` document (load in about://tracing)."""
    events = []
    tids = {}
    for record in records or []:
        process = record.get("process", "main")
        tids.setdefault(process, len(tids) + 1)
    for process, tid in tids.items():
        events.append({
            "name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
            "args": {"name": process},
        })
    for record in records or []:
        events.append({
            "name": record.get("name", "?"),
            "cat": "repro",
            "ph": "X",
            "pid": 1,
            "tid": tids.get(record.get("process", "main"), 1),
            "ts": record.get("start", 0.0) * 1e6,
            "dur": record.get("wall_s", 0.0) * 1e6,
            "args": dict(record.get("attrs") or {},
                         cpu_s=record.get("cpu_s", 0.0),
                         span_id=record.get("id"),
                         parent=record.get("parent")),
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
