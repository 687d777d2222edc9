"""Multi-host backend: a stdlib-socket coordinator plus joinable workers.

The engine side (:class:`SocketClusterExecutor`) binds a TCP port and
accepts workers started with ``repro worker join <host:port>``
(:mod:`repro.engine.executors.worker`).  The protocol is length-prefixed
JSON frames (4-byte big-endian length, UTF-8 JSON body); binary values
(pickled payloads, cached result blobs) ride inside frames as base64.

Frame types
-----------
worker → coordinator: ``hello``, ``result``, ``cache_get``,
``cache_put``, ``ping``; coordinator → worker: ``welcome``, ``job``,
``cache_hit``, ``cache_miss``, ``pong``, ``shutdown``.

Fault model
-----------
One task is in flight per worker.  Workers heartbeat (``ping``) every
second; a worker that disconnects or goes silent past the dead-worker
window has its in-flight task requeued **exactly once** -- a second
loss converts the task to ``err`` outcomes so a poison job cannot
bounce around the cluster forever.  If no workers are connected for
``worker_wait_s``, pending work is surrendered via
:class:`~repro.engine.executors.base.ExecutorBroken` and the engine
degrades to serial.

Cache tier
----------
The coordinator exposes its :class:`~repro.engine.cache.ResultCache`
(shared index + shards) over ``cache_get``/``cache_put``: a worker
that misses locally asks the coordinator before computing, and ships
the digest-addressed blob back after computing, so one worker's miss
becomes every other worker's hit.  The engine's observability context
(including the W3C trace id) is pickled into each job frame, so spans
recorded on remote workers join the parent trace.
"""

import base64
import json
import pickle
import queue
import socket
import struct
import threading
import time
from collections import deque

from repro.engine.executors.base import (
    Executor,
    ExecutorBroken,
    register_executor,
)

#: Seconds between worker heartbeats.
HEARTBEAT_S = 1.0
#: A worker silent this long is declared dead (generous multiple of
#: the heartbeat so a busy host does not get its work stolen).
DEAD_AFTER_S = 30.0

_LEN = struct.Struct(">I")
#: Frames larger than this are protocol errors (64 MiB).
MAX_FRAME = 64 << 20


def send_frame(sock, obj, lock=None):
    """Serialize one frame; ``lock`` guards interleaved writers."""
    body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    data = _LEN.pack(len(body)) + body
    if lock is not None:
        with lock:
            sock.sendall(data)
    else:
        sock.sendall(data)


def _recv_exact(sock, count):
    chunks = []
    while count:
        chunk = sock.recv(count)
        if not chunk:
            raise EOFError("peer closed the connection")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock):
    """One decoded frame; raises ``EOFError`` on a closed peer."""
    (length,) = _LEN.unpack(_recv_exact(sock, _LEN.size))
    if length > MAX_FRAME:
        raise EOFError(f"oversized frame ({length} bytes)")
    return json.loads(_recv_exact(sock, length).decode("utf-8"))


def encode_blob(data):
    return base64.b64encode(data).decode("ascii")


def decode_blob(text):
    return base64.b64decode(text.encode("ascii"))


class _Task:
    __slots__ = ("task_id", "payload", "obs_ctx")

    def __init__(self, task_id, payload, obs_ctx):
        self.task_id = task_id
        self.payload = payload
        self.obs_ctx = obs_ctx


class _Worker:
    __slots__ = ("wid", "sock", "lock", "last_seen", "inflight", "info")

    def __init__(self, wid, sock, info):
        self.wid = wid
        self.sock = sock
        self.lock = threading.Lock()
        self.last_seen = time.monotonic()
        self.inflight = None  # _Task | None
        self.info = info


class SocketClusterExecutor(Executor):
    """Coordinator for ``repro worker join`` workers."""

    name = "socket"

    def __init__(self, bind="127.0.0.1:0", min_workers=1,
                 worker_wait_s=60.0, cache=None, workers=None,
                 pool_factory=None, dead_after_s=DEAD_AFTER_S):
        # ``workers``/``pool_factory`` are accepted for interface
        # parity with the other backends; cluster size is whatever
        # joins.  ``min_workers`` only gates how long submit-time
        # waits tolerate an empty cluster.
        host, _, port = str(bind).partition(":")
        self._bind = (host or "127.0.0.1", int(port or 0))
        self.min_workers = max(1, int(min_workers))
        self.worker_wait_s = worker_wait_s
        self.dead_after_s = dead_after_s
        self.cache = cache
        self._listener = None
        self._accept_thread = None
        self._lock = threading.Lock()
        self._workers = {}            # wid -> _Worker
        self._next_wid = 0
        self._pending = deque()       # _Task
        self._results = queue.Queue()  # (task_id, outcomes, obs_payload)
        self._requeued = set()
        self._closing = False
        self._started_at = None
        self._last_worker_at = None
        self.requeues = 0
        self.remote_cache_hits = 0
        self.local_cache_hits = 0
        self.remote_computed = 0

    # -- lifecycle -----------------------------------------------------

    def start(self):
        if self._listener is not None:
            return
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(self._bind)
        listener.listen(16)
        self._listener = listener
        self._started_at = time.monotonic()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-cluster-accept",
            daemon=True,
        )
        self._accept_thread.start()

    @property
    def address(self):
        """``(host, port)`` the coordinator listens on (after start)."""
        self.start()
        return self._listener.getsockname()

    @property
    def workers(self):
        with self._lock:
            return len(self._workers)

    # -- accept / per-worker handler ----------------------------------

    def _accept_loop(self):
        while not self._closing:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._serve_worker, args=(sock,),
                name="repro-cluster-worker", daemon=True,
            ).start()

    def _serve_worker(self, sock):
        try:
            hello = recv_frame(sock)
        except (EOFError, OSError, ValueError):
            sock.close()
            return
        if hello.get("type") != "hello":
            sock.close()
            return
        with self._lock:
            wid = self._next_wid
            self._next_wid += 1
            worker = _Worker(wid, sock, {
                "pid": hello.get("pid"),
                "host": hello.get("host"),
                "has_cache": bool(hello.get("cache")),
            })
            self._workers[wid] = worker
            self._last_worker_at = time.monotonic()
        send_frame(sock, {"type": "welcome", "worker_id": wid},
                   lock=worker.lock)
        self._dispatch()
        try:
            while not self._closing:
                frame = recv_frame(sock)
                worker.last_seen = time.monotonic()
                self._handle_frame(worker, frame)
        except (EOFError, OSError, ValueError):
            pass
        finally:
            self._worker_died(worker)

    def _handle_frame(self, worker, frame):
        kind = frame.get("type")
        if kind == "result":
            self._handle_result(worker, frame)
        elif kind == "cache_get":
            self._handle_cache_get(worker, frame)
        elif kind == "cache_put":
            self._handle_cache_put(frame)
        elif kind == "ping":
            send_frame(worker.sock, {"type": "pong"}, lock=worker.lock)

    def _handle_result(self, worker, frame):
        with self._lock:
            task = worker.inflight
            worker.inflight = None
        if task is None or task.task_id != frame.get("task_id"):
            return  # stale result from a task already requeued
        if "error" in frame:
            outcomes = [("err", frame["error"], "")
                        for _ in task.payload]
            obs_payload = None
        else:
            try:
                outcomes, obs_payload = pickle.loads(
                    decode_blob(frame["blob"])
                )
            except Exception as exc:
                outcomes = [(
                    "err", f"undecodable result: {exc}", "",
                ) for _ in task.payload]
                obs_payload = None
        self.local_cache_hits += int(frame.get("local_hits", 0))
        self.remote_cache_hits += int(frame.get("remote_hits", 0))
        self.remote_computed += int(frame.get("computed", 0))
        self._results.put((task.task_id, outcomes, obs_payload))
        self._dispatch()

    def _handle_cache_get(self, worker, frame):
        blob = None
        if self.cache is not None:
            # The shared index tier says which function/shard recorded
            # the digest; the frame's fn is only a fallback probe.
            _fn, blob = self.cache.shared_lookup(
                frame.get("key"), fn_name=frame.get("fn")
            )
        if blob is None:
            reply = {"type": "cache_miss", "rpc": frame.get("rpc")}
        else:
            reply = {"type": "cache_hit", "rpc": frame.get("rpc"),
                     "blob": encode_blob(blob)}
        send_frame(worker.sock, reply, lock=worker.lock)

    def _handle_cache_put(self, frame):
        if self.cache is None:
            return
        try:
            self.cache.put_blob(
                frame.get("fn"), frame.get("key"),
                decode_blob(frame["blob"]), meta=frame.get("meta"),
            )
        except Exception:
            pass  # a failed share-back never fails the job

    # -- scheduling ----------------------------------------------------

    def submit(self, task_id, payload, obs_ctx=None):
        self.start()
        with self._lock:
            self._pending.append(_Task(task_id, payload, obs_ctx))
        self._dispatch()

    def _dispatch(self):
        sends = []
        with self._lock:
            for worker in self._workers.values():
                if worker.inflight is not None:
                    continue
                if not self._pending:
                    break
                task = self._pending.popleft()
                worker.inflight = task
                sends.append((worker, task))
        for worker, task in sends:
            blob = encode_blob(pickle.dumps(
                (task.payload, task.obs_ctx), pickle.HIGHEST_PROTOCOL
            ))
            try:
                send_frame(worker.sock, {
                    "type": "job", "task_id": task.task_id, "blob": blob,
                }, lock=worker.lock)
            except (OSError, ValueError):
                self._worker_died(worker)

    def _worker_died(self, worker):
        with self._lock:
            if self._workers.pop(worker.wid, None) is None:
                return  # already reaped by another path
            task, worker.inflight = worker.inflight, None
        try:
            worker.sock.close()
        except OSError:
            pass
        if task is None:
            self._dispatch()
            return
        if task.task_id in self._requeued:
            self._results.put((
                task.task_id,
                [("err", "socket worker died (twice) running job", "")
                 for _ in task.payload],
                None,
            ))
        else:
            self._requeued.add(task.task_id)
            self.requeues += 1
            with self._lock:
                self._pending.appendleft(task)
        self._dispatch()

    def _reap_silent_workers(self):
        now = time.monotonic()
        stale = [
            worker for worker in list(self._workers.values())
            if now - worker.last_seen > self.dead_after_s
        ]
        for worker in stale:
            self._worker_died(worker)

    def next_result(self, timeout):
        try:
            return self._results.get(timeout=timeout)
        except queue.Empty:
            pass
        self._reap_silent_workers()
        with self._lock:
            outstanding = bool(self._pending) or any(
                w.inflight is not None for w in self._workers.values()
            )
            have_workers = bool(self._workers)
        if outstanding and not have_workers:
            anchor = max(self._started_at or 0.0,
                         self._last_worker_at or 0.0)
            if time.monotonic() - anchor > self.worker_wait_s:
                raise ExecutorBroken(
                    f"no workers joined within {self.worker_wait_s:.0f}s",
                    lost=self._drain_lost(),
                )
        return None

    def _drain_lost(self):
        with self._lock:
            lost = [task.task_id for task in self._pending]
            self._pending.clear()
            for worker in self._workers.values():
                if worker.inflight is not None:
                    lost.append(worker.inflight.task_id)
                    worker.inflight = None
        return lost

    def shutdown(self):
        self._closing = True
        with self._lock:
            workers = list(self._workers.values())
            self._workers.clear()
        for worker in workers:
            try:
                send_frame(worker.sock, {"type": "shutdown"},
                           lock=worker.lock)
            except (OSError, ValueError):
                pass
            try:
                worker.sock.close()
            except OSError:
                pass
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None

    def describe(self):
        with self._lock:
            members = [dict(w.info, worker_id=w.wid,
                            busy=w.inflight is not None)
                       for w in self._workers.values()]
        stats = {
            "executor": self.name,
            "workers": len(members),
            "members": members,
            "requeues": self.requeues,
            "remote_cache_hits": self.remote_cache_hits,
            "local_cache_hits": self.local_cache_hits,
            "remote_computed": self.remote_computed,
        }
        if self._listener is not None:
            stats["bind"] = "%s:%d" % self._listener.getsockname()[:2]
        return stats


register_executor("socket", SocketClusterExecutor)
