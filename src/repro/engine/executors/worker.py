"""The ``repro worker join`` process: one cluster crew member.

Connects to a :class:`~repro.engine.executors.socketcluster.\
SocketClusterExecutor` coordinator, heartbeats once a second from a
background thread, and executes one job frame at a time through
:func:`~repro.engine.executors.base.execute_payload`, the entry point
pool workers use.  Workers keep no cache: the coordinating engine
looks every job up before dispatch and stores each result as it lands.
Jobs are pickled by reference, so a worker must run the coordinator's
checkout.

The job frame carries the engine's observability context; spans and
metric deltas recorded here travel back in the result frame, which is
how a cross-node trace renders as one tree in ``repro client trace``.
"""

import os
import pickle
import socket
import threading

from repro.engine.executors.base import execute_payload
from repro.engine.executors.socketcluster import (
    HEARTBEAT_S,
    decode_blob,
    encode_blob,
    recv_frame,
    send_frame,
)


def _run_job_frame(frame):
    """Execute one job frame; returns the result frame to send."""
    task_id = frame.get("task_id")
    try:
        payload, obs_ctx = pickle.loads(decode_blob(frame["blob"]))
    except Exception as exc:
        return {
            "type": "result", "task_id": task_id,
            "error": f"worker could not decode job: "
                     f"{type(exc).__name__}: {exc}",
        }
    return {
        "type": "result", "task_id": task_id,
        "blob": encode_blob(pickle.dumps(
            execute_payload(payload, obs_ctx, where="socket"),
            pickle.HIGHEST_PROTOCOL,
        )),
    }


def run_worker(host, port, heartbeat_s=HEARTBEAT_S, on_event=None):
    """Join a coordinator and serve jobs until it shuts us down.

    ``on_event(kind, detail)`` (optional) observes lifecycle moments
    (``joined``, ``job``, ``shutdown``) -- the CLI prints them.
    Returns the number of job frames served.
    """
    notify = on_event or (lambda kind, detail: None)
    sock = socket.create_connection((host, int(port)))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    write_lock = threading.Lock()

    def send(frame):
        send_frame(sock, frame, lock=write_lock)

    send({"type": "hello", "pid": os.getpid(),
          "host": socket.gethostname()})

    stop = threading.Event()

    def _pinger():
        while not stop.wait(heartbeat_s):
            try:
                send({"type": "ping"})
            except OSError:
                return

    threading.Thread(target=_pinger, name="repro-worker-ping",
                     daemon=True).start()

    served = 0
    try:
        while True:
            try:
                frame = recv_frame(sock)
            except (EOFError, OSError):
                break
            kind = frame.get("type")
            if kind == "welcome":
                notify("joined", {"worker_id": frame.get("worker_id")})
            elif kind == "job":
                try:
                    send(_run_job_frame(frame))
                except OSError:
                    break  # coordinator went away mid-job
                served += 1
                notify("job", {"task_id": frame.get("task_id")})
            elif kind == "shutdown":
                notify("shutdown", {})
                break
    finally:
        stop.set()
        try:
            sock.close()
        except OSError:
            pass
    return served
