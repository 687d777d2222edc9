"""Graceful SIGINT/SIGTERM shutdown for engine-backed runs.

Without this, a Ctrl-C in the middle of a campaign lands as a
``KeyboardInterrupt`` at an arbitrary bytecode: pool workers can be
left mid-job, the last-run snapshot never gets written, and whatever
the observability layer collected dies with the process.

:func:`install` converts the *first* signal into a cooperative
cancellation instead:

1. every engine that is mid-run gets :meth:`~Engine.cancel`, so blocked
   result waits wake up, pending jobs are cancelled, and the run
   raises :class:`~repro.engine.scheduler.EngineCancelled` through its
   ``finally`` block -- which persists the last-run metrics and shuts
   the worker pool down on the way out;
2. the collected observability snapshot (metrics + spans) is flushed to
   the state directory so ``repro obs`` still works after the abort.

A *second* signal (or a signal arriving while no engine is running)
restores the previous handlers and re-raises, giving the default
behavior -- Ctrl-C twice still kills a hung process immediately.
"""

import signal
import threading

#: {signum: previous handler} while our handlers are installed.
_installed = {}
_lock = threading.Lock()

DEFAULT_SIGNALS = (signal.SIGINT, signal.SIGTERM)


def install(signums=DEFAULT_SIGNALS):
    """Install the cooperative handlers (idempotent; main thread only).

    Returns the list of signal numbers actually taken over -- empty
    when called off the main thread, where ``signal.signal`` is
    unavailable and the default behavior is kept.
    """
    taken = []
    with _lock:
        for signum in signums:
            if signum in _installed:
                taken.append(signum)
                continue
            try:
                previous = signal.signal(signum, _handle)
            except (ValueError, OSError):  # not the main thread
                continue
            _installed[signum] = previous
            taken.append(signum)
    return taken


def uninstall():
    """Restore whatever handlers :func:`install` replaced."""
    with _lock:
        for signum, previous in list(_installed.items()):
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):
                pass
            del _installed[signum]


def installed():
    """Signal numbers currently owned by this module."""
    with _lock:
        return sorted(_installed)


def _handle(signum, frame):
    from repro.engine.scheduler import cancel_all_engines

    cancelled = cancel_all_engines()
    flush_observability()
    if not cancelled:
        # Nothing to wind down (or the user insists): fall back to the
        # default behavior immediately.  ``uninstall`` also covers the
        # the-user-insists case -- a second signal finds the original
        # handlers and terminates the process the normal way.
        uninstall()
        signal.raise_signal(signum)


def flush_observability():
    """Persist whatever the observability layer collected so far.

    Best-effort by design: a flush failure must never mask the
    shutdown path that triggered it.
    """
    try:
        from repro import obs

        if obs.active() or obs.tracing_enabled():
            obs.persist_snapshot()
    except Exception:
        pass
