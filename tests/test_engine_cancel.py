"""Engine cancellation, cache GC, and graceful signal shutdown."""

import os
import signal
import threading
import time

import pytest

from repro.engine import (
    Engine,
    EngineCancelled,
    Job,
    ResultCache,
    cancel_all_engines,
    job_function,
    live_engines,
    load_last_run,
)
from repro.engine import signals


@job_function("test.cancel_echo", version="1")
def cancel_echo_job(params, seed):
    return params["value"]


@job_function("test.cancel_sleep", version="1")
def cancel_sleep_job(params, seed):
    time.sleep(params.get("delay", 0.1))
    return params.get("value", 0)


class TestCancel:
    def test_cancel_before_run_refuses(self):
        engine = Engine(jobs=1, cache=None)
        assert engine.cancel() is True
        assert engine.cancel() is False  # already flagged
        with pytest.raises(EngineCancelled):
            engine.run([Job(cancel_echo_job, {"value": 1})])
        engine.uncancel()
        assert engine.run([Job(cancel_echo_job, {"value": 1})]) == [1]

    def test_cancel_mid_serial_run(self):
        engine = Engine(jobs=1, cache=None)

        def hook(event, payload):
            if event == "job_done":
                engine.cancel()

        engine.hooks.add(hook)
        jobs = [Job(cancel_echo_job, {"value": i}) for i in range(4)]
        with pytest.raises(EngineCancelled):
            engine.run(jobs)
        # The first job ran; cancellation stopped the rest.
        assert engine.metrics.jobs_completed == 1

    def test_cancel_wakes_parallel_wait(self):
        engine = Engine(jobs=2, cache=None)
        jobs = [Job(cancel_sleep_job, {"delay": 30.0, "value": i})
                for i in range(2)]
        timer = threading.Timer(0.4, engine.cancel)
        timer.start()
        started = time.monotonic()
        try:
            with pytest.raises(EngineCancelled):
                engine.run(jobs)
        finally:
            timer.cancel()
        # The blocked future wait polls the flag; nowhere near 30 s.
        assert time.monotonic() - started < 10.0
        assert not engine.running

    def test_cancelled_run_still_persists_metrics(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_STATE_DIR", str(tmp_path / "state"))
        engine = Engine(jobs=1, cache=tmp_path / "cache")

        def hook(event, payload):
            if event == "job_done":
                engine.cancel()

        engine.hooks.add(hook)
        jobs = [Job(cancel_echo_job, {"value": i}) for i in range(3)]
        with pytest.raises(EngineCancelled):
            engine.run(jobs, stage="abort-me")
        last = load_last_run()
        assert last is not None
        assert last["stages"][-1]["stage"] == "abort-me"

    def test_live_engines_and_cancel_all(self):
        engine = Engine(jobs=1, cache=None)
        seen = {}
        release = threading.Event()

        def hook(event, payload):
            if event == "job_done" and not seen:
                seen["live"] = engine in live_engines()
                release.wait(5)

        engine.hooks.add(hook)
        jobs = [Job(cancel_echo_job, {"value": i}) for i in range(2)]
        errors = []

        def run():
            try:
                engine.run(jobs)
            except EngineCancelled:
                errors.append("cancelled")

        thread = threading.Thread(target=run)
        thread.start()
        deadline = time.monotonic() + 5
        while "live" not in seen and time.monotonic() < deadline:
            time.sleep(0.01)
        assert seen.get("live") is True
        assert cancel_all_engines() == 1
        assert cancel_all_engines() == 0  # nothing newly cancelled
        release.set()
        thread.join(timeout=10)
        assert errors == ["cancelled"]
        assert engine not in live_engines()


class TestCacheGC:
    def _fill(self, cache, count):
        for index in range(count):
            cache.put("test.fn", f"{index:064x}",
                      {"payload": "x" * 100, "index": index})

    def _files(self, cache):
        return sorted(path.relative_to(cache.root).as_posix()
                      for path in cache.root.rglob("*")
                      if path.is_file())

    def test_stats_reports_cache_bytes(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        self._fill(cache, 3)
        stats = cache.stats()
        assert stats["cache_bytes"] == stats["bytes"] > 0
        assert stats["entries"] == 3

    def test_gc_evicts_lru_first(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        self._fill(cache, 4)
        now = time.time()
        for index in range(4):
            path = cache.root / "test.fn" / f"{index:064x}.pkl"
            os.utime(path, (now - 1000 + index, now - 1000 + index))
        entry_size = (cache.root / "test.fn" / f"{0:064x}.pkl") \
            .stat().st_size
        report = cache.gc(max_bytes=2 * entry_size)
        assert report["evicted_entries"] == 2
        assert report["after_bytes"] <= 2 * entry_size
        # Oldest two (0, 1) went; newest two (2, 3) survive with meta.
        for index, expected in enumerate([False, False, True, True]):
            pkl = cache.root / "test.fn" / f"{index:064x}.pkl"
            meta = cache.root / "test.fn" / f"{index:064x}.json"
            assert pkl.exists() is expected
            assert meta.exists() is expected

    def test_get_hit_refreshes_lru_clock(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        self._fill(cache, 2)
        old = time.time() - 1000
        for index in range(2):
            path = cache.root / "test.fn" / f"{index:064x}.pkl"
            os.utime(path, (old, old))
        hit, _ = cache.get("test.fn", f"{0:064x}")  # touch entry 0
        assert hit
        entry_size = (cache.root / "test.fn" / f"{0:064x}.pkl") \
            .stat().st_size
        cache.gc(max_bytes=entry_size)
        assert (cache.root / "test.fn" / f"{0:064x}.pkl").exists()
        assert not (cache.root / "test.fn" / f"{1:064x}.pkl").exists()

    def test_gc_zero_budget_clears_everything(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        self._fill(cache, 3)
        # One flat layout: nothing but the entries themselves.
        assert self._files(cache) == sorted(
            f"test.fn/{index:064x}{suffix}"
            for index in range(3) for suffix in (".json", ".pkl")
        )
        report = cache.gc(max_bytes=0)
        assert report["evicted_entries"] == 3
        assert report["after_bytes"] == 0
        assert cache.stats()["entries"] == 0
        assert self._files(cache) == []

    def test_gc_within_budget_is_noop(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        self._fill(cache, 2)
        before = cache.stats()["cache_bytes"]
        report = cache.gc(max_bytes=before)
        assert report["evicted_entries"] == 0
        assert report["before_bytes"] == report["after_bytes"] == before

    def test_gc_on_missing_root(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        report = cache.gc(max_bytes=100)
        assert report["evicted_entries"] == 0


class TestSignals:
    """SIGUSR1 stands in for SIGINT so pytest itself stays alive."""

    @pytest.fixture(autouse=True)
    def _clean_handlers(self):
        # Other tests (the CLI ones) may have installed the real
        # SIGINT/SIGTERM handlers; start and end from a clean slate.
        signals.uninstall()
        previous = signal.getsignal(signal.SIGUSR1)
        yield
        signals.uninstall()
        signal.signal(signal.SIGUSR1, previous)

    def test_install_is_idempotent_and_reversible(self):
        taken = signals.install((signal.SIGUSR1,))
        assert taken == [signal.SIGUSR1]
        assert signals.installed() == [signal.SIGUSR1]
        assert signals.install((signal.SIGUSR1,)) == [signal.SIGUSR1]
        signals.uninstall()
        assert signals.installed() == []

    def test_first_signal_cancels_running_engine(self):
        engine = Engine(jobs=1, cache=None)
        blocker = threading.Event()

        def hook(event, payload):
            if event == "job_done":
                blocker.wait(10)

        engine.hooks.add(hook)
        outcome = []

        def run():
            try:
                engine.run([Job(cancel_echo_job, {"value": i})
                            for i in range(2)])
                outcome.append("finished")
            except EngineCancelled:
                outcome.append("cancelled")

        signals.install((signal.SIGUSR1,))
        thread = threading.Thread(target=run)
        thread.start()
        deadline = time.monotonic() + 5
        while not engine.running and time.monotonic() < deadline:
            time.sleep(0.01)
        signal.raise_signal(signal.SIGUSR1)
        blocker.set()
        thread.join(timeout=10)
        assert outcome == ["cancelled"]
        # The handler stayed installed (one engine was newly cancelled).
        assert signals.installed() == [signal.SIGUSR1]

    def test_signal_with_no_engine_falls_through(self):
        hits = []
        signal.signal(signal.SIGUSR1, lambda s, f: hits.append(s))
        signals.install((signal.SIGUSR1,))
        signal.raise_signal(signal.SIGUSR1)
        # No engine was running: the handler uninstalled itself and
        # re-raised, landing in the previous (recording) handler.
        assert hits == [signal.SIGUSR1]
        assert signals.installed() == []
