"""Crash-safety of the on-disk stores: cache writes and JSONL state.

The conformance harness leans on two durability promises this file
pins down directly:

- a cache ``put`` that dies mid-write must never leave an entry that a
  later ``get`` trusts (no torn pickle, no metadata describing a value
  that was never stored), and a corrupt entry found on ``get`` is
  quarantined so the slot heals;
- concurrent ``append_jsonl`` writers must not tear each other's lines,
  and ``read_jsonl`` must survive -- and count -- torn lines left by
  older writers or crashes.
"""

import json
import multiprocessing
import os
import pickle

import pytest

from repro.engine import ResultCache
from repro.obs import state as obs_state


class ExplodingDump:
    """pickle.dump stand-in that writes half the payload, then dies."""

    def __init__(self, real_dump):
        self.real_dump = real_dump

    def __call__(self, value, handle, *args, **kwargs):
        handle.write(b"\x80\x05partial-garbage")
        handle.flush()
        raise OSError("simulated crash mid-write")


class TestCachePutCrash:
    def test_crashed_put_leaves_no_entry(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        monkeypatch.setattr(
            "repro.engine.cache.pickle.dump",
            ExplodingDump(pickle.dump),
        )
        assert cache.put("fn", "k" * 64, {"x": 1}) is False
        # Nothing survives: no data, no metadata, no temp litter.
        leftovers = list((tmp_path / "cache").rglob("*"))
        assert all(p.is_dir() for p in leftovers)
        hit, _ = cache.get("fn", "k" * 64)
        assert hit is False

    def test_crashed_overwrite_keeps_old_entry(self, tmp_path,
                                               monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        key = "k" * 64
        assert cache.put("fn", key, {"generation": 1}) is True
        monkeypatch.setattr(
            "repro.engine.cache.pickle.dump",
            ExplodingDump(pickle.dump),
        )
        assert cache.put("fn", key, {"generation": 2}) is False
        monkeypatch.undo()
        hit, value = cache.get("fn", key)
        assert hit and value == {"generation": 1}
        # The old metadata still describes the surviving value.
        meta_path = next((tmp_path / "cache").rglob("*.json"))
        with open(meta_path) as handle:
            assert json.load(handle)["key"] == key

    def test_meta_write_is_atomic(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        real_replace = os.replace
        calls = []

        def tracking_replace(src, dst):
            calls.append(str(dst))
            return real_replace(src, dst)

        monkeypatch.setattr("repro.engine.cache.os.replace",
                            tracking_replace)
        cache.put("fn", "k" * 64, [1, 2, 3])
        assert any(dst.endswith(".pkl") for dst in calls)
        assert any(dst.endswith(".json") for dst in calls)


class TestCorruptEntryQuarantine:
    def corrupt(self, cache, fn="fn", key="k" * 64):
        cache.put(fn, key, {"good": True})
        data_path, meta_path = cache._paths(fn, key)
        data_path.write_bytes(b"\x80\x05 not a pickle at all")
        return data_path, meta_path

    def test_corrupt_pickle_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        data_path, meta_path = self.corrupt(cache)
        hit, value = cache.get("fn", "k" * 64)
        assert hit is False and value is None
        assert cache.corrupt == 1
        assert not data_path.exists() and not meta_path.exists()

    def test_next_put_starts_clean(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        self.corrupt(cache)
        cache.get("fn", "k" * 64)
        assert cache.put("fn", "k" * 64, {"fresh": 1}) is True
        hit, value = cache.get("fn", "k" * 64)
        assert hit and value == {"fresh": 1}

    def test_truncated_pickle_quarantined(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = "j" * 64
        cache.put("fn", key, list(range(1000)))
        data_path, _ = cache._paths("fn", key)
        data_path.write_bytes(data_path.read_bytes()[:20])
        hit, _ = cache.get("fn", key)
        assert hit is False and cache.corrupt == 1

    @pytest.mark.parametrize("garbage", [
        b"\x8e" + b"\xff" * 8,          # BINBYTES8 past sys.maxsize
        b"\x84\xa0\x99EJ",              # unregistered extension code
        b"c\xeas\x98R\x10Ke_\xd4\xc9\n",  # GLOBAL name, not UTF-8
    ], ids=["overflow", "extension", "unicode"])
    def test_any_unpickling_error_is_quarantined(self, tmp_path,
                                                 garbage):
        # Random bytes fail with more than UnpicklingError; each one is
        # corruption, never an exception out of the engine's lookup.
        cache = ResultCache(tmp_path / "cache")
        data_path, meta_path = self.corrupt(cache)
        data_path.write_bytes(garbage)
        hit, value = cache.get("fn", "k" * 64)
        assert hit is False and value is None
        assert cache.corrupt == 1
        assert not data_path.exists() and not meta_path.exists()

    def test_missing_entry_is_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        hit, _ = cache.get("fn", "absent" * 11)
        assert hit is False
        assert cache.corrupt == 0 and cache.misses == 1

    def test_stats_report_corrupt_count(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        self.corrupt(cache)
        cache.get("fn", "k" * 64)
        assert cache.stats()["session_corrupt"] == 1


# ----------------------------------------------------------------------
# JSONL state: torn lines and concurrent appenders.
# ----------------------------------------------------------------------

def _appender(root, name, tag, count):
    for index in range(count):
        obs_state.append_jsonl(
            name, {"tag": tag, "index": index, "pad": "x" * 512},
            root=root,
        )


class TestJsonlDurability:
    def test_torn_trailing_line_skipped_and_counted(self, tmp_path):
        obs_state.append_jsonl("log.jsonl", {"ok": 1}, root=tmp_path)
        obs_state.append_jsonl("log.jsonl", {"ok": 2}, root=tmp_path)
        path = tmp_path / "log.jsonl"
        with open(path, "a") as handle:
            handle.write('{"torn": tru')  # a half-flushed record
        before = obs_state.malformed_line_count("log.jsonl")
        records = obs_state.read_jsonl("log.jsonl", root=tmp_path)
        assert records == [{"ok": 1}, {"ok": 2}]
        assert obs_state.malformed_line_count("log.jsonl") == before + 1

    def test_torn_middle_line_does_not_hide_later_records(self,
                                                          tmp_path):
        path = tmp_path / "log.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"a": 1}\n{"b": \n{"c": 3}\n')
        records = obs_state.read_jsonl("log.jsonl", root=tmp_path)
        assert records == [{"a": 1}, {"c": 3}]

    def test_two_process_appends_never_tear(self, tmp_path):
        """Two writer processes interleave whole lines, not bytes."""
        ctx = multiprocessing.get_context("spawn")
        count = 200
        writers = [
            ctx.Process(target=_appender,
                        args=(str(tmp_path), "race.jsonl", tag, count))
            for tag in ("a", "b")
        ]
        for proc in writers:
            proc.start()
        for proc in writers:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        before = obs_state.malformed_line_count("race.jsonl")
        records = obs_state.read_jsonl("race.jsonl", root=tmp_path)
        # Every record parses (no torn lines), none are lost, and each
        # writer's records arrive in its own program order.
        assert obs_state.malformed_line_count("race.jsonl") == before
        assert len(records) == 2 * count
        for tag in ("a", "b"):
            indices = [r["index"] for r in records if r["tag"] == tag]
            assert indices == list(range(count))

    def test_append_survives_unwritable_dir(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file where the state dir should be")
        assert obs_state.append_jsonl(
            "log.jsonl", {"x": 1}, root=target
        ) is False
