"""Content-addressed on-disk result cache.

A cache entry is addressed by the SHA-256 of a canonical JSON document
naming everything that determines the result:

- the job function's registered name and version
  (:func:`repro.engine.registry.function_identity`),
- the package version (``repro.__version__``),
- the canonicalized job parameters,
- the seed token (entropy + spawn key).

Layout on disk (default root: ``$REPRO_CACHE_DIR`` or ``.repro-cache``)::

    <root>/<function-name>/<digest>.pkl    pickled result
    <root>/<function-name>/<digest>.json   human-readable entry metadata
    <root>/last_run.json                   metrics of the latest engine run

Writes are atomic (temp file + ``os.replace``, data before metadata),
so a crash mid-write never leaves a torn pickle behind.  The engine is
the only reader and writer: it looks every job up before dispatch and
stores each result as it lands, in the coordinating process, so
executors -- the local pool or socket-cluster workers -- only run jobs.

Values that cannot be canonicalized deterministically (arbitrary objects
whose ``repr`` embeds addresses) are rejected with ``TypeError`` rather
than silently producing an unstable key; jobs with such parameters must
supply ``Job.cache_key`` themselves.
"""

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import shutil
import time
from pathlib import Path

import numpy as np

#: Environment override for the cache root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Project-local default cache root.
DEFAULT_CACHE_DIRNAME = ".repro-cache"


def default_cache_dir():
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIRNAME


def _package_version():
    try:
        from repro import __version__
        return __version__
    except Exception:  # pragma: no cover - import cycle guard
        return "0"


def canonical(value):
    """Reduce ``value`` to a deterministic JSON-safe structure."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return {"__float__": repr(value)}
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return {"__float__": repr(float(value))}
    if isinstance(value, (bytes, bytearray)):
        return {"__bytes__": hashlib.sha256(bytes(value)).hexdigest()}
    if isinstance(value, enum.Enum):
        return {"__enum__": type(value).__name__, "name": value.name}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": {
                f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, (frozenset, set)):
        items = [canonical(item) for item in value]
        return {"__set__": sorted(items, key=json.dumps)}
    if isinstance(value, dict):
        return {
            "__map__": sorted(
                ([canonical(k), canonical(v)] for k, v in value.items()),
                key=json.dumps,
            )
        }
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    token = getattr(value, "cache_token", None)
    if callable(token):
        return {"__token__": canonical(token())}
    raise TypeError(
        f"cannot build a stable cache key from {type(value).__name__!r}; "
        "pass primitives/dataclasses or set Job.cache_key explicitly"
    )


def job_cache_key(job):
    """The content address of a job's result (hex digest)."""
    if job.cache_key is not None:
        return job.cache_key
    from repro.engine.registry import function_identity

    name, version = function_identity(job.fn)
    document = {
        "fn": name,
        "fn_version": version,
        "package": _package_version(),
        "params": canonical(dict(job.params)),
        "seed": job.seed.token() if job.seed is not None else None,
    }
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _safe_name(name):
    return "".join(c if (c.isalnum() or c in "._-") else "_"
                   for c in name) or "anonymous"


class ResultCache:
    """Pickle-backed result store with hit/miss accounting."""

    def __init__(self, root=None):
        self.root = Path(root or default_cache_dir())
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    def _paths(self, fn_name, key):
        directory = self.root / _safe_name(fn_name)
        return directory / f"{key}.pkl", directory / f"{key}.json"

    # -- lookup / store ------------------------------------------------

    def get(self, fn_name, key):
        """(hit, value); a corrupt or unreadable entry counts as a miss.

        A *corrupt* entry (the pickle exists but does not deserialize --
        truncated by a crash mid-write, or referencing symbols this
        checkout no longer has) is quarantined: both the ``.pkl`` and
        its ``.json`` metadata are deleted so the next ``put`` starts
        from a clean slot instead of shadowing good data with bad.
        """
        data_path, meta_path = self._paths(fn_name, key)
        try:
            with open(data_path, "rb") as handle:
                value = pickle.load(handle)
        except OSError:
            self.misses += 1
            return False, None
        except (pickle.UnpicklingError, EOFError,
                AttributeError, ImportError, ValueError):
            self._quarantine(fn_name, data_path, meta_path)
            self.misses += 1
            return False, None
        self.hits += 1
        # Mark the entry recently-used so :meth:`gc` evicts cold
        # entries first (mtime is the LRU clock; atime is
        # unreliable on noatime/relatime mounts).
        try:
            os.utime(data_path)
        except OSError:
            pass
        return True, value

    def _quarantine(self, fn_name, data_path, meta_path):
        self.corrupt += 1
        for path in (data_path, meta_path):
            try:
                path.unlink()
            except OSError:
                pass
        try:
            from repro import obs
            if obs.active():
                obs.registry().counter(
                    "engine_cache_corrupt_total",
                    "Corrupt cache entries quarantined",
                ).inc(fn=fn_name)
        except Exception:  # pragma: no cover - obs must never break IO
            pass

    def put(self, fn_name, key, value, meta=None):
        """Atomically store a result (tmp file + rename)."""
        data_path, meta_path = self._paths(fn_name, key)
        try:
            data_path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            return False
        tmp = data_path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(value, handle, pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, data_path)
        except (OSError, pickle.PicklingError, TypeError,
                AttributeError):
            tmp.unlink(missing_ok=True)
            # Never leave metadata describing a value that was not
            # stored: a stale .json next to no (or an older) .pkl lies
            # about what the entry holds.
            if not data_path.exists():
                try:
                    meta_path.unlink()
                except OSError:
                    pass
            return False
        entry_meta = {"fn": fn_name, "key": key,
                      "created": time.time()}
        entry_meta.update(meta or {})
        meta_tmp = meta_path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with open(meta_tmp, "w") as handle:
                json.dump(entry_meta, handle, indent=2, default=str)
            os.replace(meta_tmp, meta_path)
        except OSError:
            try:
                meta_tmp.unlink()
            except OSError:
                pass
        return True

    # -- maintenance / reporting ---------------------------------------

    def clear(self):
        """Delete every cache entry (and the last-run metrics)."""
        if self.root.exists():
            shutil.rmtree(self.root)

    def gc(self, max_bytes):
        """Evict least-recently-used entries down to ``max_bytes``.

        A long-lived service accumulates results without bound; this
        walks every ``.pkl`` entry, sorts by mtime (refreshed on every
        :meth:`get` hit, so it is an LRU clock), and deletes the
        coldest entries (data + metadata) until the total is within
        budget.  Returns ``{"before_bytes", "after_bytes",
        "evicted_entries", "evicted_bytes", "max_bytes"}``.
        """
        max_bytes = max(0, int(max_bytes))
        records = []
        for _fn_name, data_path in self._scan():
            try:
                stat = data_path.stat()
            except OSError:
                continue
            records.append((stat.st_mtime, stat.st_size, data_path))
        total = sum(size for _, size, _ in records)
        before = total
        evicted = 0
        evicted_bytes = 0
        for _, size, data_path in sorted(records, key=lambda r: r[0]):
            if total <= max_bytes:
                break
            for path in (data_path, data_path.with_suffix(".json")):
                try:
                    path.unlink()
                except OSError:
                    pass
            total -= size
            evicted += 1
            evicted_bytes += size
        return {
            "before_bytes": before,
            "after_bytes": total,
            "evicted_entries": evicted,
            "evicted_bytes": evicted_bytes,
            "max_bytes": max_bytes,
        }

    def _scan(self):
        """Yield ``(fn_name, data_path)`` for every entry; skips the
        service artifact store, which shares the root but holds no
        result entries."""
        if not self.root.exists():
            return
        for child in sorted(self.root.iterdir()):
            if not child.is_dir() or child.name == "artifacts":
                continue
            for data_path in child.glob("*.pkl"):
                yield child.name, data_path

    def stats(self):
        """{function name: {"entries": n, "bytes": total}} plus totals."""
        by_fn = {}
        total_entries = 0
        total_bytes = 0
        for fn_name, data_path in self._scan():
            try:
                size = data_path.stat().st_size
            except OSError:
                continue
            fn_slot = by_fn.setdefault(fn_name,
                                       {"entries": 0, "bytes": 0})
            fn_slot["entries"] += 1
            fn_slot["bytes"] += size
            total_entries += 1
            total_bytes += size
        return {
            "root": str(self.root),
            "functions": by_fn,
            "entries": total_entries,
            "bytes": total_bytes,
            "cache_bytes": total_bytes,
            "session_hits": self.hits,
            "session_misses": self.misses,
            "session_corrupt": self.corrupt,
        }
