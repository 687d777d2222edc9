"""Failure-path cases: a disturbed run must end with the bytes of an
undisturbed one, or with a typed one-line error.

Each case disturbs one layer on purpose and checks how the run ends.
(Killing a pool worker mid-batch is
``tests/test_engine_executors.py::TestPoolWorkerDeath``.)
"""

import json
import pickle
import random
import shutil

import pytest

#: The report's kernel-study job functions, one cache directory each.
KERNEL_STUDY_FUNCTIONS = ("experiments.figure8_row", "dse.feature_point",
                          "experiments.table6_counts")


def _garbage(length, rng):
    """``length`` random bytes that do not unpickle."""
    data = rng.randbytes(length)
    with pytest.raises(Exception):
        pickle.loads(data)
    return data


class TestCorruptCacheEntry:
    def test_corrupt_entries_cost_one_recompute_each(
            self, cold_report, repro_python, experiments_md, tmp_path):
        """A truncated or garbled kernel-study entry is a cache miss: the
        warm report recomputes just those jobs, rewrites their entries
        and prints the undisturbed bytes."""
        cache = tmp_path / "cache"
        shutil.copytree(cold_report, cache)
        rng = random.Random(2022)
        expected = {}
        for fn in KERNEL_STUDY_FUNCTIONS:
            entries = sorted((cache / fn).glob("*.pkl"))
            assert entries, fn
            # The first entry loses its tail; the next (if any) becomes
            # random bytes of the same length.
            for index, path in enumerate(entries[:2]):
                data = path.read_bytes()
                expected[path] = pickle.loads(data)
                path.write_bytes(data[:len(data) // 2] if index == 0
                                 else _garbage(len(data), rng))
        assert len(expected) == 5

        state = tmp_path / "state"
        repro_python(["-m", "repro.cli", "report", "-o", "warm.md",
                      "--jobs", "2"], cwd=tmp_path, cache=cache,
                     state=state)

        assert (tmp_path / "warm.md").read_bytes() == experiments_md
        last_run = json.loads((state / "last_run.json").read_text())
        assert last_run["cache_misses"] == len(expected)
        for path, value in expected.items():
            assert pickle.loads(path.read_bytes()) == value
