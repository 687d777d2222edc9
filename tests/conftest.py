"""Fixtures shared by the test modules: every test's result cache and
state directory are fresh, and the modules that drive ``repro`` in a
fresh interpreter share one filled result cache."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.engine.cache import CACHE_DIR_ENV
from repro.obs.state import STATE_DIR_ENV

#: The committed report; every run of ``repro report`` must print it.
EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"


def run_python(args, cwd, cache, state):
    """``python <args>`` in ``cwd`` with its own result cache and state
    directory; returns the completed process (raises on a non-zero
    exit, with stderr in the message)."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src, REPRO_CACHE_DIR=str(cache),
               REPRO_STATE_DIR=str(state))
    completed = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True,
        text=True, timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return completed


@pytest.fixture(scope="session", autouse=True)
def fresh_repro_dirs(tmp_path_factory):
    """Point the default result cache and state directory at fresh
    directories for the whole run.  A test that configures a cached
    engine (``repro experiments``, ``repro report``) then reads only
    what this run computed, never what an earlier run of other code
    left in ``./.repro-cache`` under the same job version."""
    root = tmp_path_factory.mktemp("repro-dirs")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_DIR_ENV, str(root / "cache"))
        patch.setenv(STATE_DIR_ENV, str(root / "state"))
        yield


@pytest.fixture(scope="session")
def repro_python():
    """:func:`run_python`, for the modules that start interpreters."""
    return run_python


@pytest.fixture(scope="session")
def experiments_md():
    """The committed EXPERIMENTS.md, as bytes."""
    return EXPERIMENTS_MD.read_bytes()


@pytest.fixture(scope="session")
def cold_report(tmp_path_factory):
    """The result cache a cold ``repro report --jobs 2`` filled (its
    output checked against EXPERIMENTS.md).  Read it, or copy it
    before changing it: the whole test run shares it."""
    root = tmp_path_factory.mktemp("cold-report")
    run_python(["-m", "repro.cli", "report", "-o", "cold.md",
                "--jobs", "2"],
               cwd=root, cache=root / "cache", state=root / "state")
    assert (root / "cold.md").read_bytes() == EXPERIMENTS_MD.read_bytes()
    return root / "cache"
