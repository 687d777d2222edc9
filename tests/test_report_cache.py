"""The report's kernel studies as engine jobs: cached ≡ fresh, and a warm
report computes nothing.

Figure 8's steady-state costs, the Figure 9/10 design points and Table
6's counts come from the ``experiments.figure8_row``,
``dse.feature_point`` and ``experiments.table6_counts`` jobs.  A serial
cache-less engine and a two-worker cached one give equal results, cold
and warm, and a report against a cache that a cold report filled
assembles no kernel and simulates none in its own process.
"""

import json

import pytest

from repro import engine as engine_module
from repro.dse.features import feature_sweep, revised_isa_report
from repro.experiments import figures, tables

#: Runs ``generate()`` against the cache in argv[1], counting every
#: ``Assembler.assemble`` and ``Simulator.run`` call the way
#: tests/test_kernel_memo.py does, and prints the counts as JSON.
_COUNTING_REPORT = """
import json, sys
from repro import engine
from repro.asm import Assembler
from repro.sim.simulator import Simulator

calls = {"assemble": 0, "run": 0}

def counted(name, original):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    return wrapper

Assembler.assemble = counted("assemble", Assembler.assemble)
Simulator.run = counted("run", Simulator.run)
engine.configure(jobs=2, cache=sys.argv[1])
from repro.experiments.report import generate
document = generate()
engine.current_engine().close()
print(json.dumps({**calls, "document": document,
                  "misses": engine.current_engine().metrics.cache_misses}))
"""


def test_warm_report_assembles_and_simulates_nothing(
        cold_report, repro_python, experiments_md, tmp_path):
    completed = repro_python(
        ["-c", _COUNTING_REPORT, str(cold_report)], cwd=tmp_path,
        cache=cold_report, state=tmp_path / "state",
    )
    counts = json.loads(completed.stdout)
    assert counts["document"].encode() == experiments_md
    assert counts["misses"] == 0
    assert (counts["assemble"], counts["run"]) == (0, 0)


@pytest.fixture
def default_engine(monkeypatch):
    """``configure(**options)`` for this test alone: the process-wide
    engine configuration comes back afterwards, and the memos of the
    kernel-study readers are cleared on both sides."""
    memos = (figures._kernel_studies, figures.figure8)
    monkeypatch.setattr(engine_module, "_config",
                        dict(engine_module._DEFAULTS))
    monkeypatch.setattr(engine_module, "_default_engine", None)
    configured = []

    def configure(**options):
        for memo in memos:
            memo.cache_clear()
        configured.append(engine_module.configure(**options))
        return configured[-1]

    yield configure
    for engine in configured:
        engine.close()
    for memo in memos:
        memo.cache_clear()


def _readers():
    """The four readers, each from the process-wide engine."""
    return {
        "feature_sweep": feature_sweep(),
        "revised_isa_report": revised_isa_report(),
        "figure8": figures.figure8(),
        "table6": tables.table6(),
    }


def test_cached_parallel_equals_serial(default_engine, tmp_path):
    default_engine()
    serial = _readers()
    cold_engine = default_engine(jobs=2, cache=str(tmp_path))
    cold = _readers()
    # Hits: revised_isa_report's base point, then the kernel run's ten
    # design points; everything else was computed.
    assert cold_engine.metrics.cache_hits == 1 + 10
    warm_engine = default_engine(jobs=2, cache=str(tmp_path))
    warm = _readers()
    assert warm_engine.metrics.cache_misses == 0
    assert warm_engine.metrics.cache_hits == 9 + 2 + 19
    assert serial == cold == warm
