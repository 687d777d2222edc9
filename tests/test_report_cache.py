"""The report's engine jobs: one batch per report, cached ≡ fresh, and a
warm report computes nothing.

Figure 8's steady-state costs, the Figure 9/10 design points and Table
6's counts come from the ``experiments.figure8_row``,
``dse.feature_point`` and ``experiments.table6_counts`` jobs.  A serial
cache-less engine and a two-worker cached one give equal results, cold
and warm, and a report against a cache that a cold report filled
assembles no kernel and simulates none in its own process.  Every job
the report reads runs once per process, in one engine run, however its
readers spell their arguments.
"""

import json
from collections import Counter

import pytest

from repro import engine as engine_module
from repro.dse.features import feature_sweep, revised_isa_report
from repro.experiments import figures, report, tables

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
eng = engine.configure(jobs=2, cache=sys.argv[1])
from repro.experiments.report import generate
document = generate()
pool = eng.executor is not None
eng.close()
print(json.dumps({**calls, "document": document, "pool": pool,
                  "stages": len(eng.metrics.stages),
                  "submitted": eng.metrics.jobs_submitted,
                  "misses": eng.metrics.cache_misses}))
"""


def test_warm_report_assembles_and_simulates_nothing(
        cold_report, repro_python, experiments_md, tmp_path):
    completed = repro_python(
        ["-c", _COUNTING_REPORT, str(cold_report)], cwd=tmp_path,
        cache=cold_report, state=tmp_path / "state",
    )
    counts = json.loads(completed.stdout)
    assert counts["document"].encode() == experiments_md
    # One engine run reads all 47 jobs from the cache, so no pool starts.
    assert (counts["stages"], counts["submitted"]) == (1, 47)
    assert counts["misses"] == 0
    assert not counts["pool"]
    assert (counts["assemble"], counts["run"]) == (0, 0)


#: Runs ``generate()`` against the cache in argv[1], counting the
#: netlists built in its process by name, and prints the counts as JSON.
_COUNTING_BUILDS = """
import json, sys
from collections import Counter
from repro import engine
from repro.netlist.builder import NetlistBuilder

built = Counter()
original = NetlistBuilder.build

def build(self):
    netlist = original(self)
    built[netlist.name] += 1
    return netlist

NetlistBuilder.build = build
eng = engine.configure(jobs=2, cache=sys.argv[1])
from repro.experiments.report import generate
generate()
eng.close()
print(json.dumps(built))
"""


def test_warm_report_builds_each_fabricated_core_once(
        cold_report, repro_python, tmp_path):
    # Tables 1-4 and 7, Figure 8 and Section 3.5 share one netlist per
    # core (repro.netlist.cores.core_netlist).
    completed = repro_python(
        ["-c", _COUNTING_BUILDS, str(cold_report)], cwd=tmp_path,
        cache=cold_report, state=tmp_path / "state",
    )
    assert json.loads(completed.stdout) == {
        "flexicore4": 1, "flexicore8": 1, "flexicore4plus": 1,
    }


@pytest.fixture
def default_engine(monkeypatch):
    """``configure(**options)`` for this test alone: the process-wide
    engine configuration and the report's job memo come back
    afterwards, and each call starts from an empty memo."""
    monkeypatch.setattr(engine_module, "_config",
                        dict(engine_module._DEFAULTS))
    monkeypatch.setattr(engine_module, "_default_engine", None)
    monkeypatch.setattr(engine_module, "_RESULTS", {})
    configured = []

    def configure(**options):
        engine_module._RESULTS.clear()
        figures.figure8.cache_clear()
        configured.append(engine_module.configure(**options))
        return configured[-1]

    yield configure
    for engine in configured:
        engine.close()
    figures.figure8.cache_clear()


@pytest.fixture
def executed(default_engine):
    """``(counts, engine)``: a serial cache-less default engine and the
    jobs it computes, counted by registered name."""
    counts = Counter()

    def count(event, payload):
        if event == "job_done" and payload["status"] == "completed":
            counts[payload["fn"]] += 1

    return counts, default_engine(hooks=[count])


def test_cacheless_report_runs_each_job_once(executed, experiments_md):
    counts, engine = executed
    assert report.generate().encode() == experiments_md
    assert dict(counts) == {
        "fab.wafer_yield": 12, "fab.probed_wafer": 2,
        "experiments.figure8_row": 8, "dse.feature_point": 10,
        "experiments.table6_counts": 1, "dse.evaluate_design": 14,
    }
    assert [stage.stage for stage in engine.metrics.stages] == ["report"]


def test_yield_readers_share_one_study(executed):
    counts, _ = executed
    tables.table4()
    tables.table5()
    tables.table5(wafers=6, seed=2022)
    tables.table7()
    assert dict(counts) == {"fab.wafer_yield": 12}


def test_wafer_readers_share_one_wafer_per_core(executed):
    counts, _ = executed
    figures.figure6()
    figures.figure7(2022)
    report.format_usage_variation()
    assert dict(counts) == {"fab.probed_wafer": 2}


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
    # Each job runs once per process: revised_isa_report reads the
    # sweep's base point, and the kernel run its ten design points, from
    # the memo, so the cold engine computes everything it is asked for.
    assert cold_engine.metrics.cache_hits == 0
    warm_engine = default_engine(jobs=2, cache=str(tmp_path))
    warm = _readers()
    assert warm_engine.metrics.cache_misses == 0
    assert warm_engine.metrics.cache_hits == 9 + 1 + 9
    assert serial == cold == warm
