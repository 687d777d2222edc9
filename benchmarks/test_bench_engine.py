"""Execution-engine benchmarks: cold vs cached, serial vs parallel.

These demonstrate the acceptance properties of the engine on the real
experiment paths (not toy jobs): a warm result cache makes a rerun at
least 5x faster, a process pool produces byte-identical results to the
serial path, and the dependency graph overlaps independent stages that
a barriered schedule serializes.
Run with ``pytest benchmarks/ --benchmark-only`` (add ``-s`` to see
the speedup reports).

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) shrinks the workloads
and only sanity-checks the ratios.  Set
``REPRO_BENCH_ENGINE_JSON=<path>`` to emit a machine-readable
``BENCH_ENGINE.json`` summary (CI uploads it with the obs artifacts).
"""

import json
import os
import time

import pytest

from benchmarks.conftest import print_result
from repro.engine import Engine
from repro.fab.process import FC4_WAFER
from repro.fab.yield_model import run_yield_study
from repro.netlist.cores import build_flexicore4


@pytest.fixture(scope="module")
def netlist():
    return build_flexicore4()


class TestYieldStudyCache:
    def test_cached_rerun_is_5x_faster(self, netlist, tmp_path):
        """Acceptance: the second invocation rides the cache."""

        def study(engine):
            return run_yield_study(
                netlist, FC4_WAFER, wafers=8, seed=2022, engine=engine
            )

        started = time.perf_counter()
        cold = study(Engine(jobs=1, cache=tmp_path))
        cold_s = time.perf_counter() - started

        warm_engine = Engine(jobs=1, cache=tmp_path)
        started = time.perf_counter()
        warm = study(warm_engine)
        warm_s = time.perf_counter() - started

        assert warm == cold
        assert warm_engine.metrics.cache_hits == 8
        assert cold_s >= 5 * warm_s, (cold_s, warm_s)
        print_result(
            "Engine cache speedup (yield study, 8 wafers)",
            f"cold  {cold_s * 1e3:8.1f} ms\n"
            f"warm  {warm_s * 1e3:8.1f} ms\n"
            f"ratio {cold_s / warm_s:8.1f}x (acceptance: >= 5x)",
        )

    def test_warm_cache_bench(self, netlist, tmp_path, benchmark):
        """Steady-state cached lookup cost for the full study."""
        engine = Engine(jobs=1, cache=tmp_path)
        run_yield_study(netlist, FC4_WAFER, wafers=8, seed=2022,
                        engine=engine)

        summary = benchmark(
            lambda: run_yield_study(
                netlist, FC4_WAFER, wafers=8, seed=2022,
                engine=Engine(jobs=1, cache=tmp_path),
            )
        )
        assert 0.6 < summary[4.5]["inclusion"] <= 1.0


class TestYieldStudyParallel:
    def test_parallel_bench(self, netlist, benchmark):
        """Process-pool fan-out of the wafer Monte Carlo."""
        serial = run_yield_study(
            netlist, FC4_WAFER, wafers=8, seed=2022, engine=Engine(jobs=1)
        )
        summary = benchmark.pedantic(
            lambda: run_yield_study(
                netlist, FC4_WAFER, wafers=8, seed=2022,
                engine=Engine(jobs=4),
            ),
            rounds=2, iterations=1,
        )
        assert summary == serial


SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"


@pytest.fixture(scope="module")
def engine_report():
    """Accumulates the BENCH_ENGINE.json artifact across tests."""
    payload = {}
    yield payload
    artifact = os.environ.get("REPRO_BENCH_ENGINE_JSON")
    if artifact and payload:
        with open(artifact, "w") as handle:
            json.dump(payload, handle, indent=2)


class TestGraphOverlap:
    """The job graph overlaps the fault campaign with the wafer Monte
    Carlo; the pre-graph schedule barriered between the two stages and
    left a worker idle for the whole single-job fault stage."""

    def test_graph_overlap_beats_barriered(self, netlist,
                                           engine_report):
        from repro.fab.yield_model import run_fault_coverage

        wafers, faults = (12, 60) if SMOKE else (96, 400)
        rounds = 1 if SMOKE else 2
        engine = Engine(jobs=2)
        # Warm the pool and the compiled fault backend in both
        # workers so neither mode pays one-time setup.
        run_yield_study(netlist, FC4_WAFER, wafers=2, seed=1,
                        fault_check=1, engine=engine)
        run_fault_coverage(cores=("flexicore4",), seed=1, faults=1,
                           engine=engine)

        def timed(fn):
            started = time.perf_counter()
            fn()
            return time.perf_counter() - started

        def barriered():
            run_yield_study(netlist, FC4_WAFER, wafers=wafers,
                            seed=2022, engine=engine)
            run_fault_coverage(cores=("flexicore4",), seed=2022,
                               faults=faults, engine=engine)

        def graph():
            run_yield_study(netlist, FC4_WAFER, wafers=wafers,
                            seed=2022, fault_check=faults,
                            engine=engine)

        barriered_s = min(timed(barriered) for _ in range(rounds))
        graph_s = min(timed(graph) for _ in range(rounds))
        engine.close()
        ratio = graph_s / barriered_s
        # Overlap converts idle-worker time into progress, so the
        # wall-clock win needs real concurrency: 2 pool workers plus
        # the coordinating parent.  On fewer cores wall clock equals
        # total CPU work whatever the schedule; there the acceptance
        # degrades to "streaming adds no overhead".
        cores = os.cpu_count() or 1
        strict = not SMOKE and cores >= 3
        engine_report["graph_overlap"] = {
            "wafers": wafers, "faults": faults, "jobs": 2,
            "barriered_s": barriered_s, "graph_s": graph_s,
            "ratio": ratio, "cpu_count": cores, "strict": strict,
        }
        bound = "< 0.95" if strict else f"<= 1.15 ({cores} core(s))"
        print_result(
            "Graph streaming vs barriered stages (2 workers)",
            f"barriered {barriered_s * 1e3:8.1f} ms"
            f"  (wafer stage, then fault stage)\n"
            f"graph     {graph_s * 1e3:8.1f} ms"
            f"  (fault node overlaps wafer nodes)\n"
            f"ratio     {ratio:8.2f}x (acceptance: {bound})",
        )
        if strict:
            assert ratio < 0.95, (graph_s, barriered_s)
        elif not SMOKE:
            assert ratio <= 1.15, (graph_s, barriered_s)

