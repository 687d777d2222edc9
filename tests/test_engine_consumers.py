"""Engine-backed experiment paths: parallel == serial, cache == fresh.

These are the acceptance tests of the execution engine rewiring: the
Figure 6/7 wafers, the yield Monte Carlo, and the DSE sweep must produce
*bit-for-bit* identical results whether they run serially, over a
process pool, or out of the on-disk result cache.
"""

import dataclasses

import pytest

from repro.dse.designs import ALL_DESIGNS
from repro.dse.evaluate import evaluate_all
from repro.engine import Engine, spawn_seeds
from repro.experiments.figures import wafer_jobs
from repro.fab.process import FC4_WAFER, FC8_WAFER
from repro.fab.yield_model import run_yield_study
from repro.netlist.cores import build_flexicore4


def _wafers(engine):
    """The Figure 6/7 wafers of seed 2022, run on ``engine``."""
    jobs = wafer_jobs(2022)
    return dict(zip(jobs, engine.run(list(jobs.values()))))


def _probe_fingerprint(probe):
    """Everything Figure 6/7 reads from one probed wafer."""
    return (
        probe.voltage,
        probe.error_map(),
        probe.current_map(),
        [record.functional for record in probe.records],
        [record.failure_mode for record in probe.records],
    )


class TestWaferFiguresParallelEqualsSerial:
    @pytest.fixture(scope="class")
    def serial_wafers(self):
        return _wafers(Engine(jobs=1))

    @pytest.fixture(scope="class")
    def parallel_wafers(self):
        return _wafers(Engine(jobs=2))

    def test_same_cores(self, serial_wafers, parallel_wafers):
        assert set(serial_wafers) == set(parallel_wafers) == \
            {"FlexiCore4", "FlexiCore8"}

    def test_probes_bit_for_bit(self, serial_wafers, parallel_wafers):
        for core in serial_wafers:
            for voltage in (3.0, 4.5):
                assert _probe_fingerprint(
                    serial_wafers[core]["probes"][voltage]
                ) == _probe_fingerprint(
                    parallel_wafers[core]["probes"][voltage]
                )

    def test_fabricated_dies_bit_for_bit(self, serial_wafers,
                                         parallel_wafers):
        for core in serial_wafers:
            serial_dies = serial_wafers[core]["fabricated"].dies
            parallel_dies = parallel_wafers[core]["fabricated"].dies
            assert [
                (d.defects, d.speed_factor, d.current_factor)
                for d in serial_dies
            ] == [
                (d.defects, d.speed_factor, d.current_factor)
                for d in parallel_dies
            ]

    def test_cached_rerun_identical(self, serial_wafers, tmp_path):
        cold = _wafers(Engine(jobs=1, cache=tmp_path))
        warm_engine = Engine(jobs=1, cache=tmp_path)
        warm = _wafers(warm_engine)
        assert warm_engine.metrics.cache_hits == 2
        for core in serial_wafers:
            for voltage in (3.0, 4.5):
                probes = [wafers[core]["probes"][voltage]
                          for wafers in (serial_wafers, cold, warm)]
                assert _probe_fingerprint(probes[0]) \
                    == _probe_fingerprint(probes[1]) \
                    == _probe_fingerprint(probes[2])


class TestYieldStudyParallelEqualsSerial:
    @pytest.fixture(scope="class")
    def netlist(self):
        return build_flexicore4()

    def test_parallel_equals_serial(self, netlist):
        serial = run_yield_study(
            netlist, FC4_WAFER, wafers=6, seed=2022,
            engine=Engine(jobs=1),
        )
        parallel = run_yield_study(
            netlist, FC4_WAFER, wafers=6, seed=2022,
            engine=Engine(jobs=3),
        )
        assert serial == parallel

    def test_wafer_order_independent_prefix(self, netlist):
        """Child seeds make each wafer's draw independent of the wafer
        count, so a longer study extends -- not reshuffles -- a shorter
        one.  (The threaded-rng legacy path cannot satisfy this.)"""
        short = run_yield_study(
            netlist, FC4_WAFER, wafers=2, seed=7, engine=Engine(jobs=1),
        )
        first_two_of_long = run_yield_study(
            netlist, FC4_WAFER, wafers=2, seed=7, engine=Engine(jobs=2),
        )
        assert short == first_two_of_long

    def test_cached_rerun_identical(self, netlist, tmp_path):
        cold = run_yield_study(
            netlist, FC4_WAFER, wafers=4, seed=11,
            engine=Engine(jobs=1, cache=tmp_path),
        )
        warm_engine = Engine(jobs=1, cache=tmp_path)
        warm = run_yield_study(
            netlist, FC4_WAFER, wafers=4, seed=11, engine=warm_engine,
        )
        assert cold == warm
        assert warm_engine.metrics.cache_hits == 4
        assert warm_engine.metrics.cache_misses == 0

    def test_seed_changes_cache_entries(self, netlist, tmp_path):
        engine = Engine(jobs=1, cache=tmp_path)
        run_yield_study(netlist, FC4_WAFER, wafers=2, seed=1,
                        engine=engine)
        run_yield_study(netlist, FC4_WAFER, wafers=2, seed=2,
                        engine=engine)
        assert engine.metrics.cache_hits == 0
        assert engine.cache.stats()["entries"] == 4

    def test_process_changes_cache_entries(self, netlist, tmp_path):
        """Different wafer processes must never share cache entries."""
        engine = Engine(jobs=1, cache=tmp_path)
        fc4 = run_yield_study(netlist, FC4_WAFER, wafers=2, seed=1,
                              engine=engine)
        fc8_process = run_yield_study(netlist, FC8_WAFER, wafers=2,
                                      seed=1, engine=engine)
        assert engine.metrics.cache_hits == 0
        assert fc4 != fc8_process

    def test_summary_keys_are_voltages(self, netlist):
        summary = run_yield_study(
            netlist, FC4_WAFER, wafers=2, seed=3, core="flexicore4",
        )
        assert set(summary) == {3.0, 4.5}

    def test_unregistered_core_rejected_on_engine_path(self):
        class FakeNetlist:
            name = "mystery-core"

        with pytest.raises(ValueError):
            run_yield_study(FakeNetlist(), FC4_WAFER, wafers=1, seed=1)

    def test_requires_seed_or_rng(self, netlist):
        with pytest.raises(TypeError):
            run_yield_study(netlist, FC4_WAFER, wafers=1)


def _metrics_fingerprint(metrics):
    """DesignMetrics flattened to plain comparable values."""
    flat = dataclasses.asdict(metrics)
    flat["design"] = metrics.design.name
    return flat


class TestEvaluateAllParallelEqualsSerial:
    @pytest.fixture(scope="class")
    def serial(self):
        return evaluate_all(engine=Engine(jobs=1))

    def test_parallel_equals_serial(self, serial):
        parallel = evaluate_all(engine=Engine(jobs=4))
        assert set(serial) == set(parallel)
        for name in serial:
            assert _metrics_fingerprint(serial[name]) == \
                _metrics_fingerprint(parallel[name])

    def test_cached_rerun_identical(self, serial, tmp_path):
        cold_engine = Engine(jobs=1, cache=tmp_path)
        cold = evaluate_all(engine=cold_engine)
        assert cold_engine.metrics.cache_misses == len(ALL_DESIGNS)
        warm_engine = Engine(jobs=1, cache=tmp_path)
        warm = evaluate_all(engine=warm_engine)
        assert warm_engine.metrics.cache_hits == len(ALL_DESIGNS)
        for name in serial:
            assert _metrics_fingerprint(serial[name]) == \
                _metrics_fingerprint(cold[name]) == \
                _metrics_fingerprint(warm[name])

    def test_bus_restriction_gets_own_cache_entries(self, tmp_path):
        engine = Engine(jobs=1, cache=tmp_path)
        wide = evaluate_all(engine=engine)
        narrow = evaluate_all(engine=engine, bus_bits=8)
        assert engine.metrics.cache_hits == 0
        assert wide["LS SC"].kernels["IntAvg"].feasible
        assert not narrow["LS SC"].kernels["IntAvg"].feasible


class TestTableFigureConsistency:
    def test_yield_summaries_match_direct_study(self):
        """tables.yield_summaries must agree with calling
        run_yield_study directly under the same spawned seeds."""
        from repro.experiments.tables import yield_summaries
        from repro.netlist.cores import core_netlist

        fc4_seed, _ = spawn_seeds(2022, 2)
        direct = run_yield_study(
            core_netlist("flexicore4"), FC4_WAFER, wafers=6,
            seed=fc4_seed, engine=Engine(jobs=2),
        )
        assert yield_summaries()["FlexiCore4"] == direct
