"""Regeneration benchmarks: one target per paper figure."""

import numpy as np
import pytest

from benchmarks.conftest import print_result
from repro import engine
from repro.experiments import figures


class TestFigure6:
    def test_figure6(self, benchmark):
        from repro.fab import FC4_WAFER, fabricate_wafer
        from repro.netlist.cores import build_flexicore4

        netlist = build_flexicore4()

        def probe_wafer():
            rng = np.random.default_rng(6)
            wafer = fabricate_wafer(netlist, FC4_WAFER, rng)
            return wafer.probe(4.5, rng).error_map()

        error_map = benchmark(probe_wafer)
        assert any(errors == 0 for errors in error_map.values())
        print_result("Figure 6 (error wafer maps)",
                     figures.format_figure6())


class TestFigure7:
    def test_figure7(self, benchmark):
        from repro.fab import FC4_WAFER, fabricate_wafer
        from repro.netlist.cores import build_flexicore4

        netlist = build_flexicore4()

        def probe_currents():
            rng = np.random.default_rng(7)
            wafer = fabricate_wafer(netlist, FC4_WAFER, rng)
            return wafer.probe(4.5, rng).current_statistics()

        mean, std, rsd = benchmark(probe_currents)
        assert 0.05 < rsd < 0.3
        print_result("Figure 7 (current wafer maps)",
                     figures.format_figure7())


class TestFigure8:
    def test_figure8(self, benchmark):
        # The rows' jobs themselves: figure8() reads them from the
        # memoized kernel-study run, which also holds Figures 9/10 and
        # Table 6.
        def kernel_evaluation():
            return {
                row: figures.figure8_row_job(
                    {"kernel": kernel, "op": op, "seed": 8}, None)
                for row, kernel, op in figures.FIGURE8_ROWS
            }

        instructions = benchmark.pedantic(kernel_evaluation, rounds=1,
                                          iterations=1)
        assert instructions["Calculator (mul)"] > \
            instructions["Thresholding"]
        print_result("Figure 8 (kernel latency and energy)",
                     figures.format_figure8())


class TestFigure9:
    def test_figure9(self, benchmark):
        from repro.dse.features import feature_sweep

        def sweep():
            # feature_sweep() reads the process's job memo: clear it,
            # or this times memo reads.
            engine._RESULTS.clear()
            return feature_sweep()

        base, reports = benchmark.pedantic(sweep, rounds=1, iterations=1)
        assert len(reports) == 8
        print_result("Figure 9 (extension area vs code size)",
                     figures.format_figure9())


class TestFigure10:
    def test_figure10(self, benchmark):
        data = benchmark.pedantic(figures.figure10, rounds=1,
                                  iterations=1)
        assert data["by_feature"]["shift"]["IntAvg"] < 0.6
        print_result("Figure 10 (per-benchmark code size)",
                     figures.format_figure10())


class TestFigure11:
    def test_figure11(self, benchmark):
        def evaluate():
            engine._RESULTS.clear()
            return figures.figure11()

        data = benchmark.pedantic(evaluate, rounds=1, iterations=1)
        assert data["energy"]["LS P"]["Avg"] < 1.0
        print_result("Figure 11 (DSE performance and energy)",
                     figures.format_figure11())


class TestFigure12:
    def test_figure12(self, benchmark):
        rows = benchmark.pedantic(figures.figure12, rounds=1,
                                  iterations=1)
        assert rows["LS P"]["area"] > rows["Acc SC"]["area"]
        print_result("Figure 12 (area vs code size)",
                     figures.format_figure12())


class TestFigure13:
    def test_figure13(self, benchmark):
        rows = benchmark.pedantic(figures.figure13, rounds=1,
                                  iterations=1)
        assert rows["LS SC"]["bus"] is None
        print_result("Figure 13 (relative energy, both buses)",
                     figures.format_figure13())
