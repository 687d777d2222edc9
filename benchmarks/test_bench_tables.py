"""Regeneration benchmarks: one target per paper table.

Each bench regenerates its table from scratch (clearing memoization so
the measured time is the real model cost) and prints the rows the paper
reports.  Run with ``pytest benchmarks/ --benchmark-only`` (add ``-s`` to
see the tables).
"""

import pytest

from benchmarks.conftest import print_result
from repro.experiments import tables


def _fresh_module_table(build):
    netlist = build()
    return tables._module_table(netlist)


class TestTable2:
    def test_table2(self, benchmark):
        from repro.netlist.cores import build_flexicore4

        rows = benchmark(_fresh_module_table, build_flexicore4)
        assert rows["memory"]["area_pct"] > 40
        print_result("Table 2 (FlexiCore4 module breakdown)",
                     tables.format_table2())


class TestTable3:
    def test_table3(self, benchmark):
        from repro.netlist.cores import build_flexicore8

        rows = benchmark(_fresh_module_table, build_flexicore8)
        assert rows["memory"]["area_pct"] > 25
        print_result("Table 3 (FlexiCore8 module breakdown)",
                     tables.format_table3())


class TestTable4:
    def test_table4(self, benchmark):
        rows = benchmark.pedantic(tables.table4, rounds=1, iterations=1)
        assert rows["FlexiCore8"]["devices"] > rows["FlexiCore4"]["devices"]
        print_result("Table 4 (FlexiCore comparison)",
                     tables.format_table4())


class TestTable5:
    def test_table5(self, benchmark):
        """The yield Monte Carlo; benchmarked at two wafers per core."""
        from repro.fab import FC4_WAFER, run_yield_study
        from repro.netlist.cores import build_flexicore4

        netlist = build_flexicore4()

        def monte_carlo():
            return run_yield_study(netlist, FC4_WAFER, wafers=2, seed=1,
                                   core="flexicore4")

        summary = benchmark.pedantic(monte_carlo, rounds=2, iterations=1)
        assert 0.6 < summary[4.5]["inclusion"] <= 1.0
        print_result("Table 5 (yield)", tables.format_table5())


class TestTable6:
    def test_table6(self, benchmark):
        from repro.kernels.kernel import Target
        from repro.kernels.suite import SUITE

        def assemble_suite():
            target = Target.named("flexicore4")
            return {k.name: k.program(target).static_instructions
                    for k in SUITE}

        counts = benchmark(assemble_suite)
        assert counts["Calculator"] > counts["Thresholding"]
        print_result("Table 6 (static instruction counts)",
                     tables.format_table6())


class TestTable7:
    def test_table7(self, benchmark):
        data = benchmark.pedantic(tables.table7, rounds=1, iterations=1)
        assert data["this_work"]["width"] == 4
        print_result("Table 7 (flexible-IC comparison)",
                     tables.format_table7())


class TestSection35:
    def test_msp430_comparison(self, benchmark):
        from repro.netlist.msp430 import section35_comparison

        comparison = benchmark(section35_comparison)
        assert comparison["area_ratio"] > 10
        print_result(
            "Section 3.5 (openMSP430 in IGZO)",
            f"area ratio  {comparison['area_ratio']:.1f}x (paper 30x)\n"
            f"power ratio {comparison['power_ratio']:.1f}x (paper 23x)",
        )
