"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation varies one modeling/design decision and reports how the
headline outcome moves:

- MMU arm-run length vs accidental page switches on real output traffic;
- the subroutine (return-register) extension's code-size effect;
- pipeline branch-penalty sensitivity of the Acc P energy win;
- defect-density sensitivity of the Table 5 yield;
- die-cost sensitivity to yield (the sub-cent claim's margin).
"""

import numpy as np
import pytest

from benchmarks.conftest import print_result


class TestMmuArmCountAblation:
    def test_arm_run_length(self, benchmark):
        """Replay Calculator output traffic (which legitimately contains
        the sentinel as data) through transducers with different arm-run
        requirements and count false page switches."""
        from repro.kernels import calculator
        from repro.kernels.kernel import Target
        from repro.sim.mmu import Mmu

        target = Target.named("flexicore4")
        kernel = calculator.KERNEL
        rng = np.random.default_rng(17)
        inputs = kernel.generate_inputs(rng, 60)
        expected = kernel.expected(inputs)  # clean data stream

        def false_arms(arm_count):
            sink = []
            mmu = Mmu(arm_count=arm_count).attach(sink.append)
            for value in expected:
                mmu.observe_output(value)
            return mmu.page_switches  # all switches here are spurious

        def sweep():
            return {n: false_arms(n) for n in (1, 2, 3, 4)}

        results = benchmark(sweep)
        assert results[1] > 0            # naive protocol misfires
        assert results[3] == 0           # the shipped protocol is clean
        assert results[4] == 0
        print_result(
            "Ablation: MMU arm-run length vs spurious page switches",
            "\n".join(f"arm run {n}: {count} spurious switches"
                      for n, count in results.items()),
        )


class TestSubroutineAblation:
    def test_return_register_code_size(self, benchmark):
        """Code size with and without the 8-flip-flop return register
        (call sites share one pooled shift routine vs full inlining)."""
        from repro.kernels.kernel import Target
        from repro.kernels.suite import get_kernel

        def measure():
            inline = Target.named("extacc[base]")
            pooled = Target.named("extacc[subr]")
            rows = {}
            for name in ("IntAvg", "XorShift8"):
                kernel = get_kernel(name)
                rows[name] = (
                    kernel.program(inline).static_instructions,
                    kernel.program(pooled).static_instructions,
                )
            return rows

        rows = benchmark(measure)
        for name, (inline, pooled) in rows.items():
            assert pooled < inline, name
        print_result(
            "Ablation: subroutine pooling (static instructions)",
            "\n".join(
                f"{name}: inline {inline} -> pooled {pooled} "
                f"({100 * (1 - pooled / inline):.0f}% smaller)"
                for name, (inline, pooled) in rows.items()
            ),
        )


class TestBranchPenaltyAblation:
    def test_pipeline_penalty_sensitivity(self, benchmark):
        """How much of the Acc P energy win survives a deeper flush?"""
        from repro.dse.designs import ACC_P, BASELINE
        from repro.dse.evaluate import _design_static, period_units
        from repro.kernels.kernel import Target
        from repro.kernels.suite import SUITE
        from repro.sim.timing import cycles_pipelined, cycles_single_cycle
        from repro.tech.cells import SECONDS_PER_DELAY_UNIT
        from repro.tech.power import OperatingPoint, static_power_w

        def sweep():
            base_netlist, base_report = _design_static(BASELINE)
            p_netlist, p_report = _design_static(ACC_P)
            base_power = static_power_w(base_netlist.pullups,
                                        OperatingPoint())
            p_power = static_power_w(p_netlist.pullups, OperatingPoint())
            base_period = period_units(
                base_report, BASELINE.microarch
            ) * SECONDS_PER_DELAY_UNIT
            p_period = period_units(
                p_report, ACC_P.microarch
            ) * SECONDS_PER_DELAY_UNIT
            base_target = Target.named("flexicore4")
            p_target = Target.named("extacc")
            ratios = {}
            for penalty in (1, 2, 3):
                base_e, p_e = 0.0, 0.0
                for kernel in SUITE:
                    rng = np.random.default_rng(3)
                    inputs = kernel.generate_inputs(rng, 6)
                    base_stats = kernel.check(base_target,
                                              list(inputs)).stats
                    p_stats = kernel.check(p_target, list(inputs)).stats
                    base_e += base_power * base_period * \
                        cycles_single_cycle(base_stats)
                    p_e += p_power * p_period * cycles_pipelined(
                        p_stats, branch_penalty=penalty
                    )
                ratios[penalty] = p_e / base_e
            return ratios

        ratios = benchmark.pedantic(sweep, rounds=1, iterations=1)
        assert ratios[1] < ratios[2] < ratios[3]
        assert ratios[3] < 1.2  # the win degrades gracefully
        print_result(
            "Ablation: Acc P energy vs branch-flush penalty",
            "\n".join(f"penalty {p}: energy x{r:.2f} of FlexiCore4"
                      for p, r in ratios.items()),
        )


class TestDefectDensityAblation:
    def test_yield_sensitivity(self, benchmark):
        from dataclasses import replace

        from repro.fab import FC4_WAFER, run_yield_study
        from repro.netlist.cores import build_flexicore4

        netlist = build_flexicore4()

        def sweep():
            results = {}
            for scale in (0.5, 1.0, 2.0, 4.0):
                process = replace(
                    FC4_WAFER,
                    defect_density_per_mm2=(
                        FC4_WAFER.defect_density_per_mm2 * scale
                    ),
                )
                summary = run_yield_study(netlist, process, wafers=3,
                                          seed=12, core="flexicore4")
                results[scale] = summary[4.5]["inclusion"]
            return results

        results = benchmark.pedantic(sweep, rounds=1, iterations=1)
        values = [results[s] for s in sorted(results)]
        assert values == sorted(values, reverse=True)
        print_result(
            "Ablation: yield vs defect density (4.5 V, inclusion zone)",
            "\n".join(f"D0 x{scale}: {100 * y:.0f}%"
                      for scale, y in results.items()),
        )


class TestCostAblation:
    def test_cost_vs_yield(self, benchmark):
        from repro.fab.cost import cost_sensitivity

        curve = benchmark(
            cost_sensitivity, [0.2, 0.4, 0.57, 0.81, 0.95]
        )
        assert curve[0.81] < 0.01   # the paper's sub-cent claim
        assert curve[0.2] > curve[0.81]
        print_result(
            "Ablation: good-die cost vs yield (volume production)",
            "\n".join(f"yield {100 * y:.0f}%: ${cost:.4f}"
                      for y, cost in curve.items()),
        )
