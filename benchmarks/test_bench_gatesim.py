"""Gate-level simulation backend benchmarks.

Two acceptance properties, one per packed backend name:

- **Compiled vs interpreted** (the 20-fault campaign, which counts no
  toggles, as ``fault_injection_study`` never reads them): one batched
  run is at least 10x faster than the interpreted reference, which
  cross-checks the 20 faults one serial run at a time.
- **Vector vs compiled** (the wafer-scale campaign, toggles counted):
  both names run the same straight-line kernel over lane-wide Python
  ints, so this times one multi-thousand-lane run -- every lane
  advanced by one settle pass -- against the same campaign chunked
  into 64-lane runs, and it must be at least 10x faster.

Both comparisons require bit-identical results before any timing
counts.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI): single repetition
with reduced lane/instruction budgets and no speedup thresholds -- it
checks that the campaigns run and the backends agree, not how fast the
runner machine is.  Run locally with
``pytest benchmarks/test_bench_gatesim.py -s`` for the timing report.

Set ``REPRO_BENCH_GATESIM_JSON=<path>`` to emit a machine-readable
``BENCH_GATESIM.json`` summary (CI uploads it with the obs artifacts).
"""

import json
import os
import time

import numpy as np

from benchmarks.conftest import print_result
from repro.fab.testing import (
    directed_program,
    fault_injection_study,
    sample_fault_sites,
)
from repro.isa import get_isa
from repro.netlist.cores import build_flexicore4
from repro.netlist.verify import run_cross_check_batch

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
FAULTS = 20
MAX_INSTRUCTIONS = 60 if SMOKE else 300
ROUNDS = 1 if SMOKE else 3

#: Wafer-scale campaign: lanes per run and the acceptance threshold.
#: 4096 lanes is ~33 wafers of dies (or an 8x deeper fault campaign
#: than the whole fc4 site list); well past the >= 1024-lane floor the
#: acceptance criterion names.
WAFER_LANES = 256 if SMOKE else 4096
WAFER_INSTRUCTIONS = 20 if SMOKE else 120
WAFER_ACCEPTANCE = 10.0


def _campaign(netlist, isa, backend, seed=2022):
    """The Section 4.1 fault campaign with a fixed sampling seed, so
    both backends draw the same inputs and the same fault sites."""
    rng = np.random.default_rng(seed)
    return fault_injection_study(
        netlist, isa, rng, faults=FAULTS,
        max_instructions=MAX_INSTRUCTIONS, backend=backend,
    )


class TestFaultCampaignSpeedup:
    def test_compiled_campaign_is_10x_faster(self):
        """Acceptance: batched lanes beat the serial per-fault loop 10x."""
        netlist = build_flexicore4()
        isa = get_isa("flexicore4")

        started = time.perf_counter()
        interpreted = _campaign(netlist, isa, "interpreted")
        interpreted_s = time.perf_counter() - started

        started = time.perf_counter()
        compiled = _campaign(netlist, isa, "compiled")
        compiled_s = time.perf_counter() - started

        assert interpreted.injected == compiled.injected == FAULTS
        assert compiled.details == interpreted.details
        assert compiled.coverage == interpreted.coverage

        ratio = interpreted_s / compiled_s
        if not SMOKE:
            assert ratio >= 10.0, (interpreted_s, compiled_s)
        print_result(
            f"Gate-sim backend speedup ({FAULTS}-fault campaign, "
            f"FlexiCore4, {MAX_INSTRUCTIONS} instructions)",
            f"interpreted {interpreted_s * 1e3:8.1f} ms "
            f"({FAULTS} serial runs)\n"
            f"compiled    {compiled_s * 1e3:8.1f} ms "
            f"(1 batched 64-lane run)\n"
            f"ratio       {ratio:8.1f}x (acceptance: >= 10x"
            f"{', smoke: unchecked' if SMOKE else ''})\n"
            f"coverage    {compiled.coverage:8.0%} "
            f"({compiled.detected}/{compiled.injected} detected)",
        )

    def test_compiled_campaign_bench(self, benchmark):
        """Steady-state cost of the batched compiled campaign."""
        netlist = build_flexicore4()
        isa = get_isa("flexicore4")
        study = benchmark.pedantic(
            lambda: _campaign(netlist, isa, "compiled"),
            rounds=ROUNDS, iterations=1,
        )
        assert study.injected == FAULTS
        assert study.coverage >= 0.5

    def test_interpreted_campaign_bench(self, benchmark):
        """Reference cost of the serial interpreted campaign (recorded
        in the same benchmark JSON for the speedup to be computable
        from artifacts alone)."""
        netlist = build_flexicore4()
        isa = get_isa("flexicore4")
        study = benchmark.pedantic(
            lambda: _campaign(netlist, isa, "interpreted"),
            rounds=ROUNDS, iterations=1,
        )
        assert study.injected == FAULTS


def _wafer_campaign(netlist):
    """One fixed wafer-scale fault list: mostly single-fault lanes
    cycling over every distinct fc4 site, a healthy lane every ninth
    (die with no defects), drawn once so both backends see the same
    campaign."""
    rng = np.random.default_rng(7)
    sites = sample_fault_sites(netlist, rng, 10_000)  # clamps to all
    faults = [
        None if lane % 9 == 0 else sites[lane % len(sites)]
        for lane in range(WAFER_LANES)
    ]
    inputs = [int(value) for value in rng.integers(0, 16, size=64)]
    return faults, inputs


def _run_wafer(backend, netlist, isa, program, inputs, faults):
    return run_cross_check_batch(
        netlist, isa, program, inputs=inputs,
        max_instructions=WAFER_INSTRUCTIONS, faults=faults,
        backend=backend,
    )


class TestWaferScaleSpeedup:
    def test_vector_campaign_is_10x_faster_than_chunked(self):
        """Acceptance: one wide run beats the 64-lane chunk loop 10x
        at wafer scale, with lane-for-lane identical results."""
        netlist = build_flexicore4()
        isa = get_isa("flexicore4")
        program = directed_program(isa)
        faults, inputs = _wafer_campaign(netlist)

        # Warm both paths once (kernel specialization, predecode
        # tables) and use the warmup outputs as the equivalence check:
        # CrossCheckResult equality covers mismatch counts, the exact
        # first-mismatch text, and both toggle statistics per lane.
        compiled = _run_wafer(
            "compiled", netlist, isa, program, inputs, faults
        )
        vectored = _run_wafer(
            "vector", netlist, isa, program, inputs, faults
        )
        assert len(vectored) == WAFER_LANES
        assert vectored == compiled

        def best_seconds(backend):
            best = float("inf")
            for _ in range(ROUNDS):
                started = time.perf_counter()
                _run_wafer(
                    backend, netlist, isa, program, inputs, faults
                )
                best = min(best, time.perf_counter() - started)
            return best

        compiled_s = best_seconds("compiled")
        vector_s = best_seconds("vector")
        ratio = compiled_s / vector_s
        if not SMOKE:
            assert ratio >= WAFER_ACCEPTANCE, (compiled_s, vector_s)

        detected = sum(1 for lane in vectored if not lane.passed)
        payload = {
            "lanes": WAFER_LANES,
            "instructions": WAFER_INSTRUCTIONS,
            "chunks_compiled": -(-WAFER_LANES // 64),
            "compiled_s": compiled_s,
            "vector_s": vector_s,
            "speedup": ratio,
            "lanes_per_second_vector": WAFER_LANES / vector_s,
            "detected": detected,
            "acceptance": WAFER_ACCEPTANCE,
            "smoke": SMOKE,
        }
        artifact = os.environ.get("REPRO_BENCH_GATESIM_JSON")
        if artifact:
            with open(artifact, "w") as handle:
                json.dump(payload, handle, indent=2)
        print_result(
            f"Wafer-scale gate-sim speedup ({WAFER_LANES}-lane "
            f"campaign, FlexiCore4, {WAFER_INSTRUCTIONS} instructions)",
            f"compiled {compiled_s * 1e3:8.1f} ms "
            f"({payload['chunks_compiled']} chunked 64-lane runs)\n"
            f"vector   {vector_s * 1e3:8.1f} ms (1 run, "
            f"{payload['lanes_per_second_vector']:,.0f} lanes/s)\n"
            f"ratio    {ratio:8.1f}x (acceptance: >= "
            f"{WAFER_ACCEPTANCE:.0f}x"
            f"{', smoke: unchecked' if SMOKE else ''})\n"
            f"faulted  {detected:8d} of {WAFER_LANES} lanes caught",
        )

    def test_vector_campaign_bench(self, benchmark):
        """Steady-state cost of the single wafer-scale vector run."""
        netlist = build_flexicore4()
        isa = get_isa("flexicore4")
        program = directed_program(isa)
        faults, inputs = _wafer_campaign(netlist)
        results = benchmark.pedantic(
            lambda: _run_wafer(
                "vector", netlist, isa, program, inputs, faults
            ),
            rounds=ROUNDS, iterations=1,
        )
        assert len(results) == WAFER_LANES
