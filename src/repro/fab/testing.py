"""Die test-vector methodology (Section 4.1).

The paper probes every die with >100,000 cycles of directed plus random
vectors derived from RTL simulation, requiring gates to toggle ("gates
toggling on average 24,060 times, and all gates toggle at least once")
and counting any output mismatch as a failure.

This module builds the same kind of vector suite as *programs* (the
natural stimulus for a processor with an off-chip instruction bus), and
validates the yield model's core assumption -- that structural defects
are observable at the outputs -- by injecting stuck-at faults into the
gate-level netlist and measuring the detection rate.

Campaigns run one fault per simulation lane of a
:mod:`repro.netlist.backend` that the lane count picks: compiled up to
64 faults, vector above.  Every backend gives identical verdicts.
"""

from dataclasses import dataclass
from typing import List

import numpy as np

from repro import obs
from repro.asm import assemble
from repro.engine import job_function
from repro.netlist.backend import resolve_backend
from repro.netlist.cores import core_netlist
from repro.netlist.verify import run_cross_check, run_cross_check_batch


def directed_program(isa):
    """A short program touching every instruction class: ALU ops in both
    addressing modes, loads/stores over the whole memory, and both branch
    outcomes -- the "directed" half of the Section 4.1 vectors."""
    lines = ["start:"]
    words = isa.mem_words
    # Fill and read back every memory word through the output port, so
    # storage and addressing faults reach the pins.
    for addr in range(2, words):
        lines += [
            "    load 0",
            f"    addi {(5 * addr) % 16}",
            f"    store {addr}",
        ]
    for addr in range(2, words):
        lines += [f"    load {addr}", "    store 1"]
    # Exercise every ALU function in both addressing modes, observing
    # each result.
    for addr in range(2, words):
        for op in ("add", "nand", "xor"):
            lines += [f"    {op} {addr}", "    store 1"]
    for imm in (0, 1, 5, 8, 10, 15):
        lines += [f"    addi {imm}", "    store 1",
                  f"    nandi {imm}", "    store 1",
                  f"    xori {imm}", "    store 1"]
    # Both branch directions, from both accumulator sign states.
    lines += [
        "    load 0",
        "    store 1",
        "    nandi 0",         # acc = 0xF...: negative
        "    brn taken",
        "    store 1",         # (not reached when healthy)
        "taken:",
        "    xori 8",          # clear the MSB on a 4-bit machine
        "    brn start",       # must fall through when positive
        "    store 1",
        "    nandi 0",
        "    brn start",
    ]
    return assemble("\n".join(lines), isa, source_name="directed")


def random_program(isa, rng, length=96):
    """Random well-formed instructions (the "random" vector half).

    Branches target random earlier/later addresses within the page, so
    control flow wanders but never leaves the program.
    """
    choices = [m for m in isa.mnemonics() if m not in ("ldb",)]
    lines = []
    for index in range(length):
        mnemonic = choices[int(rng.integers(0, len(choices)))]
        spec = isa.spec(mnemonic)
        operands = []
        for operand in spec.operands:
            if operand.kind.name == "TARGET":
                operands.append(str(int(rng.integers(0, length))))
            else:
                lo = max(operand.lo, 0)
                operands.append(str(int(rng.integers(lo, operand.hi + 1))))
        lines.append(f"    {mnemonic} " + ", ".join(operands))
    return assemble("\n".join(lines), isa, source_name="random")


@dataclass
class FaultStudyResult:
    """Outcome of a stuck-at fault-injection campaign."""

    injected: int
    detected: int
    details: List[str]

    @property
    def coverage(self):
        return self.detected / self.injected if self.injected else 0.0


def sample_fault_sites(netlist, rng, count):
    """``count`` *distinct* stuck-at sites drawn over every gate.

    A site is a (gate name, stuck value) pair; both combinational gates
    and sequential DFFs are candidates (a stuck flop is just as much a
    structural defect as a stuck NAND).  Sampling without replacement
    keeps duplicate sites from inflating apparent coverage; the draw is
    clamped to the number of available sites.
    """
    gates = netlist.gates
    # Site 2*g + s is gate g stuck at s: draw indices, build only the
    # chosen pairs.
    count = min(count, 2 * len(gates))
    if count == 0:
        return []
    chosen = rng.choice(2 * len(gates), size=count, replace=False)
    return [(gates[index // 2].name, index % 2) for index in chosen.tolist()]


def fault_injection_study(netlist, isa, rng, faults=20,
                          max_instructions=300, backend=None):
    """Inject random stuck-at faults and check the vectors catch them.

    This grounds the yield model: a die with any structural defect is
    assumed non-functional, which is only fair if the test vectors would
    actually observe the defect.

    The fault list is packed into the lanes of one
    :mod:`repro.netlist.backend` run: with ``backend=None`` a campaign
    of up to 64 faults runs on the compiled backend, a larger one on
    the vector backend (the same kernel, in one run).  Only the
    verdicts are read, so the campaign counts no toggles.
    """
    program = directed_program(isa)
    inputs = [int(rng.integers(0, 16)) for _ in range(64)]
    sites = sample_fault_sites(netlist, rng, faults)
    detected = 0
    details = []
    with obs.span("fab.fault_injection", faults=len(sites),
                  backend=resolve_backend(backend, len(sites)).name):
        results = run_cross_check_batch(
            netlist, isa, program, inputs=inputs,
            max_instructions=max_instructions,
            faults=sites, backend=backend, toggles=False,
        )
        for (gate_name, stuck), result in zip(sites, results):
            caught = not result.passed
            detected += caught
            details.append(
                f"{gate_name} stuck-at-{stuck}: "
                f"{'DETECTED' if caught else 'missed'}"
            )
    if obs.active():
        registry = obs.registry()
        registry.counter(
            "fab_faults_injected_total", "Stuck-at faults injected",
        ).inc(len(sites))
        registry.counter(
            "fab_faults_detected_total",
            "Injected faults observed at the outputs",
        ).inc(detected)
    return FaultStudyResult(
        injected=len(sites), detected=detected, details=details
    )


def toggle_coverage_study(netlist, isa, rng, instructions=2000):
    """Run the directed program long enough to measure toggle coverage,
    the Section 4.1 metric (one lane, so the compiled backend)."""
    program = directed_program(isa)
    inputs = [int(rng.integers(0, 16)) for _ in range(4096)]
    with obs.span("fab.toggle_coverage", instructions=instructions,
                  backend=resolve_backend(None).name):
        result = run_cross_check(
            netlist, isa, program, inputs=inputs,
            max_instructions=instructions,
        )
    return result


@job_function("fab.fault_study", version="2")
def fault_study_job(params, seed):
    """Engine job: one fault-injection campaign on a registered core.

    The payload names the core, the ISA and the fault count; the
    backend follows from the fault count, and every backend gives
    bit-identical verdicts, so the campaign runs identically whichever
    worker process picks it up.
    """
    from repro.isa import get_isa

    netlist = core_netlist(params["core"])
    study = fault_injection_study(
        netlist, get_isa(params["isa"]), seed.rng(),
        faults=params["faults"],
        max_instructions=params.get("max_instructions", 300),
    )
    return {
        "injected": study.injected,
        "detected": study.detected,
        "coverage": study.coverage,
        "details": study.details,
    }
