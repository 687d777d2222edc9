"""Gate-level vs ISA-level cross-verification (the Section 4.1 test flow).

The paper derives chip test vectors from RTL simulation and counts a die
functional only when every output of every cycle matches.  We do the
same in software: drive the gate-level netlist and the ISA simulator
with the same program and inputs, and compare the PC and OPORT pins at
every instruction boundary.

The gate side runs on a pluggable :mod:`repro.netlist.backend`.  Because
the stimulus (instruction bytes and IPORT samples) is derived entirely
from the ISA model, it is identical for every injected fault -- so
:func:`run_cross_check_batch` packs many faults into the lanes of one
backend instance and checks them all in a single run, the classic
parallel fault simulation strategy.
"""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.netlist.backend.base import resolve_backend
from repro.sim.memory import ProgramMemory  # noqa: F401  (re-export)


@dataclass
class CrossCheckResult:
    cycles: int
    mismatches: int
    first_mismatch: Optional[str]
    toggle_fraction: float
    mean_toggles: float

    @property
    def passed(self):
        return self.mismatches == 0


def run_cross_check(netlist, isa, program, inputs=None, max_instructions=500,
                    fault=None, backend=None, fastpath=True):
    """Run ``program`` on both models, comparing PC and OPORT.

    ``inputs`` is a list of IPORT samples presented as a held level and
    advanced once per architectural read (matching the functional
    model's pop semantics).  ``fault`` optionally injects a stuck-at
    fault: a ``(gate_name, value)`` pair forcing that gate's output --
    used by the yield model's fault-detection tests.  ``backend`` names
    the gate-level simulation backend (``"interpreted"`` /
    ``"compiled"`` / ``"vector"``; ``None`` picks ``compiled``, the
    lane-count rule's choice for one lane).  ``fastpath`` replays the
    ISA side through the predecoded page table (decode once per
    program instead of once per instruction); ``False`` keeps the
    per-instruction ``isa.decode`` reference replay.

    Only single-page programs can be cross-checked (the gate-level core
    is the bare die; the MMU is a separate component).
    """
    return run_cross_check_batch(
        netlist, isa, program, inputs=inputs,
        max_instructions=max_instructions, faults=[fault],
        backend=backend, fastpath=fastpath,
    )[0]


def run_cross_check_batch(netlist, isa, program, inputs=None,
                          max_instructions=500, faults=None, backend=None,
                          fastpath=True):
    """Cross-check one die per lane, all in as few runs as possible.

    ``faults`` is a sequence whose entries are ``None`` (healthy lane),
    ``(gate_name, stuck_value)`` pairs, or lists of such pairs (one
    multi-defect die per lane); the result list lines up with it.
    ``backend=None`` picks the backend from ``len(faults)``: compiled
    up to 64 lanes, vector above.  Fault lists longer than the
    backend's lane capacity are chunked (the interpreted reference is
    single-lane, so it degrades to the per-fault loop; the compiled
    backend takes 64 per run; the vector backend takes a whole
    wafer-scale campaign in one run).  Each
    lane's result -- mismatch count, first-mismatch message, and
    toggle statistics -- is bit-identical to a dedicated serial run,
    because every lane sees exactly the same ISA-derived stimulus.
    """
    image = program.image() if hasattr(program, "image") else bytes(program)
    if len(image) > 128:
        raise ValueError("cross-check supports single-page programs only")

    fault_list = list(faults) if faults is not None else [None]
    backend_cls = resolve_backend(backend, len(fault_list))
    chunk = max(1, backend_cls.max_lanes)
    input_values = list(inputs or [])
    results = []
    for start in range(0, len(fault_list), chunk):
        results.extend(_drive_chunk(
            backend_cls, netlist, isa, image, input_values,
            max_instructions, fault_list[start:start + chunk],
            fastpath,
        ))
    return results


def _drive_chunk(backend_cls, netlist, isa, image, input_values,
                 max_instructions, faults, fastpath=True):
    """One backend run: ``len(faults)`` lanes against one ISA replay.

    With ``fastpath`` the replay pulls each instruction (semantics,
    size, input-port read flag) from the page-0 predecode table, so the
    whole fault campaign decodes the program once; the ``fastpath=False``
    reference re-runs ``isa.decode`` every instruction.
    """
    from repro.isa.state import IPORT_ADDR

    table = None
    if fastpath:
        from repro.sim.predecode import predecode_image

        table = predecode_image(isa, image).page(0)

    lanes = len(faults)
    gate_sim = backend_cls(netlist, lanes=lanes)
    if any(fault is not None for fault in faults):
        gate_sim.set_fault_lanes(faults)

    state = isa.new_state()
    cursor = {"gate": 0, "isa": 0}

    def isa_input():
        if cursor["isa"] < len(input_values):
            value = input_values[cursor["isa"]]
            cursor["isa"] += 1
            return value
        return 0

    state.input_fn = isa_input

    mismatches = np.zeros(lanes, dtype=np.int64)
    firsts: List[Optional[str]] = [None] * lanes
    # Lanes still waiting for their first-mismatch message; keeping it
    # as a mask means a wafer of persistently-bad lanes costs one
    # vector op per boundary, not a Python loop per instruction.
    need_first = np.ones(lanes, dtype=bool)
    width = isa.word_bits

    for instruction_index in range(max_instructions):
        # ---- compare architectural state at the boundary, per lane ----
        pc_lanes = gate_sim.read_bus_lane_array("pc")
        oport_lanes = gate_sim.read_bus_lane_array("oport", width)
        isa_oport = state.mem[1]
        bad = (pc_lanes != state.pc) | (oport_lanes != isa_oport)
        if bad.any():
            mismatches += bad
            for lane in np.nonzero(bad & need_first)[0]:
                firsts[lane] = (
                    f"instruction {instruction_index}: "
                    f"pc gate={int(pc_lanes[lane])} isa={state.pc}, "
                    f"oport gate={int(oport_lanes[lane])} isa={isa_oport}"
                )
            need_first &= ~bad
        # ---- step the ISA model ----
        if table is not None:
            decoded = table.decoded[state.pc]
            if decoded is None:
                isa.decode(image + bytes(4), state.pc)  # raise faithfully
            will_read_input = table.reads_iport[state.pc]
        else:
            decoded = isa.decode(
                image + bytes(4), state.pc  # wrap margin
            )
            will_read_input = decoded.mnemonic != "store" and any(
                spec.kind.name == "MEMADDR" and operand == IPORT_ADDR
                for spec, operand in zip(
                    decoded.spec.operands, decoded.operands
                )
            )
        # Present the IPORT value this instruction would read, if any.
        gate_input = 0
        if will_read_input and cursor["gate"] < len(input_values):
            gate_input = input_values[cursor["gate"]]
            cursor["gate"] += 1
        isa.execute(state, decoded)
        # ---- step the gate-level core, one cycle per fetched byte ----
        for byte_offset in range(decoded.size):
            address = (decoded.address + byte_offset) % 128
            gate_sim.set_inputs({
                "instr": image[address] if address < len(image) else 0,
                "iport": gate_input,
            })
            gate_sim.step()
        if state.halted:
            break

    gate_sim.flush_obs()
    fractions, means = gate_sim.toggle_coverage_lanes()
    results = []
    for lane in range(lanes):
        results.append(CrossCheckResult(
            cycles=gate_sim.cycles,
            mismatches=int(mismatches[lane]),
            first_mismatch=firsts[lane],
            toggle_fraction=float(fractions[lane]),
            mean_toggles=float(means[lane]),
        ))
    return results
