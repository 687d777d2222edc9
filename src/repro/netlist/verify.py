"""Gate-level vs ISA-level cross-verification (the Section 4.1 test flow).

The paper derives chip test vectors from RTL simulation and counts a die
functional only when every output of every cycle matches.  We do the
same in software: drive the gate-level netlist and the ISA simulator
with the same program and inputs, and compare the PC and OPORT pins at
every instruction boundary.

The gate side runs on a pluggable :mod:`repro.netlist.backend`.  The
stimulus (instruction bytes and IPORT samples) is derived entirely from
an ISA replay of the program, never from the gate side, so
:func:`run_cross_check_batch` packs many faults into the lanes of one
backend instance and checks them all in a single run -- the classic
parallel fault simulation strategy.  Lanes may also carry their own
IPORT streams (``lane_inputs``): the ISA is replayed once per distinct
stream, and lanes whose replays fetch the same instructions still share
one run, with IPORT set per lane.  This is how one campaign probes the
dies of several wafers, each wafer with its own input samples.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.netlist.backend.base import resolve_backend
from repro.sim.memory import ProgramMemory  # noqa: F401  (re-export)


@dataclass
class CrossCheckResult:
    cycles: int
    mismatches: int
    first_mismatch: Optional[str]
    #: Toggle statistics; None from a ``toggles=False`` campaign.
    toggle_fraction: Optional[float]
    mean_toggles: Optional[float]

    @property
    def passed(self):
        return self.mismatches == 0


@dataclass
class _Replay:
    """One ISA run of the program on one IPORT stream.

    Row ``i`` describes instruction boundary ``i``: the PC and OPORT the
    gate core must show there, then the fetch ``(address, size)`` and
    the IPORT value presented while that instruction's bytes clock in.
    """

    pc: np.ndarray
    oport: np.ndarray
    iport: np.ndarray
    fetches: Tuple[Tuple[int, int], ...]


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
    ISA side through the predecoded page table (each offset decoded
    once per program instead of once per instruction); ``False`` keeps
    the per-instruction ``isa.decode`` reference replay.

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
                          fastpath=True, lane_inputs=None, toggles=True):
    """Cross-check one die per lane, all in as few runs as possible.

    ``faults`` is a sequence whose entries are ``None`` (healthy lane),
    ``(gate_name, stuck_value)`` pairs, or lists of such pairs (one
    multi-defect die per lane); the result list lines up with it.
    ``inputs`` is the IPORT stream every lane sees; ``lane_inputs``
    instead gives one stream per lane, aligned with ``faults``.

    ``backend=None`` picks the backend from ``len(faults)``: compiled
    up to 64 lanes, vector above.  The ISA is replayed once per
    distinct stream, and lanes whose replays fetch the same
    instructions run together, chunked to the backend's lane capacity
    (the interpreted reference is single-lane, so it degrades to the
    per-fault loop; the compiled backend takes 64 per run; the vector
    backend takes a whole multi-wafer campaign in one run).  A chunk
    whose lanes carry several streams sets IPORT per lane.  Lanes
    whose streams change the control flow fetch differently and run
    as separate groups.

    Each lane's result -- mismatch count, first-mismatch message, and
    toggle statistics -- is bit-identical to a dedicated serial run,
    because every lane sees exactly the stimulus its own ISA replay
    derives.  ``toggles=False`` builds backends without toggle
    counters, for callers that read only the mismatches: every other
    field is unchanged, and ``toggle_fraction`` and ``mean_toggles``
    are None.
    """
    image = program.image() if hasattr(program, "image") else bytes(program)
    if len(image) > 128:
        raise ValueError("cross-check supports single-page programs only")

    fault_list = list(faults) if faults is not None else [None]
    if lane_inputs is None:
        streams = {tuple(inputs or []): 0}
        lane_stream = [0] * len(fault_list)
    else:
        if inputs is not None:
            raise ValueError("pass inputs or lane_inputs, not both")
        lane_inputs = list(lane_inputs)
        if len(lane_inputs) != len(fault_list):
            raise ValueError(
                f"lane_inputs has {len(lane_inputs)} streams for "
                f"{len(fault_list)} lanes"
            )
        streams = {}
        lane_stream = [
            streams.setdefault(tuple(stream), len(streams))
            for stream in lane_inputs
        ]
    if not fault_list:
        return []
    replays = [
        _replay(isa, image, stream, max_instructions, fastpath)
        for stream in streams
    ]
    # Key groups by each distinct stream's fetches once, not per lane:
    # hashing a replay's fetch tuple costs a pass over it.
    groups = {}
    stream_lanes = [groups.setdefault(replay.fetches, [])
                    for replay in replays]
    for lane, stream in enumerate(lane_stream):
        stream_lanes[stream].append(lane)

    backend_cls = resolve_backend(backend, len(fault_list))
    chunk = max(1, backend_cls.max_lanes)
    results = [None] * len(fault_list)
    for lanes in groups.values():
        for start in range(0, len(lanes), chunk):
            part = lanes[start:start + chunk]
            outcomes = _drive_chunk(
                backend_cls, netlist, isa, image,
                [fault_list[lane] for lane in part],
                [replays[lane_stream[lane]] for lane in part], toggles,
            )
            for lane, outcome in zip(part, outcomes):
                results[lane] = outcome
    return results


def _replay(isa, image, input_values, max_instructions, fastpath=True):
    """Run the ISA model over ``image`` with one IPORT stream.

    With ``fastpath`` the replay pulls each instruction (semantics,
    size, input-port read flag) from the page-0 predecode table, so a
    whole fault campaign decodes each fetched offset once; the
    ``fastpath=False`` reference re-runs ``isa.decode`` every
    instruction.
    """
    from repro.isa.state import IPORT_ADDR

    table = None
    if fastpath:
        from repro.sim.predecode import predecode_image

        table = predecode_image(isa, image).page(0)

    state = isa.new_state()
    cursor = {"gate": 0, "isa": 0}

    def isa_input():
        if cursor["isa"] < len(input_values):
            value = input_values[cursor["isa"]]
            cursor["isa"] += 1
            return value
        return 0

    state.input_fn = isa_input
    rows = []
    for _ in range(max_instructions):
        boundary = (state.pc, state.mem[1])
        if table is not None:
            decoded = table.entry(state.pc)
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
        # The IPORT value this instruction reads, if any, is what the
        # gate core sees on its pins while the instruction clocks in.
        gate_input = 0
        if will_read_input and cursor["gate"] < len(input_values):
            gate_input = input_values[cursor["gate"]]
            cursor["gate"] += 1
        isa.execute(state, decoded)
        rows.append((*boundary, decoded.address, decoded.size, gate_input))
        if state.halted:
            break

    columns = np.array(rows, dtype=np.int64).reshape(-1, 5).T
    return _Replay(
        pc=columns[0], oport=columns[1], iport=columns[4],
        fetches=tuple((row[2], row[3]) for row in rows),
    )


def _drive_chunk(backend_cls, netlist, isa, image, faults, replays,
                 toggles):
    """One backend run: ``len(faults)`` lanes, lane ``l`` checked
    against ``replays[l]``.  Every replay fetches the same bytes."""
    lanes = len(faults)
    gate_sim = backend_cls(netlist, lanes=lanes, toggles=toggles)
    if any(fault is not None for fault in faults):
        gate_sim.set_fault_lanes(faults)

    shared = replays[0]
    # (boundaries, lanes) expectations: column l is lane l's replay.
    expected_pc = np.stack([replay.pc for replay in replays], axis=1)
    expected_oport = np.stack([replay.oport for replay in replays], axis=1)
    lane_iports = None
    if any(replay is not shared for replay in replays):
        lane_iports = np.stack([replay.iport for replay in replays], axis=1)

    mismatches = np.zeros(lanes, dtype=np.int64)
    firsts: List[Optional[str]] = [None] * lanes
    # Lanes still waiting for their first-mismatch message; keeping it
    # as a mask means a wafer of persistently-bad lanes costs one
    # vector op per boundary, not a Python loop per instruction.
    need_first = np.ones(lanes, dtype=bool)
    width = isa.word_bits

    for index, (address, size) in enumerate(shared.fetches):
        # ---- compare architectural state at the boundary, per lane ----
        pc_lanes = gate_sim.read_bus_lane_array("pc")
        oport_lanes = gate_sim.read_bus_lane_array("oport", width)
        isa_pc, isa_oport = expected_pc[index], expected_oport[index]
        bad = (pc_lanes != isa_pc) | (oport_lanes != isa_oport)
        if bad.any():
            mismatches += bad
            for lane in np.nonzero(bad & need_first)[0]:
                firsts[lane] = (
                    f"instruction {index}: "
                    f"pc gate={int(pc_lanes[lane])} "
                    f"isa={int(isa_pc[lane])}, "
                    f"oport gate={int(oport_lanes[lane])} "
                    f"isa={int(isa_oport[lane])}"
                )
            need_first &= ~bad
        # ---- step the gate-level core, one cycle per fetched byte ----
        if lane_iports is None:
            stimulus = {"iport": int(shared.iport[index])}
        else:
            gate_sim.set_input_lanes({"iport": lane_iports[index]})
            stimulus = {}
        for byte_offset in range(size):
            byte_address = (address + byte_offset) % 128
            stimulus["instr"] = (
                image[byte_address] if byte_address < len(image) else 0
            )
            gate_sim.set_inputs(stimulus)
            gate_sim.step()

    gate_sim.flush_obs()
    fractions = means = [None] * lanes
    if toggles:
        fractions, means = (
            array.tolist() for array in gate_sim.toggle_coverage_lanes()
        )
    return [
        CrossCheckResult(
            cycles=gate_sim.cycles,
            mismatches=int(mismatches[lane]),
            first_mismatch=firsts[lane],
            toggle_fraction=fractions[lane],
            mean_toggles=means[lane],
        )
        for lane in range(lanes)
    ]
