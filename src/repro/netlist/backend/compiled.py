"""Bit-parallel compiled backend: 64 simulation lanes per settle pass.

The netlist is *compiled* once: gates are levelized into flat index
arrays over a dense net numbering, and the levelized program is
specialized into a straight-line settle kernel where every gate is one
or two bitwise operations on 64-bit integer words.  Bit ``l`` of a
net's word is that net's value in lane ``l`` -- the classic
parallel-fault-simulation packing -- so a single pass through the
kernel advances up to 64 independent stuck-at faults (or Monte Carlo
dies) at once.

Stuck-at faults are burned into the kernel as per-gate lane masks
(``out = (f(out) & ~mask) | stuck``), which keeps the hot loop
branch-free; installing a new fault set just re-specializes the kernel
(a few milliseconds, once per 64-fault chunk).  Toggle counting stays
exact per lane: each counted pass records every gate's change word
(``old ^ new``) and accumulates the unpacked bits into a
``(gates, 64)`` counter matrix with numpy bitwise ops, so per-gate
per-lane toggle counts match the interpreted reference bit for bit.

Observability is lane-adjusted: a settle pass over ``lanes`` lanes is
charged as ``lanes`` passes (and ``lanes * gates`` evaluations), so
``gate_evaluations_total`` from a batched campaign equals the serial
total.
"""

import numpy as np

from repro import obs
from repro.netlist.backend.base import (
    SimBackend,
    lane_fault_list,
    register_backend,
)
from repro.netlist.levelize import levelize

#: Lanes packed into one machine word (one bit per lane).
WORD_LANES = 64
#: All-lanes-high word; doubles as the constant-1 net value.
FULL_MASK = (1 << WORD_LANES) - 1

#: Cell function -> bitwise expression template over input words
#: {a}, {b}, {c} and the all-ones mask M.
_EXPRESSIONS = {
    "buf": "{a}",
    "inv": "{a} ^ M",
    "nand2": "({a} & {b}) ^ M",
    "nor2": "({a} | {b}) ^ M",
    "xor2": "{a} ^ {b}",
    "xnor2": "({a} ^ {b}) ^ M",
    # (a, b, sel): b when sel else a, lane-wise.
    "mux2": "{a} ^ (({a} ^ {b}) & {c})",
}


@register_backend
class CompiledBackend(SimBackend):
    """Levelized, word-packed evaluation of up to 64 lanes."""

    name = "compiled"
    max_lanes = WORD_LANES

    def __init__(self, netlist, lanes=1):
        if not 1 <= lanes <= WORD_LANES:
            raise ValueError(
                f"compiled backend supports 1..{WORD_LANES} lanes, "
                f"got {lanes}"
            )
        netlist.validate()
        self.netlist = netlist
        self._lanes = lanes
        self._comb = levelize(netlist)
        self._flops = [g for g in netlist.gates if g.sequential]
        self._gate_names = {g.name for g in netlist.gates}

        # Dense net numbering: constants, primary inputs, gate outputs.
        ids = {}
        for net in netlist.constants:
            ids.setdefault(net, len(ids))
        for net in netlist.inputs:
            ids.setdefault(net, len(ids))
        for gate in netlist.gates:
            ids.setdefault(gate.output, len(ids))
        self._net_ids = ids

        # Flat levelized index arrays: the compiled program.  The
        # generated kernel is a specialization of exactly these arrays.
        self._comb_out = np.array(
            [ids[g.output] for g in self._comb], dtype=np.int32
        )
        self._comb_in = [
            np.array([ids[n] for n in g.inputs], dtype=np.int32)
            for g in self._comb
        ]
        self._flop_dq = [
            (ids[g.inputs[0]], ids[g.output]) for g in self._flops
        ]

        # Toggle counters: rows are comb gates (levelized order) then
        # flops; one column per lane.
        self._row_names = [g.name for g in self._comb] + [
            g.name for g in self._flops
        ]
        count = len(self._row_names)
        self._n_comb = len(self._comb)
        # Sized by the active lane count, not WORD_LANES: a 10-lane
        # final chunk should not pay for 54 idle padding columns.
        self._toggle_bits = np.zeros((count, lanes), dtype=np.uint64)
        self._shifts = np.arange(WORD_LANES, dtype=np.uint64)
        self._one = np.uint64(1)
        self._comb_changed = [0] * self._n_comb
        self._flop_changed = [0] * len(self._flops)

        #: Per-gate fault patches: {gate name: [lane mask, stuck word]}.
        self._comb_fault = {}
        self._flop_fault = {}

        self._cycles = 0
        self.gate_evaluations = 0
        self.settle_passes = 0

        # Net state: one 64-lane word per net.
        self._state = [0] * len(ids)
        for net, value in netlist.constants.items():
            self._state[ids[net]] = FULL_MASK if value else 0
        self._bus_cache = {}

        self._specialize()
        self._settle(count=False)

    # -- kernel specialization ----------------------------------------

    def _specialize(self):
        self._kernel_count = self._generate(count=True)
        self._kernel_nocount = self._generate(count=False)

    def _generate(self, count):
        """Emit and compile one straight-line settle kernel."""
        lines = ["def kernel(V, T):" if count else "def kernel(V):",
                 f"    M = {FULL_MASK}"]
        for position, gate in enumerate(self._comb):
            operands = {
                key: f"V[{net}]"
                for key, net in zip("abc", self._comb_in[position])
            }
            expr = _EXPRESSIONS[gate.cell.function].format(**operands)
            patch = self._comb_fault.get(gate.name)
            if patch is not None:
                mask, stuck = patch
                expr = f"(({expr}) & {FULL_MASK ^ mask}) | {stuck}"
            out = self._comb_out[position]
            if count:
                lines.append(f"    t = {expr}")
                lines.append(f"    T[{position}] = V[{out}] ^ t")
                lines.append(f"    V[{out}] = t")
            else:
                lines.append(f"    V[{out}] = {expr}")
        namespace = {}
        exec(compile("\n".join(lines),
                     f"<compiled:{self.netlist.name}>", "exec"), namespace)
        return namespace["kernel"]

    # -- SimBackend interface -----------------------------------------

    @property
    def lanes(self):
        return self._lanes

    @property
    def cycles(self):
        return self._cycles

    def set_inputs(self, assignments):
        state, ids = self._state, self._net_ids
        for name, value in assignments.items():
            index = ids.get(name)
            if index is not None:
                self._validate_scalar(name, value)
                state[index] = FULL_MASK if value else 0
                continue
            bus = self._bus_nets(name)
            if not bus:
                raise KeyError(f"no such input '{name}'")
            self._validate_bus(name, len(bus), value)
            for bit, net_index in enumerate(bus):
                state[net_index] = (
                    FULL_MASK if (value >> bit) & 1 else 0
                )

    def set_input_lanes(self, assignments):
        """Per-lane stimulus: one value per lane for each named input,
        so one run of up to 64 lanes can carry several input streams
        (see :meth:`SimBackend.set_input_lanes`)."""
        shifts = self._shifts[:self._lanes]
        for nets, bits in self._lane_input_bits(assignments):
            words = np.bitwise_or.reduce(
                bits.astype(np.uint64) << shifts, axis=1
            )
            for index, word in zip(nets, words.tolist()):
                self._state[index] = word

    def set_fault_lanes(self, faults):
        faults = list(faults)
        if len(faults) > self._lanes:
            raise ValueError(
                f"{len(faults)} fault lanes for a "
                f"{self._lanes}-lane backend"
            )
        self._comb_fault = {}
        self._flop_fault = {}
        flop_positions = {g.name: i for i, g in enumerate(self._flops)}
        injected = 0
        for lane, entry in enumerate(faults):
            for gate_name, stuck in lane_fault_list(entry):
                if gate_name not in self._gate_names:
                    raise KeyError(f"no gate named '{gate_name}'")
                injected += 1
                table = (self._flop_fault if gate_name in flop_positions
                         else self._comb_fault)
                key = (flop_positions[gate_name]
                       if gate_name in flop_positions else gate_name)
                mask, value = table.get(key, (0, 0))
                mask |= 1 << lane
                if stuck & 1:
                    value |= 1 << lane
                table[key] = (mask, value)
        self._specialize()
        if injected:
            # Mirror the interpreter's inject_fault(): propagate the
            # faults without counting toggles, charging one settle per
            # injected fault (the serial reference settles once per
            # injection).
            self._settle(count=False, charge_lanes=injected)

    def clear_faults(self):
        had_faults = bool(self._comb_fault or self._flop_fault)
        self._comb_fault = {}
        self._flop_fault = {}
        self._specialize()
        if had_faults:
            self._settle(count=False)

    def step(self):
        self._settle(count=True)
        self._edge()
        self._cycles += 1
        self._settle(count=True)

    def read_net(self, net, lane=0):
        self._check_lane(lane)
        return (self._state[self._net_ids[net]] >> lane) & 1

    def read_bus(self, stem, width=None, lane=0):
        self._check_lane(lane)
        value = 0
        for bit, index in enumerate(self._bus_ids(stem, width)):
            value |= ((self._state[index] >> lane) & 1) << bit
        return value

    def read_bus_lane_array(self, stem, width=None):
        indices = self._bus_ids(stem, width)
        words = np.array([self._state[i] for i in indices],
                         dtype=np.uint64)
        bits = (words[:, None] >> self._shifts) & self._one
        powers = np.left_shift(1, np.arange(len(indices)),
                               dtype=np.int64)
        values = bits.astype(np.int64).T @ powers
        return values[:self._lanes]

    def read_bus_lanes(self, stem, width=None):
        return self.read_bus_lane_array(stem, width).tolist()

    def toggles(self, lane=0):
        self._check_lane(lane)
        column = self._toggle_bits[:, lane]
        return {name: int(count)
                for name, count in zip(self._row_names, column)}

    def toggle_coverage_lanes(self):
        counts = self._toggle_bits
        total = len(self._row_names) or 1
        fractions = np.count_nonzero(counts, axis=0) / total
        means = counts.sum(axis=0, dtype=np.int64) / total
        return fractions, means

    def flush_obs(self):
        if not obs.active():
            return
        registry = obs.registry()
        registry.counter(
            "gate_evaluations_total",
            "Individual gate evaluations in the gate-level simulator",
        ).inc(self.gate_evaluations)
        registry.counter(
            "gate_settle_passes_total",
            "Combinational settle passes",
        ).inc(self.settle_passes)
        registry.counter(
            "gate_sim_cycles_total", "Gate-level clock cycles",
        ).inc(self._cycles * self._lanes)
        self.gate_evaluations = 0
        self.settle_passes = 0

    # -- evaluation ----------------------------------------------------

    def _settle(self, count=True, charge_lanes=None):
        charge = self._lanes if charge_lanes is None else charge_lanes
        self.settle_passes += charge
        self.gate_evaluations += self._n_comb * charge
        if count:
            changed = self._comb_changed
            self._kernel_count(self._state, changed)
            self._accumulate(changed, 0)
        else:
            self._kernel_nocount(self._state)

    def _edge(self):
        state = self._state
        new = [state[d] for d, _ in self._flop_dq]
        for position, (mask, stuck) in self._flop_fault.items():
            new[position] = (new[position] & (FULL_MASK ^ mask)) | stuck
        changed = self._flop_changed
        for position, (_, q) in enumerate(self._flop_dq):
            changed[position] = state[q] ^ new[position]
            state[q] = new[position]
        if changed:
            self._accumulate(changed, self._n_comb)

    def _accumulate(self, changed, row_offset):
        words = np.array(changed, dtype=np.uint64)
        rows = slice(row_offset, row_offset + len(changed))
        self._toggle_bits[rows] += (
            (words[:, None] >> self._shifts[:self._lanes]) & self._one
        )

    # Bus and lane helpers (`_bus_nets`, `_bus_ids`, `_check_lane`)
    # are shared with the vector backend and live on SimBackend.
