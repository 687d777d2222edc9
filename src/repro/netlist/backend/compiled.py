"""Bit-parallel compiled backend: one lane per bit of a lane-wide int.

The netlist is *compiled* once: gates are levelized over a dense net
numbering, and the levelized program is specialized into a
straight-line settle kernel where every gate is one or two bitwise
operations on Python integers.  Bit ``l`` of a net's int is that net's
value in lane ``l`` -- the classic parallel-fault-simulation packing --
and a CPython int of any width is already a packed lane array whose
bitwise ops cost about 50 ns, so a single pass through the kernel
advances 64 fault candidates or a 65,536-die campaign alike.  The
``compiled`` and ``vector`` backends are this one class with two lane
caps (64, one machine word, and :data:`VECTOR_MAX_LANES`); the cap
decides only how :func:`~repro.netlist.verify.run_cross_check_batch`
chunks a campaign.

Stuck-at faults are burned into the kernel as per-gate lane masks
(``out = (f(out) & keep) | stuck``), bound as kernel globals rather
than emitted as literals (CPython refuses a decimal literal past 4,300
digits, about 14,300 lanes), which keeps the hot loop branch-free.  The
kernel is compiled once per fault set, on first use: the settle a
constructor or :meth:`set_fault_lanes` owes runs when the state is next
used, so a campaign chunk that installs its faults right after
construction compiles one kernel.

Toggle counting stays exact per lane.  A counted settle diffs the
combinational outputs, which are numbered contiguously in levelized
order, around the kernel (``old ^ new`` over one list slice), and adds
the change ints into bit-plane counters: plane ``p`` holds bit ``p`` of
every (gate, lane) count as one lane-wide int per gate.  Per-gate
per-lane counts match the interpreted reference bit for bit.  A backend
built with ``toggles=False`` keeps no counters at all.

Observability is lane-adjusted: a settle pass over ``lanes`` lanes is
charged as ``lanes`` passes (and ``lanes * gates`` evaluations), so
``gate_evaluations_total`` from a batched campaign equals the serial
total.
"""

from functools import reduce
from operator import or_, xor

import numpy as np

from repro import obs
from repro.netlist.backend.base import (
    SimBackend,
    lane_fault_list,
    register_backend,
)
from repro.netlist.levelize import levelize

#: Lanes of one machine word: the ``compiled`` cap, up to which
#: :func:`~repro.netlist.backend.resolve_backend` picks ``compiled``.
WORD_LANES = 64
#: Lane cap of the ``vector`` backend.  Soft bound: state is one
#: ``lanes``-bit int per net, plus one per gate per toggle bit-plane,
#: so 64k lanes of a 256-gate core is a few megabytes.
VECTOR_MAX_LANES = 1 << 16

#: 2**b for every bus bit b: the weights of a bus's per-lane bit rows.
_POWERS = np.left_shift(1, np.arange(63), dtype=np.int64)

#: Cell function -> bitwise expression template over input ints
#: {a}, {b}, {c} and the all-lanes mask M.
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
    """Levelized, int-packed evaluation of up to 64 lanes."""

    name = "compiled"
    max_lanes = WORD_LANES

    def __init__(self, netlist, lanes=1, toggles=True):
        if not 1 <= lanes <= self.max_lanes:
            raise ValueError(
                f"{self.name} backend supports 1..{self.max_lanes} "
                f"lanes, got {lanes}"
            )
        netlist.validate()
        self.netlist = netlist
        self._lanes = lanes
        #: All-lanes-high int; doubles as the constant-1 net value.
        self._mask = (1 << lanes) - 1
        self._comb = levelize(netlist)
        self._flops = [g for g in netlist.gates if g.sequential]
        self._gate_names = {g.name for g in netlist.gates}

        # Dense net numbering: constants, primary inputs, comb outputs
        # in levelized order, flop outputs -- so the comb outputs and
        # the flop outputs are each one contiguous slice of the state.
        ids = {}
        for net in netlist.constants:
            ids.setdefault(net, len(ids))
        for net in netlist.inputs:
            ids.setdefault(net, len(ids))
        self._comb_lo = len(ids)
        for gate in self._comb:
            ids[gate.output] = len(ids)
        self._flop_lo = len(ids)
        for gate in self._flops:
            ids[gate.output] = len(ids)
        self._net_ids = ids
        self._bus_cache = {}
        self._flop_d = [ids[g.inputs[0]] for g in self._flops]

        # Toggle rows: comb gates (levelized order) then flops.
        self._row_names = [g.name for g in self._comb] + [
            g.name for g in self._flops
        ]
        self._n_comb = len(self._comb)
        #: Bit-plane toggle counters, grown as counts cross powers of
        #: two; None when built without counters.
        self._planes = [] if toggles else None

        #: {comb position: (lane mask, stuck lanes)}.
        self._comb_fault = {}
        #: {flop position: (lane mask, stuck lanes)}.
        self._flop_fault = {}
        self._kernel = None   # compiled on first use per fault set
        self._pending = False  # an uncounted settle is owed

        self._cycles = 0
        self.gate_evaluations = 0
        self.settle_passes = 0

        # Net state: one lane-wide int per net.
        self._state = [0] * len(ids)
        for net, value in netlist.constants.items():
            self._state[ids[net]] = self._mask if value else 0
        self._owe_settle(lanes)

    # -- kernel specialization ----------------------------------------

    def _generate(self):
        """Emit and compile the straight-line settle kernel for the
        installed faults."""
        ids, mask = self._net_ids, self._mask
        namespace = {"_M": mask}
        lines = ["def kernel(V):", "    M = _M"]
        for position, gate in enumerate(self._comb):
            operands = {
                key: f"V[{ids[net]}]" for key, net in zip("abc", gate.inputs)
            }
            expr = _EXPRESSIONS[gate.cell.function].format(**operands)
            fault = self._comb_fault.get(position)
            if fault is not None:
                lanes, stuck = fault
                namespace[f"K{position}"] = mask ^ lanes
                namespace[f"S{position}"] = stuck
                expr = f"(({expr}) & K{position}) | S{position}"
            lines.append(f"    V[{self._comb_lo + position}] = {expr}")
        exec(compile("\n".join(lines),
                     f"<{self.name}:{self.netlist.name}>", "exec"), namespace)
        return namespace["kernel"]

    # -- SimBackend interface -----------------------------------------

    @property
    def lanes(self):
        return self._lanes

    @property
    def cycles(self):
        return self._cycles

    def set_inputs(self, assignments):
        self._sync()
        state, ids, mask = self._state, self._net_ids, self._mask
        for name, value in assignments.items():
            index = ids.get(name)
            if index is not None:
                self._validate_scalar(name, value)
                state[index] = mask if value else 0
                continue
            bus = self._bus_nets(name)
            if not bus:
                raise KeyError(f"no such input '{name}'")
            self._validate_bus(name, len(bus), value)
            for bit, net_index in enumerate(bus):
                state[net_index] = mask if (value >> bit) & 1 else 0

    def set_input_lanes(self, assignments):
        """Per-lane stimulus: one value per lane for each named input,
        so one run can carry several input streams -- each lane (die)
        sees its own value (see :meth:`SimBackend.set_input_lanes`)."""
        self._sync()
        for nets, bits in self._lane_input_bits(assignments):
            for index, word in zip(nets, self._pack(bits)):
                self._state[index] = word

    def set_fault_lanes(self, faults):
        faults = list(faults)
        if len(faults) > self._lanes:
            raise ValueError(
                f"{len(faults)} fault lanes for a "
                f"{self._lanes}-lane backend"
            )
        comb_positions = {g.name: i for i, g in enumerate(self._comb)}
        flop_positions = {g.name: i for i, g in enumerate(self._flops)}
        comb_fault, flop_fault = {}, {}
        injected = 0
        for lane, entry in enumerate(faults):
            for gate_name, stuck in lane_fault_list(entry):
                if gate_name not in self._gate_names:
                    raise KeyError(f"no gate named '{gate_name}'")
                injected += 1
                if gate_name in flop_positions:
                    table, key = flop_fault, flop_positions[gate_name]
                else:
                    table, key = comb_fault, comb_positions[gate_name]
                # OR-ing the stuck lanes holds a gate named at both
                # values at 1.
                mask, value = table.get(key, (0, 0))
                table[key] = (mask | 1 << lane, value | (stuck & 1) << lane)
        if not injected:
            self._sync()  # the owed settle ran under the old faults
        self._comb_fault, self._flop_fault = comb_fault, flop_fault
        self._kernel = None
        if injected:
            # Mirror the interpreter's inject_fault(): propagate the
            # faults without counting toggles, charging one settle per
            # injected fault (the serial reference settles once per
            # injection).
            self._owe_settle(injected)

    def clear_faults(self):
        if self._comb_fault or self._flop_fault:
            self._comb_fault, self._flop_fault = {}, {}
            self._kernel = None
            self._owe_settle(self._lanes)

    def step(self):
        self._sync()
        self._settle()
        self._edge()
        self._cycles += 1
        self._settle()

    def read_net(self, net, lane=0):
        self._check_lane(lane)
        self._sync()
        return (self._state[self._net_ids[net]] >> lane) & 1

    def read_bus(self, stem, width=None, lane=0):
        self._check_lane(lane)
        self._sync()
        value = 0
        for bit, index in enumerate(self._bus_ids(stem, width)):
            value |= ((self._state[index] >> lane) & 1) << bit
        return value

    def read_bus_lane_array(self, stem, width=None):
        self._sync()
        indices = self._bus_ids(stem, width)
        bits = self._unpack([self._state[i] for i in indices])
        return _POWERS[:len(indices)] @ bits

    def read_bus_lanes(self, stem, width=None):
        return self.read_bus_lane_array(stem, width).tolist()

    def toggles(self, lane=0):
        self._check_lane(lane)
        planes = self._toggle_planes()
        return {
            name: sum(((plane[row] >> lane) & 1) << depth
                      for depth, plane in enumerate(planes))
            for row, name in enumerate(self._row_names)
        }

    def toggle_coverage_lanes(self):
        planes = self._toggle_planes()
        total = len(self._row_names) or 1
        sums = np.zeros(self._lanes, dtype=np.int64)
        for depth, plane in enumerate(planes):
            sums += self._unpack(plane).sum(axis=0, dtype=np.int64) << depth
        toggled = [reduce(or_, counts) for counts in zip(*planes)]
        fractions = self._unpack(toggled).sum(axis=0, dtype=np.int64) / total
        return fractions, sums / total

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

    def _charge(self, lanes):
        self.settle_passes += lanes
        self.gate_evaluations += self._n_comb * lanes

    def _owe_settle(self, charge):
        """Charge an uncounted settle now and run it when the state is
        next used; a fault install before then supersedes it, since
        every settle rewrites every combinational net."""
        self._charge(charge)
        self._pending = True

    def _sync(self):
        """Run the owed settle, if any."""
        if self._pending:
            self._pending = False
            self._run_kernel()

    def _run_kernel(self):
        if self._kernel is None:
            self._kernel = self._generate()
        self._kernel(self._state)

    def _settle(self):
        """One counted settle pass."""
        self._charge(self._lanes)
        if self._planes is None:
            self._run_kernel()
            return
        state, lo, hi = self._state, self._comb_lo, self._flop_lo
        old = state[lo:hi]
        self._run_kernel()
        self._accumulate(map(xor, old, state[lo:hi]), 0)

    def _edge(self):
        state, mask = self._state, self._mask
        new = [state[d] for d in self._flop_d]
        for position, (lanes, stuck) in self._flop_fault.items():
            new[position] = (new[position] & (mask ^ lanes)) | stuck
        lo, hi = self._flop_lo, self._flop_lo + len(new)
        if self._planes is not None:
            self._accumulate(map(xor, state[lo:hi], new), self._n_comb)
        state[lo:hi] = new

    def _accumulate(self, changes, row):
        """Add one to every (row, lane) counter whose change bit is set:
        a ripple-carry add per row, where plane ``p`` absorbs the carry
        and forwards it where its bit was already set."""
        planes = self._planes
        for row, carry in enumerate(changes, row):
            if not carry:
                continue
            for plane in planes:
                held = plane[row]
                plane[row] = held ^ carry
                carry &= held
                if not carry:
                    break
            else:  # a count crossed a power of two: one more plane
                plane = [0] * len(self._row_names)
                plane[row] = carry
                planes.append(plane)

    def _toggle_planes(self):
        if self._planes is None:
            raise RuntimeError(
                f"this {self.name} backend was built with toggles=False "
                f"and keeps no toggle counters"
            )
        return self._planes

    def _unpack(self, words):
        """Lane bits of lane-wide ints as a ``(len(words), lanes)`` uint8
        matrix, lane ``l`` at column ``l``."""
        size = (self._lanes + 7) // 8
        raw = np.frombuffer(
            b"".join([word.to_bytes(size, "little") for word in words]),
            dtype=np.uint8,
        ).reshape(len(words), size)
        return np.unpackbits(raw, axis=1, bitorder="little")[:, :self._lanes]

    def _pack(self, bits):
        """Pack a ``(rows, lanes)`` 0/1 matrix into one lane-wide int per
        row (the inverse of :meth:`_unpack`)."""
        size = (self._lanes + 7) // 8
        raw = np.packbits(
            bits.astype(np.uint8), axis=1, bitorder="little"
        ).tobytes()
        return [int.from_bytes(raw[start:start + size], "little")
                for start in range(0, len(raw), size)]

    # Bus and lane helpers (`_bus_nets`, `_bus_ids`, `_check_lane`)
    # live on SimBackend.


@register_backend
class VectorBackend(CompiledBackend):
    """The same kernel with a wafer-scale lane cap: one run advances
    every die of a multi-wafer campaign."""

    name = "vector"
    max_lanes = VECTOR_MAX_LANES
