"""Wafer-scale vector backend: NumPy lane arrays, ``64 x words`` lanes.

The compiled backend tops out at 64 lanes because a lane is one bit of
one machine word.  This backend re-specializes the same levelized
program over NumPy ``uint64`` arrays of shape ``(words,)`` per net --
lane ``l`` lives in bit ``l % 64`` of word ``l // 64`` -- so capacity
becomes ``64 x words`` lanes and one settle pass advances *every die
on a wafer* (or a whole multi-thousand-fault campaign) at once.

A straight port of the compiled kernel (one numpy op per gate) would
drown in per-call overhead: the cores here average under four gates
per (level, cell function) group, so the arrays are tiny and the ~1 us
fixed cost per numpy op dominates.  Three structural choices keep the
hot path wide instead:

- **Group-ordered net numbering.**  Comb outputs are numbered in
  evaluation-group order (then flop outputs), so every group writes a
  *contiguous slice* of the state matrix (``V[o0:o1] = ...``), the
  clock edge updates one flop slice, and the settle's old/new toggle
  diff is two slice ops instead of fancy gathers.
- **One gather per level, families not functions.**  Each level does a
  single fancy gather of every operand it needs (``S = V[L]``), then
  evaluates at most three *function families* on cheap basic slices of
  ``S``: the XOR family (buf / inv / xor2 / xnor2, unified as
  ``x ^ y ^ P`` with a virtual constant-zero operand), the AND family
  (nand2 / nor2, unified as ``((a ^ Pa) & (b ^ Pb)) ^ Po`` via De
  Morgan), and mux2.  Polarity masks ``P`` are per-gate ``(n, 1)``
  constants, elided when uniform.  A settle drops from ~330 numpy
  calls to well under half that.
- **Bit-plane toggle counters.**  Unpacking every change word into a
  ``(gates, lanes)`` counter matrix per pass is O(gates x lanes) with
  a dtype conversion.  Instead per-gate per-lane counts are kept as
  *bit-planes* -- plane ``p`` holds bit ``p`` of every counter, as a
  ``(gates, words)`` uint64 array -- and a settle's change matrix is
  added with a ripple-carry loop (``plane ^= carry; carry &= old``).
  Counts stay exact; they are re-assembled into integers only when
  read.

Per-gate stuck-at faults generalize to per-gate ``(words,)`` lane-mask
arrays applied after the gate's level (``V[R] = (V[R] & K) | S``), so
a lane can carry *several* faults -- the natural encoding of one die's
multi-defect draw from the yield model.  Everything else (inputs and
clock shared across lanes, lane-adjusted obs accounting, bit-exact
toggle counts) matches the compiled backend and therefore the
interpreted reference.
"""

from collections import defaultdict

import numpy as np

from repro import obs
from repro.netlist.backend.base import (
    SimBackend,
    lane_fault_list,
    register_backend,
)
from repro.netlist.backend.compiled import FULL_MASK, WORD_LANES
from repro.netlist.levelize import levelize

#: Lane capacity of one vector-backend instance.  Soft bound: memory is
#: ``nets x words`` state words plus ``gates x words`` words per toggle
#: bit-plane, so 64k lanes of a 256-gate core is a few megabytes.
VECTOR_MAX_LANES = 1 << 16

#: np.unpackbits(bitorder="little") over a uint8 view of uint64 words
#: yields lane l at column l only on little-endian hosts; big-endian
#: falls back to the (slower) shift-based unpack.
_LITTLE_ENDIAN = np.dtype(np.uint64).byteorder in ("<", "=") and (
    __import__("sys").byteorder == "little"
)

#: buf/inv/xor2/xnor2 as ``x ^ y ^ P`` (y is the virtual zero for the
#: one-input cells); nand2/nor2 as ``((a ^ Pa) & (b ^ Pb)) ^ Po``.
_XOR_FAMILY = {"buf": 0, "inv": 1, "xor2": 0, "xnor2": 1}
_AND_FAMILY = {"nand2": (0, 0, 1), "nor2": (1, 1, 0)}


@register_backend
class VectorBackend(SimBackend):
    """Levelized, array-packed evaluation of up to 64k lanes."""

    name = "vector"
    max_lanes = VECTOR_MAX_LANES

    def __init__(self, netlist, lanes=1):
        if not 1 <= lanes <= VECTOR_MAX_LANES:
            raise ValueError(
                f"vector backend supports 1..{VECTOR_MAX_LANES} lanes, "
                f"got {lanes}"
            )
        netlist.validate()
        self.netlist = netlist
        self._lanes = lanes
        self._words = -(-lanes // WORD_LANES)
        comb = levelize(netlist)
        self._flops = [g for g in netlist.gates if g.sequential]
        self._gate_names = {g.name for g in netlist.gates}
        self._outputs_by_gate = {g.name: g.output for g in netlist.gates}

        # ASAP levels over the levelized order.
        net_level = defaultdict(int)
        gate_level = {}
        for gate in comb:
            level = max((net_level[n] for n in gate.inputs), default=0)
            gate_level[gate.name] = level
            net_level[gate.output] = level + 1
        level_count = (max(gate_level.values(), default=-1)) + 1

        # Evaluation-group order: level, then family (xor / and / mux),
        # then levelized order within -- this IS the comb output net
        # numbering, so each group scatters to a contiguous slice.
        def family_of(gate):
            function = gate.cell.function
            if function in _XOR_FAMILY:
                return 0
            if function in _AND_FAMILY:
                return 1
            return 2  # mux2

        schedule = []  # [(level, [xor gates], [and gates], [mux gates])]
        for level in range(level_count):
            members = [g for g in comb if gate_level[g.name] == level]
            schedule.append((
                level,
                [g for g in members if family_of(g) == 0],
                [g for g in members if family_of(g) == 1],
                [g for g in members if family_of(g) == 2],
            ))
        self._comb = [
            gate
            for _, xor_gates, and_gates, mux_gates in schedule
            for gate in (*xor_gates, *and_gates, *mux_gates)
        ]
        self._gate_levels = [gate_level[g.name] for g in self._comb]

        # Dense net numbering: constants, primary inputs, comb outputs
        # in group order, flop outputs, one virtual constant-zero row.
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
        self._zero_row = len(ids)
        self._net_ids = ids
        self._bus_cache = {}
        self._schedule = schedule

        # Toggle rows: comb gates (group order) then flops.
        self._row_names = [g.name for g in self._comb] + [
            g.name for g in self._flops
        ]
        self._n_comb = len(self._comb)
        self._rows = len(self._row_names)
        self._flop_d = np.array(
            [ids[g.inputs[0]] for g in self._flops], dtype=np.intp
        )
        self._planes = []          # bit-plane toggle counters
        self._counts_cache = None  # lazily assembled (rows, lanes) ints
        self._shifts = np.arange(WORD_LANES, dtype=np.uint64)
        self._one = np.uint64(1)
        self._old_comb = np.empty((self._n_comb, self._words),
                                  dtype=np.uint64)

        #: {gate name: (lane mask int, stuck int)} over all lanes.
        self._comb_fault = {}
        #: {flop position: (lane mask int, stuck int)}.
        self._flop_fault = {}
        self._flop_patch = None  # (rows, keep, stuck) arrays at the edge

        self._cycles = 0
        self.gate_evaluations = 0
        self.settle_passes = 0

        # Net state: one (words,) lane array per net (plus the virtual
        # zero row, which is never written).
        self._state = np.zeros(
            (self._zero_row + 1, self._words), dtype=np.uint64
        )
        full = np.uint64(FULL_MASK)
        for net, value in netlist.constants.items():
            if value:
                self._state[ids[net], :] = full

        self._specialize()
        self._settle(count=False)

    # -- kernel specialization ----------------------------------------

    def _specialize(self):
        """Emit and compile the level-gather settle kernel.

        One fancy gather per level, then one expression per function
        family over basic slices of the gathered block, scattering to
        the level's contiguous output slices.  Per-level fault patches
        follow the level's writes so every downstream reader sees the
        forced value.  Index and polarity arrays are burned into the
        kernel's globals; the hot path is pure vector ops.
        """
        ids = self._net_ids
        namespace = {"M": np.uint64(FULL_MASK)}
        lines = ["def kernel(V):"]
        patches = self._level_patches()
        out_cursor = self._comb_lo

        def polarity(name, values):
            """Bind a polarity mask; '' when uniformly zero, ' ^ M'
            when uniformly one, else a per-gate (n, 1) column."""
            if not any(values):
                return ""
            if all(values):
                return " ^ M"
            namespace[name] = np.array(
                [FULL_MASK if v else 0 for v in values], dtype=np.uint64
            ).reshape(-1, 1)
            return f" ^ {name}"

        for level, xor_gates, and_gates, mux_gates in self._schedule:
            gather = []

            def operand(net):
                gather.append(ids[net])

            base = 0
            spans = {}
            for key, arity, gates in (
                ("x", 2, xor_gates), ("a", 2, and_gates),
                ("m", 3, mux_gates),
            ):
                for position in range(arity):
                    for gate in gates:
                        if key == "x" and position == 1:
                            if gate.cell.function in ("buf", "inv"):
                                gather.append(self._zero_row)
                            else:
                                operand(gate.inputs[1])
                        else:
                            operand(gate.inputs[position])
                    spans[(key, position)] = (base, base + len(gates))
                    base += len(gates)
            if not gather:
                continue
            namespace[f"L{level}"] = np.array(gather, dtype=np.intp)
            lines.append(f"    S = V[L{level}]")

            for key, gates, emit in (
                ("x", xor_gates, self._emit_xor),
                ("a", and_gates, self._emit_and),
                ("m", mux_gates, self._emit_mux),
            ):
                if not gates:
                    continue
                out = (out_cursor, out_cursor + len(gates))
                out_cursor = out[1]
                lines.append(emit(
                    level, gates, spans, out, polarity
                ))
            patch = patches.get(level)
            if patch is not None:
                rows, keep, stuck = patch
                namespace[f"P{level}r"] = rows
                namespace[f"P{level}k"] = keep
                namespace[f"P{level}s"] = stuck
                lines.append(
                    f"    V[P{level}r] = "
                    f"(V[P{level}r] & P{level}k) | P{level}s"
                )
        if len(lines) == 1:
            lines.append("    pass")
        exec(compile("\n".join(lines),
                     f"<vector:{self.netlist.name}>", "exec"), namespace)
        self._kernel = namespace["kernel"]
        self._flop_patch = self._edge_patch()

    @staticmethod
    def _emit_xor(level, gates, spans, out, polarity):
        x0, x1 = spans[("x", 0)]
        y0, y1 = spans[("x", 1)]
        suffix = polarity(
            f"X{level}",
            [_XOR_FAMILY[g.cell.function] for g in gates],
        )
        return (f"    V[{out[0]}:{out[1]}] = "
                f"S[{x0}:{x1}] ^ S[{y0}:{y1}]{suffix}")

    @staticmethod
    def _emit_and(level, gates, spans, out, polarity):
        a0, a1 = spans[("a", 0)]
        b0, b1 = spans[("a", 1)]
        pa = polarity(
            f"A{level}a", [_AND_FAMILY[g.cell.function][0] for g in gates]
        )
        pb = polarity(
            f"A{level}b", [_AND_FAMILY[g.cell.function][1] for g in gates]
        )
        po = polarity(
            f"A{level}o", [_AND_FAMILY[g.cell.function][2] for g in gates]
        )
        left = f"S[{a0}:{a1}]{pa}" if pa else f"S[{a0}:{a1}]"
        right = f"S[{b0}:{b1}]{pb}" if pb else f"S[{b0}:{b1}]"
        if pa:
            left = f"({left})"
        if pb:
            right = f"({right})"
        body = f"{left} & {right}"
        if po:
            body = f"({body}){po}"
        return f"    V[{out[0]}:{out[1]}] = {body}"

    @staticmethod
    def _emit_mux(level, gates, spans, out, polarity):
        a0, a1 = spans[("m", 0)]
        b0, b1 = spans[("m", 1)]
        c0, c1 = spans[("m", 2)]
        # (a, b, sel): b when sel else a, lane-wise.
        return (f"    V[{out[0]}:{out[1]}] = "
                f"S[{a0}:{a1}] ^ ((S[{a0}:{a1}] ^ S[{b0}:{b1}]) "
                f"& S[{c0}:{c1}])")

    def _mask_words(self, mask):
        """Split a python-int lane mask into a ``(words,)`` uint64 array."""
        full = FULL_MASK
        return np.array(
            [(mask >> (WORD_LANES * w)) & full for w in range(self._words)],
            dtype=np.uint64,
        )

    def _all_lanes_mask(self):
        """All-ones python-int mask over every word (not just 64 lanes)."""
        return (1 << (WORD_LANES * self._words)) - 1

    def _level_patches(self):
        """{level: (net rows, keep, stuck)} for the faulted comb gates."""
        if not self._comb_fault:
            return {}
        gate_level = {
            gate.name: level
            for gate, level in zip(self._comb, self._gate_levels)
        }
        per_level = defaultdict(list)
        for name, (mask, stuck) in self._comb_fault.items():
            per_level[gate_level[name]].append((name, mask, stuck))
        patches = {}
        all_lanes = self._all_lanes_mask()
        for level, entries in per_level.items():
            rows = np.array(
                [self._net_ids[self._outputs_by_gate[name]]
                 for name, _, _ in entries],
                dtype=np.intp,
            )
            keep = np.stack([
                self._mask_words(all_lanes ^ mask) for _, mask, _ in entries
            ])
            stuck = np.stack([
                self._mask_words(stuck) for _, _, stuck in entries
            ])
            patches[level] = (rows, keep, stuck)
        return patches

    def _edge_patch(self):
        """(flop positions, keep, stuck) arrays applied at the clock edge."""
        if not self._flop_fault:
            return None
        positions = sorted(self._flop_fault)
        rows = np.array(positions, dtype=np.intp)
        all_lanes = self._all_lanes_mask()
        keep = np.stack([
            self._mask_words(all_lanes ^ self._flop_fault[p][0])
            for p in positions
        ])
        stuck = np.stack([
            self._mask_words(self._flop_fault[p][1]) for p in positions
        ])
        return rows, keep, stuck

    # -- SimBackend interface -----------------------------------------

    @property
    def lanes(self):
        return self._lanes

    @property
    def cycles(self):
        return self._cycles

    def set_inputs(self, assignments):
        state, ids = self._state, self._net_ids
        full = np.uint64(FULL_MASK)
        zero = np.uint64(0)
        for name, value in assignments.items():
            index = ids.get(name)
            if index is not None:
                self._validate_scalar(name, value)
                state[index, :] = full if value else zero
                continue
            rows, bits = self._input_bus(name)
            self._validate_bus(name, len(rows), value)
            # One fancy scatter per bus: broadcast each bit of `value`
            # as an all-lanes word.
            state[rows] = np.where(
                (value >> bits) & 1, full, zero
            )[:, None]

    def set_input_lanes(self, assignments):
        """Per-lane stimulus: one value per lane for each named input.

        Where :meth:`set_inputs` broadcasts a single value to every
        lane, this folds per-die variation into the lane arrays --
        each lane (die) sees its own input value.  ``assignments``
        maps a scalar net to a length-``lanes`` sequence of 0/1, or a
        bus stem to a length-``lanes`` sequence of bus values.
        """
        for nets, bits in self._lane_input_bits(assignments):
            self._state[nets] = self._pack_lanes(bits.astype(np.uint8))

    def _input_bus(self, stem):
        """(net row array, bit position array) for input bus ``stem``."""
        key = ("input-bus", stem)
        cached = self._bus_cache.get(key)
        if cached is None:
            nets = self._bus_nets(stem)
            if not nets:
                raise KeyError(f"no such input '{stem}'")
            cached = (
                np.array(nets, dtype=np.intp),
                np.arange(len(nets)),
            )
            self._bus_cache[key] = cached
        return cached

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
            # Mirror the interpreter's inject_fault(): propagate without
            # counting toggles, charging one settle per injected fault
            # (the serial reference settles once per injection).
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
        word = self._state[self._net_ids[net], lane // WORD_LANES]
        return int(word >> np.uint64(lane % WORD_LANES)) & 1

    def read_bus(self, stem, width=None, lane=0):
        self._check_lane(lane)
        word, bit = lane // WORD_LANES, np.uint64(lane % WORD_LANES)
        value = 0
        for position, index in enumerate(self._bus_ids(stem, width)):
            value |= (int(self._state[index, word] >> bit) & 1) << position
        return value

    def read_bus_lane_array(self, stem, width=None):
        indices = self._bus_ids(stem, width)
        words = self._state[indices]                       # (bits, words)
        lanes = self._unpack_lanes(words)                  # (bits, lanes)
        powers = np.left_shift(
            1, np.arange(len(indices)), dtype=np.int64
        )
        return powers @ lanes.astype(np.int64)

    def read_bus_lanes(self, stem, width=None):
        return self.read_bus_lane_array(stem, width).tolist()

    def toggles(self, lane=0):
        self._check_lane(lane)
        column = self._toggle_counts()[:, lane]
        return {name: int(count)
                for name, count in zip(self._row_names, column)}

    def toggle_coverage(self, lane=0):
        self._check_lane(lane)
        column = self._toggle_counts()[:, lane]
        total = self._rows or 1
        toggled = int(np.count_nonzero(column))
        mean = int(column.sum()) / total
        return toggled / total, mean

    def toggle_coverage_lanes(self):
        counts = self._toggle_counts()
        total = self._rows or 1
        fractions = np.count_nonzero(counts, axis=0) / total
        means = counts.sum(axis=0) / total
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
        if count and self._n_comb:
            comb = self._state[self._comb_lo:self._flop_lo]
            old = self._old_comb
            np.copyto(old, comb)
            self._kernel(self._state)
            np.bitwise_xor(comb, old, out=old)
            self._accumulate(slice(0, self._n_comb), old)
        else:
            self._kernel(self._state)

    def _edge(self):
        if not len(self._flop_d):
            return
        state = self._state
        new = state[self._flop_d]  # gather copies: read all D before Q
        if self._flop_patch is not None:
            rows, keep, stuck = self._flop_patch
            new[rows] = (new[rows] & keep) | stuck
        q = state[self._flop_lo:self._zero_row]
        changed = q ^ new
        q[:] = new
        self._accumulate(slice(self._n_comb, self._rows), changed)

    def _accumulate(self, rows, changed):
        """Add a change matrix into the bit-plane toggle counters.

        Ripple-carry add of one everywhere a change bit is set: plane
        ``p`` absorbs the carry (``^=``) and forwards it where the bit
        was already set (``&``).  The carry's population decays
        geometrically per plane; planes grow on demand as counts cross
        powers of two.
        """
        self._counts_cache = None
        carry = changed
        plane_index = 0
        while carry.any():
            if plane_index == len(self._planes):
                self._planes.append(np.zeros(
                    (self._rows, self._words), dtype=np.uint64
                ))
            plane = self._planes[plane_index]
            forwarded = plane[rows] & carry
            plane[rows] ^= carry
            carry = forwarded
            plane_index += 1

    def _unpack_lanes(self, words):
        """Unpack a ``(rows, words)`` uint64 block into per-lane bits,
        shape ``(rows, lanes)`` uint8, lane ``l`` at column ``l``."""
        if _LITTLE_ENDIAN:
            bits = np.unpackbits(
                np.ascontiguousarray(words).view(np.uint8),
                axis=1, bitorder="little",
            )
        else:
            bits = (
                (words[:, :, None] >> self._shifts) & self._one
            ).reshape(words.shape[0], -1).astype(np.uint8)
        return bits[:, :self._lanes]

    def _pack_lanes(self, bits):
        """Pack a ``(rows, lanes)`` 0/1 matrix into ``(rows, words)``
        uint64 lane arrays (the inverse of :meth:`_unpack_lanes`)."""
        rows = bits.shape[0]
        padded = np.zeros(
            (rows, self._words * WORD_LANES), dtype=np.uint8
        )
        padded[:, :self._lanes] = bits
        if _LITTLE_ENDIAN:
            return np.packbits(
                padded, axis=1, bitorder="little"
            ).view(np.uint64)
        words = padded.reshape(
            rows, self._words, WORD_LANES
        ).astype(np.uint64)
        return np.bitwise_or.reduce(words << self._shifts, axis=2)

    def _toggle_counts(self):
        """The (rows, lanes) integer counter matrix, assembled lazily
        from the bit-planes and cached until the next settle."""
        if self._counts_cache is None:
            counts = np.zeros((self._rows, self._lanes), dtype=np.int64)
            for position, plane in enumerate(self._planes):
                counts += (
                    self._unpack_lanes(plane).astype(np.int64) << position
                )
            self._counts_cache = counts
        return self._counts_cache
