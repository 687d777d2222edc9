"""Cycle-based gate-level simulator with toggle counting.

Evaluates a :class:`~repro.netlist.core.Netlist` one clock cycle at a
time: combinational gates are levelized once, then each cycle evaluates
them in topological order and updates every DFF on the clock edge.
Toggle counts per gate output support the Section 4.1 test-coverage
claim ("gates toggling on average 24,060 times, and all gates toggle at
least once").

:class:`GateLevelSimulator` is the ``"interpreted"`` backend of
:mod:`repro.netlist.backend`: one lane per instance, the bit-exact
reference the compiled and vector backends are checked against.
"""

from repro import obs
from repro.netlist.backend.base import (
    SimBackend,
    lane_fault_list,
    register_backend,
)
from repro.netlist.core import Netlist
from repro.netlist.levelize import CombinationalLoopError, levelize

__all__ = ["CombinationalLoopError", "GateLevelSimulator"]


def _evaluate(function, values):
    if function == "buf":
        return values[0]
    if function == "inv":
        return 1 - values[0]
    if function == "nand2":
        return 1 - (values[0] & values[1])
    if function == "nor2":
        return 1 - (values[0] | values[1])
    if function == "xor2":
        return values[0] ^ values[1]
    if function == "xnor2":
        return 1 - (values[0] ^ values[1])
    if function == "mux2":
        a, b, sel = values
        return b if sel else a
    raise ValueError(f"cannot evaluate cell function '{function}'")


@register_backend
class GateLevelSimulator(SimBackend):
    """Synchronous two-phase simulation of a netlist (single lane)."""

    name = "interpreted"
    max_lanes = 1

    def __init__(self, netlist: Netlist, lanes=1):
        if lanes != 1:
            raise ValueError(
                f"the interpreted backend is single-lane, got lanes={lanes}"
            )
        netlist.validate()
        self._lanes = 1
        self.netlist = netlist
        self.values = {net: value for net, value in netlist.constants.items()}
        for net in netlist.inputs:
            self.values[net] = 0
        self._flops = [g for g in netlist.gates if g.sequential]
        for flop in self._flops:
            self.values[flop.output] = 0
        self._order = levelize(netlist)
        self._toggles = {gate.name: 0 for gate in netlist.gates}
        self._cycles = 0
        #: Local observability tallies (two integer adds per settle
        #: pass -- cheap enough to keep unconditionally).  Folded into
        #: the process-wide registry by :meth:`flush_obs`.
        self.gate_evaluations = 0
        self.settle_passes = 0
        #: Stuck-at faults: {gate name: forced output value}.  Applied
        #: during evaluation so the fault propagates downstream -- the
        #: basis of the Section 4.1 fault-detection validation.
        self.faults = {}
        # Settle combinational logic against the all-zero state.
        self._settle(count_toggles=False)

    @property
    def lanes(self):
        return self._lanes

    @property
    def cycles(self):
        return self._cycles

    # ------------------------------------------------------------------

    def set_inputs(self, assignments):
        """Assign primary inputs ({name: 0/1} or {bus_stem: int}).

        Values are range-checked: a single net takes exactly 0 or 1,
        and a bus value must fit in the bus width -- silently masking
        an oversized value would hide driver bugs from the cross-check.
        """
        for name, value in assignments.items():
            if name in self.values or name in self.netlist.inputs:
                self._validate_scalar(name, value)
                self.values[name] = int(value)
            else:
                # Bus assignment: stem + bit index.
                width = 0
                while f"{name}{width}" in self.values:
                    width += 1
                if width == 0:
                    raise KeyError(f"no such input '{name}'")
                self._validate_bus(name, width, value)
                for bit in range(width):
                    self.values[f"{name}{bit}"] = (value >> bit) & 1

    def inject_fault(self, gate_name, stuck_value):
        """Force a gate output to a stuck-at value (persists until
        :meth:`clear_faults`)."""
        if not any(g.name == gate_name for g in self.netlist.gates):
            raise KeyError(f"no gate named '{gate_name}'")
        self.faults[gate_name] = stuck_value & 1
        self._settle(count_toggles=False)

    def set_fault_lanes(self, faults):
        faults = list(faults)
        if len(faults) > 1:
            raise ValueError(
                f"the interpreted backend holds one fault lane, "
                f"got {len(faults)}"
            )
        self.faults.clear()
        for entry in faults:
            for gate_name, stuck in lane_fault_list(entry):
                # Stuck at 1 wins, as in the packed backends' lane masks.
                self.inject_fault(gate_name,
                                  stuck | self.faults.get(gate_name, 0))

    def clear_faults(self):
        self.faults.clear()
        self._settle(count_toggles=False)

    def _settle(self, count_toggles=True):
        faults = self.faults
        self.settle_passes += 1
        self.gate_evaluations += len(self._order)
        for gate in self._order:
            inputs = [self.values[net] for net in gate.inputs]
            new = _evaluate(gate.cell.function, inputs)
            if faults and gate.name in faults:
                new = faults[gate.name]
            if count_toggles and self.values.get(gate.output) != new:
                self._toggles[gate.name] += 1
            self.values[gate.output] = new

    def step(self):
        """One clock cycle: settle combinational logic, clock the DFFs."""
        self._settle()
        updates = []
        for flop in self._flops:
            new = self.values[flop.inputs[0]]
            if self.faults and flop.name in self.faults:
                new = self.faults[flop.name]
            if new != self.values[flop.output]:
                self._toggles[flop.name] += 1
            updates.append((flop.output, new))
        for net, value in updates:
            self.values[net] = value
        self._cycles += 1
        # Propagate the new state so outputs are coherent after the edge;
        # state-driven transitions count toward toggle coverage too.
        self._settle(count_toggles=True)

    # ------------------------------------------------------------------

    def read_bus(self, stem, width=None, lane=0):
        self._check_lane(lane)
        value, bit = 0, 0
        while True:
            net = f"{stem}{bit}"
            if net not in self.values:
                if bit == 0:
                    raise KeyError(f"no such bus '{stem}'")
                if width is not None and bit < width:
                    raise KeyError(
                        f"bus '{stem}' is only {bit} bits wide; "
                        f"cannot read {width} bits"
                    )
                break
            if width is not None and bit >= width:
                break
            value |= self.values[net] << bit
            bit += 1
        return value

    def read_net(self, net, lane=0):
        self._check_lane(lane)
        return self.values[net]

    def toggles(self, lane=0):
        self._check_lane(lane)
        return dict(self._toggles)

    def flush_obs(self):
        """Fold (and reset) the local tallies into the metrics registry.

        Called by completion points (e.g. the cross-check runner); safe
        to call repeatedly, and a no-op when collection is off.
        """
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
        ).inc(self._cycles)
        self.gate_evaluations = 0
        self.settle_passes = 0
