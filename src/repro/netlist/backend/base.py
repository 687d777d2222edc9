"""The :class:`SimBackend` interface and backend registry.

A backend evaluates a gate-level netlist over one or more *lanes*.  A
lane is one independent simulation of the design: same stimulus, but
its own injected stuck-at faults and its own toggle counts.  The
interpreted backend runs one lane per instance (the bit-exact
reference); the compiled backend packs up to 64 lanes into the bits of
machine words, so one settle pass advances 64 fault candidates or
Monte Carlo dies at once; the vector backend generalizes the packing
to NumPy ``uint64`` lane arrays, lifting capacity to ``64 x words``
lanes so a single settle pass evaluates every die on a wafer.

Consumers address backends by name (``"interpreted"`` /
``"compiled"`` / ``"vector"``) through :func:`make_backend`; ``None``
picks one from the lane count (see :func:`resolve_backend`).
"""

from abc import ABC, abstractmethod

#: name -> backend class; filled in by repro.netlist.backend.__init__.
BACKENDS = {}


def register_backend(cls):
    """Class decorator adding a backend implementation to the registry."""
    BACKENDS[cls.name] = cls
    return cls


def resolve_backend(name, lanes=1):
    """Map a backend spec to a registered class.

    ``None`` chooses from the lane count: ``compiled`` while the lanes
    fit its one 64-bit word, ``vector`` above, where a 65th lane would
    cost ``compiled`` a second run (timings in docs/GATESIM.md).
    """
    if name is None:
        fits = lanes <= BACKENDS["compiled"].max_lanes
        name = "compiled" if fits else "vector"
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None


def make_backend(name, netlist, lanes=1):
    """Instantiate a backend over ``netlist`` with ``lanes`` fault lanes."""
    return resolve_backend(name, lanes)(netlist, lanes=lanes)


def lane_fault_list(entry):
    """Normalize one lane's fault spec to a list of (gate, stuck) pairs.

    A lane entry is ``None`` (healthy lane), a single
    ``(gate_name, stuck_value)`` pair, or an iterable of such pairs --
    the multi-fault form encodes one die's whole defect draw in one
    lane.  All backends accept all three forms; a gate that one lane
    names at both stuck values is stuck at 1.
    """
    if entry is None:
        return []
    entry = list(entry)
    if entry and isinstance(entry[0], str):
        if len(entry) != 2:
            raise ValueError(f"malformed fault entry {entry!r}")
        return [(entry[0], entry[1])]
    return [(gate, stuck) for gate, stuck in entry]


class SimBackend(ABC):
    """Multi-lane gate-level evaluation of one netlist.

    Lane semantics: clock edges are shared by every lane, and so are
    inputs set with :meth:`set_inputs` (packed backends also take
    per-lane inputs, :meth:`set_input_lanes`); faults and observed
    state (net values, toggle counts, mismatches) are per-lane.
    ``lanes`` is fixed at construction and bounded by ``max_lanes``;
    campaign drivers chunk their fault lists accordingly.
    """

    #: Registry name; subclasses override.
    name = "abstract"
    #: Largest lane count one instance supports.
    max_lanes = 1

    @property
    @abstractmethod
    def lanes(self):
        """Number of active lanes in this instance."""

    @property
    @abstractmethod
    def cycles(self):
        """Clock cycles stepped so far (identical across lanes)."""

    # -- stimulus ------------------------------------------------------

    @abstractmethod
    def set_inputs(self, assignments):
        """Assign primary inputs ({net: 0/1} or {bus_stem: int}),
        broadcast to every lane.  Rejects out-of-range values."""

    def set_input_lanes(self, assignments):
        """Assign primary inputs per lane: ``{net: [0/1 per lane]}`` or
        ``{bus_stem: [value per lane]}``.  Rejects a sequence that is
        not one value per lane and out-of-range values.

        Packed backends implement this so one run can carry several
        stimulus streams; the single-lane interpreter never does.
        """
        raise NotImplementedError(
            f"the {self.name} backend takes broadcast inputs only"
        )

    @abstractmethod
    def set_fault_lanes(self, faults):
        """Install per-lane stuck-at faults and re-settle.

        ``faults`` is a sequence of at most ``lanes`` entries, each
        ``None`` (healthy lane), a ``(gate_name, stuck_value)`` pair,
        or an iterable of such pairs (a multi-defect die occupies one
        lane).  Replaces any previously installed faults.
        """

    @abstractmethod
    def clear_faults(self):
        """Remove every fault and re-settle."""

    @abstractmethod
    def step(self):
        """One clock cycle: settle, clock the DFFs, settle."""

    # -- observation ---------------------------------------------------

    @abstractmethod
    def read_net(self, net, lane=0):
        """Value (0/1) of one net in one lane."""

    @abstractmethod
    def read_bus(self, stem, width=None, lane=0):
        """Little-endian integer value of bus ``stem0..N`` in one lane."""

    def read_bus_lanes(self, stem, width=None):
        """Bus value in every lane, as a list indexed by lane.

        Backends with a packed representation override this with a
        transposed extraction; the generic version just loops.
        """
        return [
            self.read_bus(stem, width=width, lane=lane)
            for lane in range(self.lanes)
        ]

    def read_bus_lane_array(self, stem, width=None):
        """Bus value in every lane, as a numpy int64 array.

        Campaign drivers compare thousands of lanes per instruction;
        an array return keeps that comparison vectorized.  Packed
        backends override this to skip the Python loop entirely.
        """
        import numpy as np

        return np.asarray(
            self.read_bus_lanes(stem, width=width), dtype=np.int64
        )

    @abstractmethod
    def toggles(self, lane=0):
        """{gate name: toggle count} for one lane."""

    def toggle_coverage(self, lane=0):
        """(fraction of gates that toggled, mean toggles per gate)."""
        counts = self.toggles(lane)
        total = len(counts) or 1
        toggled = sum(1 for count in counts.values() if count)
        mean = sum(counts.values()) / total
        return toggled / total, mean

    def toggle_coverage_lanes(self):
        """Toggle coverage of every lane, as (fractions, means) arrays.

        Result assembly over wafer-scale lane counts must not loop in
        Python; packed backends override this with matrix reductions.
        """
        import numpy as np

        pairs = [self.toggle_coverage(lane) for lane in range(self.lanes)]
        fractions = np.array([fraction for fraction, _ in pairs])
        means = np.array([mean for _, mean in pairs])
        return fractions, means

    @abstractmethod
    def flush_obs(self):
        """Fold lane-adjusted evaluation tallies into the obs registry.

        Lane adjustment keeps the ``gate_evaluations_total`` /
        ``gate_settle_passes_total`` counters comparable across
        backends: a 64-lane settle pass is charged as 64 passes, so a
        batched fault campaign reports the same totals as the
        equivalent serial one.
        """

    # -- shared helpers ------------------------------------------------
    # The bus helpers assume the dense net numbering (`_net_ids`,
    # `_bus_cache`) of the packed backends; every backend keeps `_lanes`.

    def _bus_nets(self, stem):
        """Net indices of ``stem0..N`` (empty when no such bus)."""
        nets = []
        while True:
            index = self._net_ids.get(f"{stem}{len(nets)}")
            if index is None:
                return nets
            nets.append(index)

    def _bus_ids(self, stem, width):
        key = (stem, width)
        cached = self._bus_cache.get(key)
        if cached is not None:
            return cached
        nets = self._bus_nets(stem)
        if not nets:
            raise KeyError(f"no such bus '{stem}'")
        if width is not None:
            if len(nets) < width:
                raise KeyError(
                    f"bus '{stem}' is only {len(nets)} bits wide; "
                    f"cannot read {width} bits"
                )
            nets = nets[:width]
        self._bus_cache[key] = nets
        return nets

    def _check_lane(self, lane):
        if not 0 <= lane < self._lanes:
            raise IndexError(
                f"lane {lane} out of range for a {self._lanes}-lane "
                f"backend"
            )

    # -- shared input validation --------------------------------------

    def _validate_scalar(self, name, value):
        if value not in (0, 1):
            raise ValueError(
                f"input '{name}' is a single net; value must be 0 or 1, "
                f"got {value!r}"
            )

    def _validate_bus(self, stem, width, value):
        if not 0 <= value < (1 << width):
            raise ValueError(
                f"value {value!r} out of range for {width}-bit bus "
                f"'{stem}'"
            )

    def _lane_input_bits(self, assignments):
        """Validate :meth:`set_input_lanes` assignments, yielding
        ``(net indices, bits)`` per input, where ``bits[b, l]`` is bit
        ``b`` of lane ``l``'s value (packed backends only)."""
        import numpy as np

        for name, values in assignments.items():
            values = np.asarray(values, dtype=np.int64)
            if values.shape != (self._lanes,):
                raise ValueError(
                    f"input '{name}' needs one value per lane "
                    f"({self._lanes}), got shape {values.shape}"
                )
            index = self._net_ids.get(name)
            if index is not None:
                if values.min() < 0 or values.max() > 1:
                    raise ValueError(
                        f"input '{name}' is a single net; values "
                        f"must be 0 or 1"
                    )
                yield [index], values[None, :]
                continue
            nets = self._bus_nets(name)
            if not nets:
                raise KeyError(f"no such input '{name}'")
            if values.min() < 0 or values.max() >= (1 << len(nets)):
                raise ValueError(
                    f"value out of range for {len(nets)}-bit bus "
                    f"'{name}'"
                )
            shifts = np.arange(len(nets))[:, None]
            yield nets, (values[None, :] >> shifts) & 1
