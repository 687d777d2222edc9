"""Gate-level simulation backends behind one interface.

Three registered names for two implementations of :class:`SimBackend`:

- ``"interpreted"`` -- the per-gate dict interpreter
  (:class:`~repro.netlist.sim.GateLevelSimulator`), one lane per
  instance, kept as the bit-exact reference;
- ``"compiled"`` -- the levelized bit-parallel evaluator
  (:class:`CompiledBackend`): a straight-line settle kernel over
  lane-wide Python ints, bit ``l`` of a net's int being lane ``l``, so
  one settle pass advances a whole fault campaign chunk; capped at 64
  lanes, one machine word;
- ``"vector"`` -- the same class with a wafer-scale cap
  (:class:`VectorBackend`, up to :data:`VECTOR_MAX_LANES` lanes), so one
  settle pass advances every die of a multi-wafer campaign.

Consumers (cross-checks, fault campaigns, toggle studies) name a
backend, or pass ``None`` to pick one from the lane count:
``compiled`` up to 64 lanes, ``vector`` above (:func:`resolve_backend`).
Since both packed names run one kernel, the rule decides only how a
campaign is chunked.  See ``docs/GATESIM.md`` for lane packing,
levelization, and the measurements behind that rule.
"""

from repro.netlist.backend.base import (
    BACKENDS,
    SimBackend,
    lane_fault_list,
    make_backend,
    resolve_backend,
)
from repro.netlist.backend.compiled import (
    VECTOR_MAX_LANES,
    WORD_LANES,
    CompiledBackend,
    VectorBackend,
)
from repro.netlist.sim import GateLevelSimulator
from repro.netlist.levelize import CombinationalLoopError, levelize

__all__ = [
    "BACKENDS",
    "CombinationalLoopError",
    "CompiledBackend",
    "GateLevelSimulator",
    "SimBackend",
    "VECTOR_MAX_LANES",
    "VectorBackend",
    "WORD_LANES",
    "lane_fault_list",
    "levelize",
    "make_backend",
    "resolve_backend",
]
