"""Gate-level simulation backends behind one interface.

Three implementations of :class:`SimBackend`:

- ``"interpreted"`` -- the per-gate dict interpreter
  (:class:`~repro.netlist.sim.GateLevelSimulator`), one lane per
  instance, kept as the bit-exact reference;
- ``"compiled"`` -- the levelized bit-parallel evaluator
  (:class:`CompiledBackend`), packing up to 64 independent fault lanes
  into the bits of 64-bit words, so one settle pass simulates a whole
  fault campaign chunk;
- ``"vector"`` -- the wafer-scale evaluator (:class:`VectorBackend`),
  generalizing the packing to NumPy ``uint64`` lane arrays of shape
  ``(words,)`` per net, so capacity is ``64 x words`` lanes and one
  settle pass advances every die on a wafer.

Consumers (cross-checks, fault campaigns, toggle studies) name a
backend, or pass ``None`` to pick one from the lane count:
``compiled`` up to 64 lanes, ``vector`` above (:func:`resolve_backend`).
See ``docs/GATESIM.md`` for lane packing, levelization, and the
measurements behind that rule.
"""

from repro.netlist.backend.base import (
    BACKENDS,
    SimBackend,
    lane_fault_list,
    make_backend,
    resolve_backend,
)
from repro.netlist.backend.compiled import (
    FULL_MASK,
    WORD_LANES,
    CompiledBackend,
)
from repro.netlist.sim import GateLevelSimulator
from repro.netlist.backend.vector import VECTOR_MAX_LANES, VectorBackend
from repro.netlist.levelize import CombinationalLoopError, levelize

__all__ = [
    "BACKENDS",
    "CombinationalLoopError",
    "CompiledBackend",
    "FULL_MASK",
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
