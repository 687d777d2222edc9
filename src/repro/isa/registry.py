"""Lookup of ISA instances by name.

Names accepted by :func:`get_isa`:

- ``"flexicore4"``, ``"flexicore8"`` -- the fabricated base ISAs.
- ``"flexicore4plus"`` -- the manufactured extended die (shifter + flags).
- ``"extacc"`` -- the full revised accumulator ISA of Section 6.1.
- ``"extacc[base]"`` / ``"extacc[f1+f2+...]"`` -- any feature subset.
- ``"loadstore"`` -- the two-operand ISA of Section 6.2.
"""

from repro.isa.extended import (
    ALL_FEATURES,
    FLEXICORE4PLUS_FEATURES,
    FULL_FEATURES,
    ExtendedAccumulator,
)
from repro.isa.flexicore4 import FlexiCore4, FlexiCore8
from repro.isa.loadstore import LoadStore

_CACHE = {}


def available_isas():
    """Names of the commonly used ISA variants."""
    return (
        "flexicore4", "flexicore8", "flexicore4plus", "extacc",
        "extacc[base]", "loadstore",
    )


def get_isa(name):
    """Return a (cached) ISA instance for ``name``."""
    if name in _CACHE:
        return _CACHE[name]
    isa = _build(name)
    _CACHE[name] = isa
    return isa


def _build(name):
    if name == "flexicore4":
        return FlexiCore4()
    if name == "flexicore8":
        return FlexiCore8()
    if name == "flexicore4plus":
        return ExtendedAccumulator(features=FLEXICORE4PLUS_FEATURES)
    if name == "extacc":
        return ExtendedAccumulator(features=FULL_FEATURES)
    if name == "loadstore":
        return LoadStore()
    if name.startswith("extacc[") and name.endswith("]"):
        body = name[len("extacc["):-1]
        if body == "base":
            features = frozenset()
        elif body == "full":
            features = FULL_FEATURES
        else:
            features = frozenset(part for part in body.split("+") if part)
        unknown = features - set(ALL_FEATURES)
        if unknown:
            raise KeyError(f"unknown features in '{name}': {sorted(unknown)}")
        return ExtendedAccumulator(features=features)
    raise KeyError(f"unknown ISA '{name}'")
