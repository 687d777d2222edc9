"""The declarative job model of the experiment engine.

A :class:`Job` names *what* to compute -- a registered (module-level)
function, its parameters, and an optional :class:`ChildSeed` -- without
saying *where* or *when*.  The scheduler may run it inline, in a worker
process, or not at all (on a cache hit); because the job carries its own
seed, the answer is the same in every case.

Determinism contract
--------------------
Child seeds are derived with the :class:`numpy.random.SeedSequence`
spawning protocol: the ``i``-th job of a stage seeded with ``s`` draws
from ``SeedSequence(entropy=s, spawn_key=(i,))``, which is exactly the
``i``-th child of ``SeedSequence(s).spawn(n)``.  The derivation depends
only on ``(s, i)`` -- never on execution order or worker count --
so serial and parallel runs agree bit-for-bit.
"""

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class ChildSeed:
    """A reconstructible spawn of a :class:`numpy.random.SeedSequence`.

    Carrying ``(entropy, spawn_key)`` instead of a live ``Generator``
    keeps the seed picklable, hashable, and representable in cache keys.
    """

    entropy: int
    spawn_key: Tuple[int, ...] = ()

    def seed_sequence(self):
        return np.random.SeedSequence(
            entropy=self.entropy, spawn_key=self.spawn_key
        )

    def rng(self):
        """A fresh, independent :class:`numpy.random.Generator`."""
        return np.random.default_rng(self.seed_sequence())

    def spawn(self, count):
        """The ``count`` children of this seed (appends one spawn-key
        level, matching ``SeedSequence.spawn``)."""
        return [
            ChildSeed(self.entropy, self.spawn_key + (index,))
            for index in range(count)
        ]

    def token(self):
        """Stable, JSON-safe identity for cache keys."""
        return [int(self.entropy), [int(k) for k in self.spawn_key]]


def as_child_seed(seed):
    """Coerce an int (or pass through a :class:`ChildSeed`)."""
    if seed is None:
        return None
    if isinstance(seed, ChildSeed):
        return seed
    return ChildSeed(entropy=int(seed))


def spawn_seeds(seed, count):
    """``count`` independent child seeds of ``seed`` (int or ChildSeed).

    Equivalent to ``SeedSequence(seed).spawn(count)`` but returning
    picklable :class:`ChildSeed` handles.
    """
    base = as_child_seed(seed)
    if base is None:
        raise ValueError("spawn_seeds requires a non-None seed")
    return base.spawn(count)


@dataclass
class Job:
    """One unit of work: ``fn(params, seed) -> result``.

    ``fn`` must be a module-level callable (so worker processes can
    import it by reference); registering it with
    :func:`repro.engine.registry.job_function` additionally pins a
    stable name and version for cache keys.  ``params`` must be built
    from cache-representable values (primitives, sequences, mappings,
    enums, frozen dataclasses -- see :mod:`repro.engine.cache`) for the
    job's result to be cached.
    """

    fn: Callable[[Mapping[str, Any], Optional[ChildSeed]], Any]
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: Optional[ChildSeed] = None
    label: Optional[str] = None

    def __post_init__(self):
        self.seed = as_child_seed(self.seed)
        if self.label is None:
            self.label = getattr(
                self.fn, "__engine_name__",
                getattr(self.fn, "__qualname__", repr(self.fn)),
            )
