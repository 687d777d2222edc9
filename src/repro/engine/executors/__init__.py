"""Where :class:`repro.engine.Engine` jobs physically run.

One backend ships: :class:`~repro.engine.executors.local.LocalPoolExecutor`,
a process pool on this host, which runs each job as one task of
:func:`~repro.engine.executors.base.execute_payload`.  The engine
builds it itself when a batch has more than one job to compute and
``jobs > 1``; ``Engine(pool_factory=...)`` swaps the pool underneath
(the tests' fake pools).
"""

from repro.engine.executors.base import (  # noqa: F401
    ExecutorBroken,
    execute_payload,
)
from repro.engine.executors.local import LocalPoolExecutor  # noqa: F401

__all__ = ["ExecutorBroken", "LocalPoolExecutor", "execute_payload"]
