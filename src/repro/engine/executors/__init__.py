"""Pluggable execution backends for :class:`repro.engine.Engine`.

Two backends ship in-tree, both implementing the same small
:class:`~repro.engine.executors.base.Executor` contract:

=========  =========================================  =================
spec       class                                      good for
=========  =========================================  =================
``local``  :class:`~.local.LocalPoolExecutor`         one host
                                                      (the default)
``socket`` :class:`~.socketcluster.                   many hosts via
           SocketClusterExecutor`                     ``repro worker
                                                      join``
=========  =========================================  =================

Select one with ``Engine(executor="socket")``,
``engine.configure(executor="socket")``, or ``--executor`` on the CLI.
"""

from repro.engine.executors.base import (  # noqa: F401
    Executor,
    ExecutorBroken,
    execute_payload,
    executor_names,
    make_executor,
    register_executor,
)
from repro.engine.executors.local import LocalPoolExecutor  # noqa: F401
from repro.engine.executors.socketcluster import (  # noqa: F401
    SocketClusterExecutor,
)

__all__ = [
    "Executor", "ExecutorBroken", "LocalPoolExecutor",
    "SocketClusterExecutor", "execute_payload", "executor_names",
    "make_executor", "register_executor",
]
