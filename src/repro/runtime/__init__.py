"""Real (non-simulated) FRIEDA execution backends.

The paper's prototype ran on Python-Twisted; the modern stdlib
equivalent here is :mod:`asyncio` (:mod:`repro.runtime.tcp`) speaking
the same message protocol over localhost TCP, plus a lighter threaded
in-process engine (:mod:`repro.runtime.local`) for examples and tests.

Both engines reuse the core logic — :class:`~repro.core.scheduler.
MasterScheduler`, :class:`~repro.core.controller.ControllerLogic`,
command templating — demonstrating the control/execution separation.
"""

from repro.runtime.local import ThreadedEngine
from repro.runtime.protocol import read_frame, write_frame

__all__ = ["ThreadedEngine", "TcpEngine", "read_frame", "write_frame"]


def __getattr__(name: str):
    # PEP 562: the TCP engine pulls in asyncio and ssl, so it loads on
    # first use, not whenever the threaded engine is imported.
    if name == "TcpEngine":
        from repro.runtime.tcp import TcpEngine

        return TcpEngine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
