"""Discrete-event simulation kernel (from scratch, SimPy-flavoured).

The cloud substrate (:mod:`repro.cloud`) and the simulated FRIEDA engine
(:mod:`repro.engines`) run on this kernel. It provides:

- :class:`Environment` — the event loop with virtual time,
- :class:`Event` / :class:`Timeout` / condition events,
- :class:`Process` — generator-based coroutine processes with
  :meth:`Process.interrupt` (used for VM failure injection),
- resources (:class:`Resource`, :class:`Container`, :class:`Store`,
  :class:`FilterStore`) with FIFO queueing.

Example::

    env = Environment()

    def ping(env):
        yield env.timeout(3)
        return "done"

    proc = env.process(ping(env))
    env.run()
    assert env.now == 3 and proc.value == "done"
"""

from repro.sim.kernel import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.sim.resources import Container, FilterStore, Resource, Store

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Timeout",
    "Container",
    "FilterStore",
    "Resource",
    "Store",
]
