"""Shared resources for the simulation kernel.

- :class:`Resource` — counted capacity with FIFO request queue (CPU
  cores, transfer slots).
- :class:`Container` — continuous quantity (disk bytes).
- :class:`Store` / :class:`FilterStore` — object queues (mailboxes; the
  FRIEDA message channels in the simulated engine are Stores).

All acquire/release operations are events, so processes compose them
with timeouts and conditions, e.g.::

    with cpu.request() as req:
        yield req
        yield env.timeout(task_cost)
"""

from __future__ import annotations

from collections import deque
from typing import AbstractSet, Any, Callable, Deque, Union

from repro.errors import SimulationError
from repro.sim.kernel import Environment, Event

#: A :class:`Resource` holds these shared empty containers until its first
#: grant and its first wait: a wide cluster has one CPU resource per VM,
#: and many of them are never asked for a slot.
_NO_USERS: frozenset = frozenset()
_NO_WAITERS: tuple = ()


class Request(Event):
    """Pending acquisition of one :class:`Resource` slot.

    Usable as a context manager: leaving the block releases the slot
    (or cancels the request if it never succeeded).
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        resource._admit(self)

    def cancel(self) -> None:
        """Withdraw an un-granted request from the queue."""
        if not self.triggered:
            try:
                self.resource._queue.remove(self)
            except ValueError:
                pass

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self.triggered and self.ok:
            self.resource.release(self)
        else:
            self.cancel()


class Resource:
    """A counted resource with FIFO granting.

    ``capacity`` slots; :meth:`request` returns an event that succeeds
    when a slot is granted; :meth:`release` frees it and wakes the queue.
    """

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"Resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = int(capacity)
        self._users: AbstractSet[Request] = _NO_USERS
        self._queue: Union[Deque[Request], tuple] = _NO_WAITERS

    @property
    def count(self) -> int:
        """Number of granted (in-use) slots."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests still waiting (the kernel property tests'
        work-conservation oracle)."""
        return len(self._queue)

    def request(self) -> Request:
        """Ask for one slot; the returned event succeeds when granted."""
        return Request(self)

    def release(self, request: Request) -> None:
        """Return a previously granted slot."""
        if request not in self._users:
            raise SimulationError("release() of a request that was never granted")
        self._users.remove(request)
        self._trigger_requests()

    def _admit(self, request: Request) -> None:
        """Grant a new request now, or queue it behind the waiters.

        A non-empty queue means every slot is taken (each release and
        each grant drains the queue while slots are free), so a free
        slot with nobody waiting is the only case that grants at once.
        """
        if not self._queue and len(self._users) < self.capacity:
            self._grant(request)
            return
        if self._queue is _NO_WAITERS:
            self._queue = deque()
        self._queue.append(request)

    def _grant(self, request: Request) -> None:
        if self._users is _NO_USERS:
            self._users = set()
        self._users.add(request)
        request.succeed()

    def _trigger_requests(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            self._grant(self._queue.popleft())


class Container:
    """A continuous quantity with blocking put/get (e.g. disk bytes).

    Gets block until the level covers the amount; puts block until the
    level plus the amount fits under capacity.
    """

    def __init__(
        self,
        env: Environment,
        capacity: float = float("inf"),
        init: float = 0.0,
    ):
        if capacity <= 0:
            raise SimulationError("Container capacity must be positive")
        if not 0 <= init <= capacity:
            raise SimulationError("Container init outside [0, capacity]")
        self.env = env
        self.capacity = float(capacity)
        self._level = float(init)
        self._getters: Deque[tuple[Event, float]] = deque()
        self._putters: Deque[tuple[Event, float]] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        """Add ``amount``; blocks while it would overflow capacity."""
        if amount < 0:
            raise SimulationError("Container.put of negative amount")
        event = Event(self.env)
        self._putters.append((event, float(amount)))
        self._dispatch()
        return event

    def get(self, amount: float) -> Event:
        """Remove ``amount``; blocks while the level is insufficient."""
        if amount < 0:
            raise SimulationError("Container.get of negative amount")
        event = Event(self.env)
        self._getters.append((event, float(amount)))
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters:
                event, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    event.succeed(amount)
                    progress = True
            if self._getters:
                event, amount = self._getters[0]
                if self._level >= amount:
                    self._getters.popleft()
                    self._level -= amount
                    event.succeed(amount)
                    progress = True


class Store:
    """FIFO object queue with optional capacity.

    ``get`` blocks until an item is available; ``put`` blocks while the
    store is full.
    """

    def __init__(self, env: Environment, capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("Store capacity must be positive")
        self.env = env
        self.capacity = capacity
        #: Stored items, oldest first. A deque so the FIFO pop in
        #: :meth:`_match` is O(1) instead of list.pop(0)'s O(n).
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> Event:
        """Append ``item``; the event succeeds once it is stored."""
        event = Event(self.env)
        self._putters.append((event, item))
        self._dispatch()
        return event

    def get(self) -> Event:
        """Pop the oldest item; the event's value is the item."""
        event = Event(self.env)
        self._getters.append(event)
        self._dispatch()
        return event

    def _match(self, getter: Event) -> bool:
        """Try to satisfy ``getter`` from items; subclass hook."""
        if self.items:
            getter.succeed(self.items.popleft())
            return True
        return False

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            # Move queued puts into storage while capacity allows.
            while self._putters and len(self.items) < self.capacity:
                event, item = self._putters.popleft()
                self.items.append(item)
                event.succeed()
                progress = True
            # Satisfy getters in FIFO order; stop at the first that can't
            # be satisfied to preserve ordering fairness.
            while self._getters:
                getter = self._getters[0]
                if getter.triggered:  # cancelled/triggered externally
                    self._getters.popleft()
                    continue
                if not self._match(getter):
                    break
                self._getters.popleft()
                progress = True


class FilterStore(Store):
    """A :class:`Store` whose getters take the first item matching a predicate."""

    def __init__(self, env: Environment, capacity: float = float("inf")):
        super().__init__(env, capacity)
        # Events use __slots__, so per-getter predicates live here.
        self._filters: dict[Event, Callable[[Any], bool]] = {}

    def get(self, filter: Callable[[Any], bool] = lambda item: True) -> Event:  # type: ignore[override]
        event = Event(self.env)
        self._filters[event] = filter
        self._getters.append(event)
        self._dispatch()
        return event

    def _match(self, getter: Event) -> bool:
        predicate = self._filters.get(getter)
        for index, item in enumerate(self.items):
            if predicate is None or predicate(item):
                self._filters.pop(getter, None)
                del self.items[index]
                getter.succeed(item)
                return True
        return False

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            while self._putters and len(self.items) < self.capacity:
                event, item = self._putters.popleft()
                self.items.append(item)
                event.succeed()
                progress = True
            # Unlike the FIFO store, any waiting getter may match any
            # item, so scan all of them.
            remaining: Deque[Event] = deque()
            while self._getters:
                getter = self._getters.popleft()
                if getter.triggered:
                    continue
                if self._match(getter):
                    progress = True
                else:
                    remaining.append(getter)
            self._getters = remaining
