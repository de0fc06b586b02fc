"""Core discrete-event kernel: environment, events, processes.

The design follows the classic event-list simulation architecture (and
deliberately mirrors SimPy's public semantics so the concepts transfer):

- virtual time only advances when the event heap says so; between events
  execution is instantaneous,
- a :class:`Process` is a Python generator that ``yield``\\ s events and
  is resumed when they trigger,
- events carry a value or an exception; an exception delivered to a
  process is raised at the ``yield`` site,
- :meth:`Process.interrupt` injects an :class:`Interrupt` exception into
  a process *now* — this is how VM failures preempt running tasks.

Determinism: ties in time are broken by (priority, sequence number), so
two runs with the same seeds replay identically.
"""

from __future__ import annotations

import heapq
import importlib
import itertools
import os
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

#: Scheduling priorities — URGENT beats NORMAL at equal timestamps.
URGENT = 0
NORMAL = 1

_PENDING = object()

_INF = float("inf")

#: Calendar-queue band split: events scheduled at least this many time
#: units ahead go into coarse far-future buckets (one O(1) append)
#: instead of the near heap, and are merged into the heap only when
#: virtual time approaches their bucket. This keeps the near heap sized
#: by *imminent* work, so long-lived timers (failure MTTFs, lease
#: renewals) at 100k-worker scale stop paying heap log-n on every
#: schedule. A power of two so ``bucket * width`` is exact in floats;
#: the value only affects performance, never ordering.
_FAR_HORIZON = 64.0


class Event:
    """A one-shot occurrence with a value and callbacks.

    Life-cycle: *pending* → *triggered* (scheduled on the heap) →
    *processed* (callbacks ran). An event triggers at most once; calling
    :meth:`succeed`/:meth:`fail` twice raises :class:`SimulationError`.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused", "_scheduled")

    def __init__(self, env: "Environment"):
        self.env = env
        #: Callables invoked with this event when it is processed.
        #: ``None`` once processed (catches late subscription bugs).
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._defused = False
        self._scheduled = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value and is (or was) on the heap."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event succeeded. Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception it failed with)."""
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env._schedule(self, NORMAL, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception propagates out of :meth:`Environment.run` unless a
        process (or :meth:`defused`) handles it.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env._schedule(self, NORMAL, 0.0)
        return self

    def trigger(self, event: "Event") -> None:
        """Mirror another (triggered) event's outcome onto this one."""
        if event._value is _PENDING:
            raise SimulationError("cannot mirror an untriggered event")
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    def defuse(self) -> None:
        """Mark a failed event as handled so run() does not re-raise it."""
        self._defused = True

    def reset(self) -> "Event":
        """Return a *processed* event to the pending state for reuse.

        Components that wake on the same event over and over (e.g. the
        flow-network driver) can recycle one Event instead of allocating
        a fresh one per cycle. Only the owner may do this, and only once
        every other referent has observed the outcome — hence the guard
        on ``processed``.
        """
        if self.callbacks is not None:
            raise SimulationError("reset() on an event that was never processed")
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._defused = False
        self._scheduled = False
        return self

    def __repr__(self) -> str:
        state = (
            "pending"
            if not self.triggered
            else ("ok" if self._ok else f"failed({self._value!r})")
        )
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._schedule(self, NORMAL, delay)


class _Initialize(Event):
    """Kick-starts a freshly created process (internal)."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process"):
        super().__init__(env)
        self._ok = True
        self._value = None
        self.callbacks.append(process._resume)
        env._schedule(self, URGENT, 0.0)


class Interrupt(Exception):
    """Raised inside a process when :meth:`Process.interrupt` is called.

    ``cause`` carries arbitrary context (e.g. the failing VM).
    """

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Process(Event):
    """A running coroutine. Also an event: triggers when the coroutine ends.

    The process's value is the generator's ``return`` value; if the
    generator raises, the process fails with that exception.
    """

    __slots__ = ("generator", "_target", "name")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: str | None = None,
    ):
        if not hasattr(generator, "throw"):
            raise SimulationError(
                f"process() needs a generator, got {type(generator).__name__}"
            )
        super().__init__(env)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Optional[Event] = None
        _Initialize(env, self)

    @property
    def is_alive(self) -> bool:
        """True while the coroutine has not finished."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process as soon as possible."""
        self._interruption_cls(self, cause)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        self.env._active_process = self
        while True:
            try:
                if event._ok:
                    next_event = self.generator.send(event._value)
                else:
                    event._defused = True
                    next_event = self.generator.throw(event._value)
            except StopIteration as stop:
                self._finish(True, stop.value)
                return
            except BaseException as exc:
                self._finish(False, exc)
                return

            if not isinstance(next_event, self._event_cls):
                self._finish(
                    False,
                    SimulationError(
                        f"process {self.name!r} yielded a non-event: {next_event!r}"
                    ),
                )
                return

            if next_event.callbacks is not None:
                # Event still pending (or triggered but unprocessed):
                # subscribe and go to sleep.
                self._target = next_event
                next_event.callbacks.append(self._resume)
                self.env._active_process = None
                return
            # Event already processed — feed its outcome straight back in.
            event = next_event

    def _finish(self, ok: bool, value: Any) -> None:
        """Trigger the process event with the coroutine's outcome.

        Then the generator is dropped: whoever still holds the process
        (a VM's process list, a parent waiting on it) keeps only the
        event, not the generator and what it referenced.
        """
        self.env._active_process = None
        self._ok = ok
        self._value = value
        self.env._schedule(self, NORMAL, 0.0)
        self.generator = None

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


def _layered_classes(event_base: type) -> tuple[type, type, type, type]:
    """Build the kernel classes that stay in Python over ``event_base``.

    Interrupt delivery and the composite conditions only touch the
    public Event surface (``callbacks``, ``_ok``/``_value``/``_defused``
    assignment, ``succeed``/``fail``, ``env._schedule``), so the same
    class bodies run over either the pure-Python :class:`Event` or the C
    accelerator's Event. Called once per kernel flavor at import time.
    """

    class _Interruption(event_base):
        """Delivery vehicle for an interrupt (internal, URGENT priority)."""

        __slots__ = ("process",)

        def __init__(self, process: "Process", cause: Any):
            super().__init__(process.env)
            self.process = process
            self._ok = False
            self._value = Interrupt(cause)
            self._defused = True
            if process.triggered:
                raise SimulationError("cannot interrupt a terminated process")
            self.callbacks.append(self._deliver)
            self.env._schedule(self, URGENT, 0.0)

        def _deliver(self, event: "Event") -> None:
            process = self.process
            if process.triggered:  # terminated between schedule and delivery
                return
            # Unsubscribe from whatever the process was waiting on.
            target = process._target
            if target is not None and target.callbacks is not None:
                try:
                    target.callbacks.remove(process._resume)
                except ValueError:
                    pass
            process._target = None
            process._resume(self)

    class _Condition(event_base):
        """Base for AllOf/AnyOf composite events."""

        __slots__ = ("events", "_remaining")

        def __init__(self, env: "Environment", events: Iterable[Event]):
            super().__init__(env)
            self.events = list(events)
            for ev in self.events:
                if ev.env is not env:
                    raise SimulationError("condition mixes events from different envs")
            self._remaining = len(self.events)
            if not self.events:
                self.succeed(self._collect())
                return
            for ev in self.events:
                if ev.callbacks is None:
                    self._check(ev)
                else:
                    ev.callbacks.append(self._check)
                if self.triggered:
                    break

        def _collect(self) -> dict[Event, Any]:
            # Only *processed* events count as having happened: a Timeout
            # is born with its value set (triggered) but hasn't occurred
            # until its scheduled instant passes.
            return {ev: ev._value for ev in self.events if ev.processed}

        def _check(self, event: Event) -> None:
            raise NotImplementedError

    class AllOf(_Condition):
        """Triggers when all child events have triggered (fails fast on failure)."""

        __slots__ = ()

        def _check(self, event: Event) -> None:
            if self.triggered:
                return
            if not event._ok:
                event._defused = True
                self.fail(event._value)
                return
            self._remaining -= 1
            if self._remaining == 0:
                self.succeed(self._collect())

    class AnyOf(_Condition):
        """Triggers when the first child event triggers."""

        __slots__ = ()

        def _check(self, event: Event) -> None:
            if self.triggered:
                return
            if not event._ok:
                event._defused = True
                self.fail(event._value)
                return
            self.succeed(self._collect())

    return _Interruption, _Condition, AllOf, AnyOf


_Interruption, _Condition, AllOf, AnyOf = _layered_classes(Event)

# Bound on the class, not looked up as module globals: the bottom-of-
# module accelerator swap rebinds the module names, and the pure
# classes (still importable as PyEvent/PyEnvironment/...) must keep
# working as a self-contained kernel afterwards.
Process._event_cls = Event
Process._interruption_cls = _Interruption


class Environment:
    """The simulation event loop with virtual time.

    ``initial_time`` sets the clock origin; :meth:`run` drives the loop
    until the heap empties, a deadline passes, or a given event triggers.
    """

    #: Upper bound on the pooled-Timeout free list (see :meth:`pooled_timeout`).
    _TIMEOUT_POOL_MAX = 128

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = itertools.count()
        self._active_process: Optional[Process] = None
        self._timeout_pool: list[Timeout] = []
        #: Calendar-queue far band: bucket index -> unsorted entries.
        #: Entries carry the same (when, priority, seq, event) tuples as
        #: the heap, so merging preserves the total order exactly.
        self._far: dict[int, list[tuple[float, int, int, Event]]] = {}
        #: Lower time bound of the earliest pending far bucket (+inf
        #: when the far band is empty); popping from the near heap is
        #: safe only while its head is strictly below this boundary.
        self._far_next = _INF
        #: Optional callables invoked as ``tracer(env, event)`` right
        #: before each event's callbacks run.
        self.tracers: list[Callable[["Environment", Event], None]] = []

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # Self-contained class references (see the note above the class):
    # these survive the module-level rebinding to the C accelerator.
    _event_cls = Event
    _timeout_cls = Timeout
    _process_cls = Process
    _all_of_cls = AllOf
    _any_of_cls = AnyOf

    # -- event factories -------------------------------------------------
    def event(self) -> Event:
        """Create a pending event the caller triggers manually."""
        return self._event_cls(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event triggering ``delay`` time units from now."""
        return self._timeout_cls(self, delay, value)

    def pooled_timeout(self, delay: float, value: Any = None) -> Timeout:
        """A :class:`Timeout` drawn from a free list when possible.

        For components that schedule wake-ups in a tight loop and can
        guarantee exclusive ownership of the timeout (no other process
        holds a reference once it is processed), recycling avoids one
        allocation per wake. Return the timeout with
        :meth:`release_timeout` once it has been processed.
        """
        pool = self._timeout_pool
        if pool and delay >= 0:
            timeout = pool.pop()
            timeout.reset()
            timeout._ok = True
            timeout._value = value
            timeout.delay = delay
            self._schedule(timeout, NORMAL, delay)
            return timeout
        return self._timeout_cls(self, delay, value)

    def release_timeout(self, timeout: Timeout) -> None:
        """Return a *processed* pooled timeout to the free list.

        Callers must guarantee no other component still references the
        timeout; unprocessed timeouts are silently ignored.
        """
        if timeout.callbacks is None and len(self._timeout_pool) < self._TIMEOUT_POOL_MAX:
            self._timeout_pool.append(timeout)

    def process(
        self, generator: Generator[Event, Any, Any], name: str | None = None
    ) -> Process:
        """Start a coroutine process."""
        return self._process_cls(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when every event in ``events`` has."""
        return self._all_of_cls(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when the first of ``events`` does."""
        return self._any_of_cls(self, events)

    # -- scheduling/loop --------------------------------------------------
    def _schedule(self, event: Event, priority: int, delay: float) -> None:
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        when = self._now + delay
        if delay >= _FAR_HORIZON and when < _INF:
            # Far band: O(1) bucket append instead of a heap push. The
            # full ordering key rides along, so the eventual merge slots
            # the entry exactly where a direct push would have.
            bucket = int(when // _FAR_HORIZON)
            entry = (when, priority, next(self._seq), event)
            try:
                self._far[bucket].append(entry)
            except KeyError:
                self._far[bucket] = [entry]
                boundary = bucket * _FAR_HORIZON
                if boundary < self._far_next:
                    self._far_next = boundary
            return
        heapq.heappush(self._heap, (when, priority, next(self._seq), event))

    def _refill(self) -> None:
        """Merge due far buckets into the near heap.

        Called whenever the heap's head is not strictly below the
        earliest far-bucket boundary: every entry in bucket ``k`` has
        ``when >= k * _FAR_HORIZON``, so the head can only be dispatched
        once all buckets at or below it are merged.
        """
        heap = self._heap
        far = self._far
        while far:
            bucket = min(far)
            boundary = bucket * _FAR_HORIZON
            if heap and heap[0][0] < boundary:
                self._far_next = boundary
                return
            for entry in far.pop(bucket):
                heapq.heappush(heap, entry)
        self._far_next = _INF

    def peek(self) -> float:
        """Time of the next event, or +inf if nothing is scheduled."""
        heap = self._heap
        if self._far_next <= (heap[0][0] if heap else _INF):
            self._refill()
        return heap[0][0] if heap else _INF

    def step(self) -> None:
        """Process exactly one event."""
        heap = self._heap
        if self._far_next <= (heap[0][0] if heap else _INF):
            self._refill()
        if not heap:
            raise SimulationError("step() on an empty event heap")
        when, _prio, _seq, event = heapq.heappop(heap)
        self._now = when
        if self.tracers:
            for tracer in self.tracers:
                tracer(self, event)
        callbacks, event.callbacks = event.callbacks, None
        # Snapshot the outcome first: a callback may recycle the event
        # (Event.reset) once it has been delivered.
        ok, value = event._ok, event._value
        for callback in callbacks:
            callback(event)
        if not ok and not event._defused:
            # Nothing handled the failure: surface it to the driver.
            raise value

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the heap empties, time ``until`` passes, or event fires.

        Returns the event's value when ``until`` is an event.
        """
        if isinstance(until, self._event_cls):
            stop_event = until
            if stop_event.processed:
                if stop_event.ok:
                    return stop_event.value
                raise stop_event.value
            sentinel = [False]

            def _mark(_ev: Event) -> None:
                sentinel[0] = True

            stop_event.callbacks.append(_mark)
            step = self.step
            heap = self._heap
            while not sentinel[0] and (heap or self._far):
                step()
            if not stop_event.triggered:
                raise SimulationError(
                    "run(until=event) exhausted the heap before the event fired"
                )
            if stop_event.ok:
                return stop_event.value
            stop_event.defuse()
            raise stop_event.value

        deadline = _INF if until is None else float(until)
        if deadline != _INF and deadline < self._now:
            raise SimulationError(f"run(until={until}) is in the past (now={self._now})")
        heap = self._heap
        heappop, heappush = heapq.heappop, heapq.heappush
        while True:
            if self._far_next <= (heap[0][0] if heap else _INF):
                self._refill()
            if not heap or heap[0][0] > deadline:
                break
            # Batch dispatch: pop every entry at this instant in one
            # cycle instead of re-entering step() per event. Ordering is
            # still exactly (when, priority, seq): the batch comes off
            # the heap in key order, and the guard below re-merges the
            # un-dispatched remainder whenever a callback schedules a
            # same-instant event (an URGENT interrupt, say) that sorts
            # before it.
            when = heap[0][0]
            batch = [heappop(heap)]
            while heap and heap[0][0] == when:
                batch.append(heappop(heap))
            self._now = when
            tracers = self.tracers
            index, size = 0, len(batch)
            try:
                while index < size:
                    entry = batch[index]
                    if heap:
                        top = heap[0]
                        if top[0] == when and (
                            top[1] < entry[1]
                            or (top[1] == entry[1] and top[2] < entry[2])
                        ):
                            break  # preempted: remainder re-pushed below
                    index += 1
                    event = entry[3]
                    if tracers:
                        for tracer in tracers:
                            tracer(self, event)
                    callbacks, event.callbacks = event.callbacks, None
                    # Snapshot first: a callback may recycle the event.
                    ok, value = event._ok, event._value
                    for callback in callbacks:
                        callback(event)
                    if not ok and not event._defused:
                        raise value
            finally:
                # Preemption or an unhandled failure left part of the
                # batch un-dispatched: back onto the heap, unchanged.
                for entry in batch[index:]:
                    heappush(heap, entry)
        if deadline != _INF:
            self._now = deadline
        return None


# ---------------------------------------------------------------------------
# Optional C accelerator
# ---------------------------------------------------------------------------
#: The pure-Python implementations stay importable under these names no
#: matter which kernel is active (parity tests compare the two).
PyEvent, PyTimeout, PyProcess, PyEnvironment = Event, Timeout, Process, Environment

_ckern = None
if not os.environ.get("FRIEDA_PURE_KERNEL"):
    try:
        _ckern = importlib.import_module("repro.sim._ckern")
    except ImportError:
        _ckern = None

if _ckern is not None:
    # Rebind the public kernel names to the C implementations and
    # rebuild the Python-layered classes over the C Event base. Every
    # downstream import (`from repro.sim.kernel import Environment`)
    # happens after this module finishes executing, so the swap is
    # invisible except for speed. FRIEDA_PURE_KERNEL=1 (checked above)
    # forces the reference kernel instead.
    Event = _ckern.Event
    Timeout = _ckern.Timeout
    Process = _ckern.Process
    Environment = _ckern.Environment
    _PENDING = _ckern.PENDING
    _Interruption, _Condition, AllOf, AnyOf = _layered_classes(Event)
    _ckern._register(
        error=SimulationError,
        interruption=_Interruption,
        all_of=AllOf,
        any_of=AnyOf,
    )
