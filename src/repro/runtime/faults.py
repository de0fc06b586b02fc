"""Deterministic fault injection for the real (TCP) execution plane.

This is the runtime twin of the simulator's
:class:`~repro.cloud.failures.TransferFaultModel`: where the simulated
fault model perturbs modeled transfers, :class:`FaultyChannel` perturbs
real frames on a real socket. Both are seeded, so a chaos run replays
identically.

A :class:`FaultScript` is a list of :class:`FaultRule`\\ s matched
against outgoing frames (by sender side, message type, task id, file
name). Each rule fires a bounded number of times, then exhausts — the
scripted style keeps cross-engine chaos suites deterministic even when
task→worker placement is racy, because rules key on *what* is sent, not
*who* sends it.

Actions:

- ``drop``      the frame is silently discarded (receiver sees nothing);
- ``delay``     the frame is sent after ``delay_s`` of real time;
- ``corrupt``   one payload byte is flipped (checksummed payloads are
                caught by the receiver and re-requested);
- ``truncate``  only a seeded fraction of the frame's wire bytes are
                written and the connection is closed mid-frame — the
                exact failure mode ``TransferFaultModel`` draws.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.core.messages import Message
from repro.errors import ConfigurationError
from repro.runtime.protocol import Channel, frame_head
from repro.util.seeding import make_rng

_ACTIONS = ("drop", "delay", "corrupt", "truncate")


@dataclass
class FaultRule:
    """One scripted perturbation; fires on the first ``times`` matches."""

    action: str
    #: Wire name to match (e.g. ``"FILE_DATA"``); empty matches any.
    msg_type: str = ""
    #: Task id to match; ``None`` matches any.
    task_id: int | None = None
    #: File name to match (``FILE_DATA`` only); empty matches any.
    file_name: str = ""
    #: Which sender the rule applies to: ``"master"`` or ``"worker"``.
    side: str = "master"
    #: How many matching frames the rule fires on before exhausting.
    times: int = 1
    #: Real seconds to hold a ``delay``-ed frame.
    delay_s: float = 0.05
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ConfigurationError(
                f"unknown fault action {self.action!r}; expected one of {_ACTIONS}"
            )
        if self.side not in ("master", "worker"):
            raise ConfigurationError("side must be 'master' or 'worker'")
        if self.times < 1:
            raise ConfigurationError("times must be >= 1")

    @property
    def exhausted(self) -> bool:
        return self.fired >= self.times

    def matches(self, side: str, message: Message) -> bool:
        if self.exhausted or side != self.side:
            return False
        if self.msg_type and message.msg_type != self.msg_type:
            return False
        if self.task_id is not None and getattr(message, "task_id", None) != self.task_id:
            return False
        if self.file_name and getattr(message, "file_name", "") != self.file_name:
            return False
        return True


class FaultScript:
    """A seeded set of fault rules shared by every channel of one run.

    The rules' fire counters live here, so "corrupt the first send of
    task 3's payload" fires exactly once no matter which connection
    carries it. The RNG only decides *how* a firing perturbs bytes
    (corrupt position, truncate fraction) — *whether* a frame is
    perturbed is fully scripted.
    """

    def __init__(self, rules: list[FaultRule] | tuple[FaultRule, ...], *, seed: int = 0):
        self.rules = list(rules)
        self._rng = make_rng(seed, "runtime-faults")
        #: (side, action, msg_type, task_id) of every firing, in order.
        self.injected: list[tuple[str, str, str, int]] = []

    def match(self, side: str, message: Message) -> FaultRule | None:
        for rule in self.rules:
            if rule.matches(side, message):
                return rule
        return None

    def record(self, side: str, rule: FaultRule, message: Message) -> None:
        rule.fired += 1
        self.injected.append(
            (side, rule.action, message.msg_type, getattr(message, "task_id", -1))
        )

    def corrupt_position(self, length: int) -> int:
        return int(self._rng.integers(0, length)) if length > 0 else 0

    def truncate_fraction(self) -> float:
        # Mirror TransferFaultModel: the stream dies after a drawn
        # fraction of its wire bytes has moved.
        return float(self._rng.uniform(0.05, 0.95))


class FaultyChannel(Channel):
    """A :class:`Channel` whose sends pass through a :class:`FaultScript`."""

    def __init__(self, reader, writer, script: FaultScript, side: str):
        super().__init__(reader, writer)
        self.script = script
        self.side = side

    async def send(self, message: Message, payload: bytes = b"") -> None:
        rule = self.script.match(self.side, message)
        if rule is None:
            await super().send(message, payload)
            return
        self.script.record(self.side, rule, message)
        if rule.action == "drop":
            return
        if rule.action == "delay":
            await asyncio.sleep(rule.delay_s)
            await super().send(message, payload)
            return
        if rule.action == "corrupt":
            if payload:
                pos = self.script.corrupt_position(len(payload))
                corrupted = bytearray(payload)
                corrupted[pos] ^= 0xFF
                # The header (and its checksum) describes the original
                # payload — exactly what a wire flip looks like.
                await super().send(message, bytes(corrupted))
            else:
                # No payload to flip: a corrupt control frame is
                # indistinguishable from a dead connection; truncate.
                self._truncate(message, payload)
            return
        if rule.action == "truncate":
            self._truncate(message, payload)
            return
        raise AssertionError(f"unreachable action {rule.action!r}")

    def _truncate(self, message: Message, payload: bytes) -> None:
        blob = frame_head(message, payload) + payload
        cut = max(1, int(len(blob) * self.script.truncate_fraction()))
        self.writer.write(blob[:cut])
        self.writer.close()
