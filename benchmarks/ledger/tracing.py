"""Per-layer attribution of one traced call, measured from outside.

The ledger never edits ``src/``: the traced run wraps the same public
call the untraced runs time in one :class:`cProfile.Profile` per thread
(the main thread's is enabled here, every thread the program starts
gets its own through :func:`threading.setprofile`).  cProfile's timer
is the wall clock, so a thread asleep in ``epoll.poll`` or
``Condition.wait`` shows up as ``loop.idle`` time rather than vanishing.

Every profiled code object gets exactly one label:

- Python code under ``src/repro/`` → the layer named after its module
  path (``src/repro/cloud/network.py`` → ``cloud.network``);
- Python code of the benchmark itself → ``bench.harness``;
- stdlib Python code → a named bucket by module (:data:`STDLIB_BUCKETS`),
  otherwise unattributed;
- a builtin → a named bucket by function (:data:`BUILTIN_BUCKETS`:
  ``os.fsync`` is ``io.fsync``, ``epoll.poll`` is ``loop.idle``, the C
  kernel is ``sim.kernel`` …); every *other* builtin (``len``,
  ``heappush``, ``dict.get``) is charged to the label of the code that
  called it, call by call, using cProfile's caller→callee subentries —
  a ``list.append`` inside ``cloud/network.py`` is that layer's self
  time, not noise.  Code compiled from a string (the ``__init__`` a
  dataclass generates) inherits its caller's label the same way.

What is left without a label is ``trace.unattributed_frac``.

The named public entry points (:data:`ENTRY_POINTS`) are read from the
same profile: cProfile's ``ncalls``/``cumtime`` for a function *is* a
span at that layer boundary — name, count, inclusive and self time.
"""

from __future__ import annotations

import cProfile
import sysconfig
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

LEDGER_DIR = Path(__file__).resolve().parent
SRC_REPRO = LEDGER_DIR.parents[1] / "src" / "repro"
_STDLIB = Path(sysconfig.get_paths()["stdlib"])

#: Layers whose ``self_s``/``calls`` the ledger reports on every workload.
LAYERS = (
    "sim.kernel", "sim.resources", "sim.monitor",
    "cloud.network", "cloud.maxmin", "cloud.storage",
    "transfer.staging", "engines.simulated",
    "core.scheduler", "core.worker", "core.messages",
    "data.partition", "telemetry.spans", "telemetry.metrics",
    "runtime.local", "runtime.tcp", "runtime.protocol",
    "service.core", "service.admission", "service.fairshare",
    "service.jobs", "service.pool", "service.journal", "service.journalfs",
)

#: Buckets for time spent outside ``src/repro``.
BUCKETS = (
    "io.fsync", "io.file", "io.socket", "loop.idle", "loop.dispatch",
    "codec.json", "codec.checksum", "bench.harness",
)

#: stdlib module (top-level name) → bucket, for Python-level frames.
STDLIB_BUCKETS = {
    "asyncio": "loop.dispatch", "selectors": "loop.dispatch",
    "threading": "loop.dispatch", "concurrent": "loop.dispatch",
    "queue": "loop.dispatch", "contextlib": "loop.dispatch",
    "json": "codec.json", "dataclasses": "codec.json", "copy": "codec.json",
    "hashlib": "codec.checksum",
    "tempfile": "io.file", "shutil": "io.file", "os": "io.file",
    "posixpath": "io.file", "genericpath": "io.file", "pathlib": "io.file",
    "stat": "io.file", "io": "io.file",
    "socket": "io.socket",
}

#: Substring of a builtin's cProfile name → bucket; first match wins.
BUILTIN_BUCKETS = (
    ("posix.fsync", "io.fsync"),
    ("select.epoll", "loop.idle"), ("select.poll", "loop.idle"),
    ("select.select", "loop.idle"), ("time.sleep", "loop.idle"),
    ("'acquire' of '_thread.", "loop.idle"),
    ("'get' of '_queue.SimpleQueue'", "loop.idle"),
    ("_socket.", "io.socket"),
    ("posix.", "io.file"), ("_io.", "io.file"), ("io.open", "io.file"),
    ("zlib.", "codec.checksum"), ("_hashlib", "codec.checksum"),
    ("_sha", "codec.checksum"), ("_md5", "codec.checksum"),
    ("_blake2", "codec.checksum"), ("binascii", "codec.checksum"),
    ("_json", "codec.json"),
    ("_ckern", "sim.kernel"),
    ("_asyncio", "loop.dispatch"), ("_contextvars", "loop.dispatch"),
)

#: metric prefix → (layer, function name): the spans at layer boundaries.
ENTRY_POINTS = {
    "cloud.maxmin.solve": ("cloud.maxmin", "solve_rates"),
    "cloud.network.start_flow": ("cloud.network", "start_flow"),
    "core.scheduler.next_for": ("core.scheduler", "next_for"),
    "core.scheduler.peek_pending": ("core.scheduler", "peek_pending"),
    "service.core.lease": ("service.core", "lease"),
    "service.core.submit": ("service.core", "submit"),
    "service.core.complete": ("service.core", "complete"),
    "service.core.recover": ("service.core", "recover"),
    "service.pool.acquire": ("service.pool", "acquire"),
    "service.journal.append": ("service.journal", "append"),
    "service.journal.compact": ("service.journal", "compact"),
    "service.journalfs.append": ("service.journalfs", "append"),
    "core.messages.encode": ("core.messages", "encode_message"),
    "core.messages.decode": ("core.messages", "decode_message"),
    "runtime.protocol.write_frame": ("runtime.protocol", "write_frame"),
}

UNATTRIBUTED = "unattributed"


def _label_code(code: Any) -> str:
    """Label of one Python code object (never a builtin)."""
    filename = code.co_filename
    if filename.startswith("<frozen "):
        module = filename[len("<frozen "):-1].split(".")[0]
        return STDLIB_BUCKETS.get(module, UNATTRIBUTED)
    path = Path(filename)
    if path.is_relative_to(SRC_REPRO):
        parts = list(path.relative_to(SRC_REPRO).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        return ".".join(parts) or "repro"
    if path.is_relative_to(LEDGER_DIR):
        return "bench.harness"
    if path.is_relative_to(_STDLIB):
        module = path.relative_to(_STDLIB).parts[0].removesuffix(".py")
        return STDLIB_BUCKETS.get(module, UNATTRIBUTED)
    return UNATTRIBUTED


def _builtin_bucket(name: str) -> str | None:
    for needle, bucket in BUILTIN_BUCKETS:
        if needle in name:
            return bucket
    return None


def _own_label(code: Any) -> str | None:
    """The label ``code`` carries by itself; ``None`` when its time
    belongs to whoever called it: a generic builtin, or code compiled
    from a string (a dataclass's generated ``__init__``)."""
    if isinstance(code, str):
        return _builtin_bucket(code)
    if code.co_filename == "<string>":
        return None
    return _label_code(code)


def _function_name(code: Any) -> str:
    return code if isinstance(code, str) else code.co_name


class LayerTrace:
    """The folded result of one traced call."""

    def __init__(self, wall_s: float, threads: int) -> None:
        self.wall_s = wall_s
        self.threads = threads
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: entry-point metric prefix → [calls, inclusive seconds, self seconds]
        self.spans: dict[str, list[float]] = {
            name: [0, 0.0, 0.0] for name in ENTRY_POINTS
        }
        #: (label, function) → self seconds, for the written report.
        self.functions: dict[tuple[str, str], float] = defaultdict(float)

    @property
    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    @property
    def unattributed_frac(self) -> float:
        total = self.total_self_s
        return self.self_s[UNATTRIBUTED] / total if total > 0 else 1.0

    def span(self, name: str) -> tuple[int, float]:
        calls, cum_s, _self_s = self.spans[name]
        return int(calls), cum_s

    def fold(self, stats: list[Any]) -> None:
        by_point = {point: name for name, point in ENTRY_POINTS.items()}
        labels = {entry.code: _own_label(entry.code) for entry in stats}
        inherited: dict[Any, float] = defaultdict(float)
        for entry in stats:
            label = labels[entry.code]
            if label is not None:
                name = _function_name(entry.code)
                self.self_s[label] += entry.inlinetime
                self.calls[label] += entry.callcount
                self.functions[(label, name)] += entry.inlinetime
                point = by_point.get((label, name))
                if point is not None:
                    span = self.spans[point]
                    span[0] += entry.callcount
                    span[1] += entry.totaltime
                    span[2] += entry.inlinetime
            heir = label or UNATTRIBUTED
            for sub in entry.calls or ():
                if labels[sub.code] is None:
                    self.self_s[heir] += sub.inlinetime
                    self.functions[(heir, _function_name(sub.code))] += sub.inlinetime
                    inherited[sub.code] += sub.inlinetime
        # Label-less code invoked with no profiled caller (the root of a
        # thread) has nobody to inherit from.
        for entry in stats:
            if labels[entry.code] is None:
                orphan = entry.inlinetime - inherited[entry.code]
                if orphan > 0:
                    self.self_s[UNATTRIBUTED] += orphan
                    self.functions[(UNATTRIBUTED, _function_name(entry.code))] += orphan

    def report(self, top: int = 25) -> dict[str, Any]:
        """The JSON written once per traced run."""
        total = self.total_self_s
        ranked = sorted(self.functions.items(), key=lambda kv: -kv[1])
        return {
            "traced_wall_s": self.wall_s,
            "threads_profiled": self.threads,
            "total_self_s": total,
            "unattributed_frac": self.unattributed_frac,
            "layers": {
                label: {
                    "self_s": self.self_s[label],
                    "share": self.self_s[label] / total if total > 0 else 0.0,
                    "calls": self.calls.get(label, 0),
                }
                for label in sorted(self.self_s, key=lambda k: -self.self_s[k])
            },
            "spans": {
                name: {"calls": int(c), "inclusive_s": cum, "self_s": own}
                for name, (c, cum, own) in self.spans.items()
                if c
            },
            "top_functions": [
                {"label": label, "function": fn, "self_s": s}
                for (label, fn), s in ranked[:top]
            ],
            "top_unattributed": [
                {"function": fn, "self_s": s}
                for (label, fn), s in ranked
                if label == UNATTRIBUTED
            ][:10],
        }


def trace_call(call: Callable[[], Any]) -> tuple[Any, LayerTrace]:
    """Run ``call()`` with a profiler on every thread; fold the result."""
    thread_profiles: list[cProfile.Profile] = []

    def bootstrap(_frame: Any, _event: str, _arg: Any) -> None:
        # First profile event of a new thread: swap this Python-level
        # hook for a C profiler of the thread's own.
        profile = cProfile.Profile()
        thread_profiles.append(profile)
        profile.enable()

    main_profile = cProfile.Profile()
    threading.setprofile(bootstrap)
    started = time.perf_counter()
    main_profile.enable()
    try:
        result = call()
    finally:
        main_profile.disable()
        wall_s = time.perf_counter() - started
        threading.setprofile(None)
        # disable() clears the *calling* thread's hook and flushes the
        # profile's open frames; the threads themselves have ended.
        for profile in thread_profiles:
            profile.disable()
    trace = LayerTrace(wall_s, threads=1 + len(thread_profiles))
    for profile in (main_profile, *thread_profiles):
        trace.fold(profile.getstats())
    return result, trace
