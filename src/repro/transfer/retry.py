"""Deterministic retry policy for the data-movement layer.

Pilot-Data's lesson (PAPERS.md, 1301.6228): robustness in cloud data
management is won at the *transfer* layer — an scp session reset or a
stalled link should cost a retry, not a workflow. The FRIEDA paper
itself only re-runs whole tasks (§V-A); per-transfer retry with backoff
is our extension, so the paper-faithful preset keeps it off.

All backoff jitter comes from a seeded RNG owned by the
:class:`~repro.transfer.staging.TransferService` (stream
``"transfer-backoff"``), never from wall-clock or global random state,
so a chaos run replays byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class TransferRetryPolicy:
    """How a :class:`TransferService` reacts to a failed transfer attempt.

    ``max_attempts`` counts tries *including* the first (1 = no retry,
    matching :class:`repro.core.fault.RetryPolicy` semantics). After
    failed attempt *k* the service sleeps
    ``min(cap, base * factor**(k-1))`` seconds, jittered uniformly by
    ``±jitter_fraction`` of itself. ``timeout_s`` bounds each attempt's
    wire time: on expiry the attempt's remaining flows are cancelled
    (releasing their bandwidth) and the attempt counts as failed.
    """

    max_attempts: int = 1
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_cap_s: float = 60.0
    #: Uniform jitter as a fraction of the delay, in [0, 1].
    jitter_fraction: float = 0.0
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ConfigurationError("jitter_fraction must be in [0, 1]")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError("timeout_s must be positive")

    @classmethod
    def paper_faithful(cls) -> "TransferRetryPolicy":
        """One shot, no timeout: a lost transfer surfaces as a task error
        and costs a whole re-run, exactly as the paper's recovery does."""
        return cls(max_attempts=1)

    @classmethod
    def resilient(cls) -> "TransferRetryPolicy":
        """The recommended chaos-survival preset: 5 attempts, 1 s base
        exponential backoff with 25% jitter, 300 s per-attempt guard."""
        return cls(
            max_attempts=5,
            backoff_base_s=1.0,
            backoff_factor=2.0,
            backoff_cap_s=30.0,
            jitter_fraction=0.25,
            timeout_s=300.0,
        )

    @property
    def enabled(self) -> bool:
        """False when the policy can never change behaviour — the service
        uses this to keep the no-retry path zero-cost."""
        return self.max_attempts > 1 or self.timeout_s is not None

    def backoff_s(self, attempt: int, rng: np.random.Generator) -> float:
        """Delay after failed attempt number ``attempt`` (1-based).

        The RNG is only consulted when jitter is configured, so the
        jitter-free policies leave the seeded stream untouched.
        """
        delay = min(
            self.backoff_cap_s,
            self.backoff_base_s * self.backoff_factor ** (attempt - 1),
        )
        if self.jitter_fraction > 0.0 and delay > 0.0:
            delay *= 1.0 + self.jitter_fraction * (2.0 * float(rng.random()) - 1.0)
        return delay
