"""Exception hierarchy shared across the FRIEDA reproduction.

All library-raised exceptions derive from :class:`FriedaError` so callers
can catch framework failures without swallowing programming errors.
"""

from __future__ import annotations


class FriedaError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(FriedaError):
    """Raised for discrete-event-kernel misuse (e.g. running a dead env)."""


class NetworkError(FriedaError):
    """Raised when a network transfer cannot be carried out."""


class StorageError(FriedaError):
    """Raised when a storage operation fails (capacity, missing volume)."""


class ProvisioningError(FriedaError):
    """Raised when a virtual cluster cannot be provisioned."""


class PartitionError(FriedaError):
    """Raised for invalid partition-generator configurations."""


class ProtocolError(FriedaError):
    """Raised when a FRIEDA protocol message violates the state machine."""


class ChecksumError(ProtocolError):
    """A frame's binary payload failed checksum verification.

    The frame (header, body, and payload) was fully consumed before the
    error was raised, so the stream is still correctly framed: the
    receiver may keep reading and ask the sender for a retransmit.
    """

    def __init__(self, frame: object, expected: str, actual: str):
        super().__init__(
            f"payload checksum mismatch for {frame!r}: "
            f"expected {expected}, got {actual}"
        )
        self.frame = frame
        self.expected = expected
        self.actual = actual


class ConfigurationError(FriedaError):
    """Raised when a user-facing configuration is inconsistent."""


class JournalError(FriedaError):
    """Raised for control-plane journal misuse or unrecoverable damage.

    Record-level damage (truncated tail, flipped CRC) is *not* an
    error — recovery stops cleanly at the last valid record.  This is
    for the cases with no valid prefix to fall back to: a file that was
    never a journal, an unsupported version, or a replay whose rebuilt
    state diverges from what the live service recorded.
    """


class TransferError(FriedaError):
    """Raised when a data transfer fails permanently."""


class ApplicationError(FriedaError):
    """Raised by the bundled applications (mini-BLAST, imaging)."""
