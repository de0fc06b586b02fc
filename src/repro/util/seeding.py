"""Deterministic RNG derivation.

Every stochastic component (task-cost sampling, failure injection,
workload generation) takes an explicit seed or Generator; nothing in the
library touches global NumPy/`random` state. :func:`derive_seed` gives
stable, independent streams for named sub-components so a simulation is
reproducible regardless of the order modules initialize in.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def derive_seed(root_seed: int, *names: str | int) -> int:
    """Derive a stable 63-bit child seed from a root seed and a name path.

    The derivation hashes the root seed together with the path, so
    ``derive_seed(7, "failures")`` and ``derive_seed(7, "tasks")`` are
    independent streams while remaining reproducible across runs and
    platforms.
    """
    digest = hashlib.blake2b(digest_size=8)
    digest.update(str(int(root_seed)).encode())
    for name in names:
        digest.update(b"/")
        digest.update(str(name).encode())
    return int.from_bytes(digest.digest(), "big") & (2**63 - 1)


def make_rng(seed: int | np.random.Generator | None, *names: str | int) -> np.random.Generator:
    """Build a :class:`numpy.random.Generator` from a seed or pass one through.

    When ``seed`` is already a Generator it is returned unchanged (the
    caller owns the stream). ``None`` yields a fresh OS-seeded stream.
    """
    import numpy as np

    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        # The one sanctioned escape hatch: callers explicitly opting out
        # of reproducibility by passing seed=None.
        # frieda: allow[unseeded-rng] -- explicit seed=None opt-out
        return np.random.default_rng()
    return np.random.default_rng(derive_seed(int(seed), *names) if names else int(seed))


class SeedSequenceFactory:
    """Hands out independent child RNGs derived from one root seed.

    >>> factory = SeedSequenceFactory(42)
    >>> rng_a = factory.rng("failures")
    >>> rng_b = factory.rng("tasks")

    The two generators are independent but both fully determined by the
    root seed.
    """

    def __init__(self, root_seed: int):
        self.root_seed = int(root_seed)

    def seed(self, *names: str | int) -> int:
        """Return the derived integer seed for a named stream."""
        return derive_seed(self.root_seed, *names)

    def rng(self, *names: str | int) -> np.random.Generator:
        """Return a Generator for a named stream."""
        import numpy as np

        return np.random.default_rng(self.seed(*names))
