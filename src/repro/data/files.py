"""File and dataset model.

FRIEDA's unit of data management is the *input file*: the partition
generator groups files, the master transfers files, workers substitute
file paths into the execution command. :class:`DataFile` is a metadata
handle (name + size + optional real path); the simulated engine only
needs metadata, while the real runtimes resolve ``path`` to bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from repro.errors import StorageError
from repro.util.seeding import make_rng
from repro.util.units import format_bytes, parse_size

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True, order=True)
class DataFile:
    """Metadata handle for one input file.

    ``name`` is unique within a dataset; ``size`` is in bytes. ``path``
    points at real bytes for the non-simulated runtimes and is ``None``
    for purely simulated files.
    """

    name: str
    size: int
    path: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative file size for {self.name!r}")

    def __str__(self) -> str:
        return f"{self.name} ({format_bytes(self.size)})"


class Dataset:
    """An ordered collection of :class:`DataFile` with unique names.

    Order matters: the ``pairwise_adjacent`` grouping pairs files in
    dataset order, exactly like the paper pairs adjacent files of the
    input directory listing.
    """

    def __init__(self, name: str, files: Iterable[DataFile] = ()):
        self.name = name
        self._files: list[DataFile] = []
        self._by_name: dict[str, DataFile] = {}
        for file in files:
            self.add(file)

    def add(self, file: DataFile) -> None:
        if file.name in self._by_name:
            raise StorageError(f"duplicate file name {file.name!r} in dataset {self.name!r}")
        self._by_name[file.name] = file
        self._files.append(file)

    def __len__(self) -> int:
        return len(self._files)

    def __iter__(self) -> Iterator[DataFile]:
        return iter(self._files)

    def __getitem__(self, index: int) -> DataFile:
        return self._files[index]

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def get(self, name: str) -> DataFile:
        try:
            return self._by_name[name]
        except KeyError:
            raise StorageError(f"no file {name!r} in dataset {self.name!r}") from None

    @property
    def files(self) -> tuple[DataFile, ...]:
        return tuple(self._files)

    @property
    def total_size(self) -> int:
        """Total bytes across all files."""
        return sum(f.size for f in self._files)

    def sorted_by_name(self) -> "Dataset":
        """A copy with files in lexicographic name order (ls-like)."""
        return Dataset(self.name, sorted(self._files, key=lambda f: f.name))

    @classmethod
    def from_directory(
        cls,
        directory: str,
        name: str | None = None,
        pattern: Callable[[str], bool] | None = None,
    ) -> "Dataset":
        """Scan a real directory into a dataset (sorted, like ``ls``).

        ``pattern`` filters file names; subdirectories are ignored —
        FRIEDA's partition generator works on a flat input directory.
        """
        if not os.path.isdir(directory):
            raise StorageError(f"input directory not found: {directory}")
        files = []
        for entry in sorted(os.listdir(directory)):
            full = os.path.join(directory, entry)
            if not os.path.isfile(full):
                continue
            if pattern is not None and not pattern(entry):
                continue
            files.append(DataFile(name=entry, size=os.path.getsize(full), path=full))
        return cls(name or os.path.basename(directory.rstrip("/")) or "dataset", files)

    def __repr__(self) -> str:
        return (
            f"Dataset({self.name!r}, files={len(self)}, "
            f"total={format_bytes(self.total_size)})"
        )


class FileCatalog:
    """Tracks which node holds a replica of which file.

    The master consults the catalog to decide whether a worker already
    has a file (pre-partitioned local) or needs a transfer; the
    elasticity manager updates it when workers join or leave.
    """

    def __init__(self) -> None:
        self._replicas: dict[str, set[str]] = {}

    def add_replica(self, file_name: str, node_id: str) -> None:
        self._replicas.setdefault(file_name, set()).add(node_id)

    def drop_node(self, node_id: str) -> int:
        """Forget all replicas on ``node_id``; returns how many were dropped."""
        dropped = 0
        for holders in self._replicas.values():
            if node_id in holders:
                holders.discard(node_id)
                dropped += 1
        return dropped

    def holders(self, file_name: str) -> frozenset[str]:
        return frozenset(self._replicas.get(file_name, ()))

    def has_replica(self, file_name: str, node_id: str) -> bool:
        return node_id in self._replicas.get(file_name, ())

    def replica_count(self, file_name: str) -> int:
        return len(self._replicas.get(file_name, ()))

    def files_on(self, node_id: str) -> frozenset[str]:
        return frozenset(
            name for name, holders in self._replicas.items() if node_id in holders
        )


def synthetic_dataset(
    name: str,
    count: int,
    mean_size: str | int,
    *,
    size_cv: float = 0.0,
    seed: int | np.random.Generator | None = 0,
    prefix: str = "file",
    suffix: str = ".dat",
) -> Dataset:
    """Build a purely simulated dataset of ``count`` files.

    ``mean_size`` accepts humane strings ("7 MB"); ``size_cv`` is the
    coefficient of variation of a lognormal size distribution (0 for
    constant sizes). Used by the workload builders to model the 1250
    beamline images / 7500 protein sequence files of §IV-A.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    mean = parse_size(mean_size)
    width = max(4, len(str(max(count - 1, 0))))
    sizes = [mean] * count
    if size_cv > 0:
        import numpy as np

        # Lognormal with the requested mean and CV.
        rng = make_rng(seed, "dataset", name)
        sigma2 = np.log(1.0 + size_cv**2)
        mu = np.log(mean) - sigma2 / 2.0
        sizes = [max(1, int(rng.lognormal(mu, np.sqrt(sigma2)))) for _ in range(count)]
    files = [
        DataFile(name=f"{prefix}{index:0{width}d}{suffix}", size=size)
        for index, size in enumerate(sizes)
    ]
    return Dataset(name, files)
