"""repro.storage — pluggable physical storage for the triple store.

The :class:`StorageBackend` contract captures every operation the
:class:`~repro.rdf.store.TripleStore` performs against its triple
table: encoded add/remove, pattern matches through the tightest index,
exact pattern counts, per-column statistics ground truth, and deep
copies. Everything above the store — the physical-operator engine, the
planner, the statistics catalog, reformulation, and view selection — is
backend-agnostic.

Backends:

* :class:`MemoryBackend` — the seed's in-memory hexastore structures
  (the default; fastest for data that fits in RAM);
* :class:`SqliteBackend` — a disk-backed SQLite triple table with
  SPO/POS/OSP B-tree indexes; datasets no longer need to fit in Python
  object memory, and a file-backed store *is* its own snapshot.

:mod:`repro.storage.snapshot` defines the single-file snapshot format
behind ``TripleStore.save(path)`` / ``TripleStore.open(path)``.

This package sits *below* ``repro.rdf``: it speaks only dictionary
codes (ints), never RDF terms, so it imports nothing from the layers
it serves.
"""

from repro.storage.base import (
    BACKENDS,
    COLUMNS,
    EncodedPattern,
    EncodedTriple,
    StorageBackend,
    create_backend,
)
from repro.storage.memory import MemoryBackend
from repro.storage.snapshot import SnapshotError, is_snapshot
from repro.storage.sqlite import ReadOnlyBackendError, SqliteBackend

__all__ = [
    "BACKENDS",
    "COLUMNS",
    "EncodedPattern",
    "EncodedTriple",
    "MemoryBackend",
    "ReadOnlyBackendError",
    "SnapshotError",
    "SqliteBackend",
    "StorageBackend",
    "create_backend",
    "is_snapshot",
]
