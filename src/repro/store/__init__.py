"""Persistent store (see :mod:`repro.store.journal`).

Turns one-time search output into durable, content-addressed artifacts:
design entries warm-start later searches (zero Designer runs in a fresh
process), result entries let the serving layer answer without searching,
and bench entries hold finished corpus records so ``bench --store``
resumes.

One implementation holds them all: :class:`~repro.store.journal.JournalStore`,
a crash-safe append-only log with checksummed records, multi-writer file
locking and snapshot compaction.  Stores in the retired one-file-per-entry
layout are refused on open; :func:`~repro.store.migrate.migrate_store`
(``python -m repro store migrate OLD NEW``) converts them.
"""

from __future__ import annotations

import os

from repro.store.codec import (
    decode_leaves,
    decode_value,
    encode_leaves,
    encode_value,
    key_digest,
    payload_digest,
)
from repro.store.errors import StoreError, StoreVersionError
from repro.store.journal import (
    SCHEMA_VERSION,
    EntryStatus,
    JournalStore,
    LockTimeoutError,
    StoreStats,
    bench_entry_doc,
    design_entry_doc,
    result_entry_doc,
    result_meta_doc,
)
from repro.store.migrate import migrate_store
from repro.store.records import (
    FEATURE_NAMES,
    feature_vector,
    make_result_record,
    search_result_record,
)

__all__ = [
    "JournalStore",
    "open_store",
    "migrate_store",
    "EntryStatus",
    "StoreStats",
    "StoreError",
    "StoreVersionError",
    "LockTimeoutError",
    "SCHEMA_VERSION",
    "FEATURE_NAMES",
    "feature_vector",
    "make_result_record",
    "search_result_record",
    "bench_entry_doc",
    "design_entry_doc",
    "result_entry_doc",
    "result_meta_doc",
    "encode_leaves",
    "decode_leaves",
    "encode_value",
    "decode_value",
    "key_digest",
    "payload_digest",
]


def open_store(
    path: str | os.PathLike,
    backend: str = "journal",
    create: bool = True,
    faults=None,
    **kwargs,
) -> JournalStore:
    """Open (or create) the design store at ``path``.

    ``backend`` names the on-disk format and only ``"journal"`` exists.
    Extra keyword arguments (``lock_policy``, ``auto_compact_bytes``) go
    to :class:`JournalStore`.
    """
    if backend != "journal":
        raise StoreError(f"unknown store backend {backend!r}; only 'journal'")
    return JournalStore(path, create=create, faults=faults, **kwargs)
