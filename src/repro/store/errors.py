"""Shared error types for the on-disk stores.

Both persistence subsystems — the corpus :class:`~repro.bench.store.ResultStore`
and the design :class:`~repro.store.journal.JournalStore` — version their
on-disk schema.  A store written by an older (or newer) code revision must
fail loudly and uniformly instead of surfacing as a ``KeyError`` deep inside
aggregation or hydration, so the version failure is one shared exception
type here, below both stores.
"""

from __future__ import annotations

__all__ = ["StoreError", "StoreVersionError"]


class StoreError(ValueError):
    """A store file or directory cannot be used (corrupt, wrong kind,
    unwritable)."""


class StoreVersionError(StoreError):
    """The on-disk schema version does not match this code revision.

    Raised when a store predates (or postdates) the running schema — e.g. a
    result store written before run-config pinning, or a design store from
    a different layout generation.  The remedy is always the same: rebuild
    the store with the current code (or read it with the revision that
    wrote it), never to guess at field meanings.
    """
