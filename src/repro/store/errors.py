"""Error types of the on-disk store.

:class:`~repro.store.journal.JournalStore` versions its on-disk schema.  A
store written by an older (or newer) code revision must fail loudly instead
of surfacing as a ``KeyError`` deep inside aggregation or hydration, so the
version failure has its own exception type.  Both types live here, below
the journal, the codec and the migration shim that raise them.
"""

from __future__ import annotations

__all__ = ["StoreError", "StoreVersionError"]


class StoreError(ValueError):
    """A store file or directory cannot be used (corrupt, wrong kind,
    unwritable)."""


class StoreVersionError(StoreError):
    """The on-disk schema version does not match this code revision.

    Raised when a store predates (or postdates) the running schema or uses
    the retired directory layout.  The remedy is always the same: rebuild
    (or migrate) the store with the current code, or read it with the
    revision that wrote it, never guess at field meanings.
    """
