"""Read-only converter from the retired directory-layout design store.

Earlier revisions kept one JSON file per entry (``designs/<digest>.json``,
``results/<digest>.json``) under a ``store.json`` header without a
``"backend"`` field.  :func:`migrate_store` reads such a store, checks
every entry the way its reader did, and appends each valid entry document
unchanged, under its filename digest, to a journal store.  It never writes
to the old directory.  Claims and ``.meta`` sidecars are per-run or derived
data and are not copied.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

from repro.store.codec import payload_digest
from repro.store.errors import StoreError, StoreVersionError
from repro.store.journal import SCHEMA_VERSION, JournalStore

__all__ = ["migrate_store"]


def _read_legacy_entry(path: str, kind: str) -> Dict:
    """One legacy entry file; raises ValueError naming the damage."""
    try:
        with open(path, "r") as fh:
            entry = json.load(fh)
    except OSError as exc:
        raise ValueError(f"unreadable: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(entry, dict):
        raise ValueError("entry is not a JSON object")
    if entry.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"entry schema {entry.get('schema')!r} != {SCHEMA_VERSION}")
    if entry.get("kind") != kind:
        raise ValueError(f"entry kind {entry.get('kind')!r}, expected {kind!r}")
    if "payload" not in entry or "payload_digest" not in entry:
        raise ValueError("entry has no payload")
    if payload_digest(entry["payload"]) != entry["payload_digest"]:
        raise ValueError("payload digest mismatch (truncated or edited)")
    return entry


def migrate_store(
    old: str | os.PathLike, new: str | os.PathLike
) -> Tuple[List[str], List[Tuple[str, str]]]:
    """Append every valid entry of legacy store ``old`` to journal store
    ``new`` (created if absent).

    Returns ``(migrated, skipped)``: the relative filenames copied, in
    filename order, and ``(filename, reason)`` per corrupt entry left out.
    """
    old = os.fspath(old)
    header_path = os.path.join(old, "store.json")
    try:
        with open(header_path, "r") as fh:
            header = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise StoreError(f"cannot read design-store header {header_path!r}: {exc}") from exc
    if (
        not isinstance(header, dict)
        or header.get("kind") != "design-store"
        or header.get("backend", "dir") != "dir"
    ):
        raise StoreError(f"{old!r} is not a directory-layout design store")
    if header.get("schema") != SCHEMA_VERSION:
        raise StoreVersionError(
            f"design store {old!r} has schema {header.get('schema')!r}, "
            f"this revision migrates {SCHEMA_VERSION}"
        )
    store = JournalStore(new)
    migrated: List[str] = []
    skipped: List[Tuple[str, str]] = []
    for subdir, kind in (("designs", "design"), ("results", "result")):
        directory = os.path.join(old, subdir)
        names = os.listdir(directory) if os.path.isdir(directory) else []
        for name in sorted(n for n in names if n.endswith(".json")):
            rel = f"{subdir}/{name}"
            try:
                entry = _read_legacy_entry(os.path.join(directory, name), kind)
            except ValueError as exc:
                skipped.append((rel, str(exc)))
                continue
            key = name[: -len(".json")]
            store._write_locked({"op": kind, "key": key, "entry": entry})
            migrated.append(rel)
    return migrated, skipped
