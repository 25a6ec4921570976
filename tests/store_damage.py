"""Test helper: damage one record of a journal store on disk.

The first byte of the chosen record's entry payload is flipped and its
frame re-checksummed, so the framing stays valid and replay skips exactly
that record (it no longer decodes) — the ``corrupt_record`` fault,
applied after the fact to a store some earlier code wrote.
"""

import json
import os
import zlib

from repro.store.journal import _FRAME, _HEADER_SIZE


def damage_record(store_path, op, index=0):
    """Damage the ``index``-th ``op`` record (``"design"``/``"result"``/
    ``"bench"``) of the journal under ``store_path``; returns its key."""
    journal = os.path.join(os.fspath(store_path), "journal.log")
    with open(journal, "rb") as fh:
        data = bytearray(fh.read())
    pos, seen = _HEADER_SIZE, 0
    while pos + _FRAME.size <= len(data):
        length, _ = _FRAME.unpack_from(data, pos)
        start = pos + _FRAME.size
        try:
            record = json.loads(bytes(data[start : start + length]))
        except ValueError:  # damaged earlier
            record = {"op": None}
        if record["op"] == op:
            if seen == index:
                body = bytes(data[start : start + length])
                data[start + body.index(b'"payload": ') + 11] ^= 0xFF
                _FRAME.pack_into(
                    data, pos, length, zlib.crc32(data[start : start + length])
                )
                with open(journal, "wb") as fh:
                    fh.write(bytes(data))
                return record["key"]
            seen += 1
        pos = start + length
    raise LookupError(f"no {op} record #{index} in {journal}")
