"""The store: a crash-safe append-only journal.

A one-time AlphaSparse search yields a reusable machine-designed
format+kernel per matrix, but every in-process cache dies with the
process.  The :class:`JournalStore` turns search output into durable,
content-addressed artifacts:

**Design entries** persist Designer output keyed on
``(matrix token, design signature, arch name)`` — exactly the in-memory
:class:`~repro.search.evaluation.DesignCache` key plus the architecture —
so a second search of the same matrix *in a different process* warm-starts
from stored designs and performs zero Designer runs.  Failed designs
(:class:`~repro.core.designer.DesignError`) are stored too; replaying the
failure is as load-bearing for byte-identical histories as replaying a
success.

**Result entries** persist one finished search per ``(matrix, arch)``:
the winning Operator Graph, its measured GFLOPS, the matrix's feature
signature (nearest-neighbour serving) and the exported artifact payload
(everything :func:`repro.export.export_program` writes, inline).

**Bench entries** persist one finished corpus record
(:class:`~repro.bench.runner.CorpusRunner`) per ``(run config, matrix
record key)``: the key covers the canonical run configuration, so records
of two configurations never mix, and ``bench --store`` resumes by reading
them back.

Layout::

    <root>/store.json      {"schema": 1, "kind": "design-store",
                            "backend": "journal"}
    <root>/journal.log     16-byte header + length-prefixed records
    <root>/journal.lock    writer mutual exclusion (flock)
    <root>/snapshot.json   compacted state (absent until first compaction)

A header without ``"backend": "journal"`` belongs to the retired
one-file-per-entry layout; opening it raises
:class:`~repro.store.errors.StoreVersionError`, and
``python -m repro store migrate OLD NEW`` (:mod:`repro.store.migrate`)
converts it.

Journal format — a 16-byte header (``b"REPROJNL"`` magic + big-endian
u64 *epoch*, bumped on every compaction) followed by records::

    [u32 payload length][u32 crc32(payload)][payload bytes]

where the payload is canonical JSON ``{"op": ..., "key": ..., "entry": ...}``
(ops: ``design`` — first-writer-wins, ``result`` — last-writer-wins,
``bench`` — first-writer-wins, ``claim`` — at-most-once search fence,
``drop`` — quarantine of a damaged entry).  Entry documents come from
:func:`design_entry_doc` / :func:`result_entry_doc` /
:func:`bench_entry_doc` and carry a digest of their payload.

Crash safety:

* **Torn tail** — a writer dying mid-append leaves a partial frame.  The
  length prefix + CRC make it detectable: readers simply never advance
  past it, and the next writer (which must hold the file lock, so no
  in-flight append can be mistaken for a crash) truncates the tail before
  appending.  A torn final record is dropped; it never poisons the log.
* **Multi-writer** — appends happen under an exclusive ``flock`` acquired
  with bounded retries and deterministic backoff
  (:class:`~repro.reliability.retry.RetryPolicy`); exhaustion raises
  :class:`LockTimeoutError` instead of blocking forever.
* **Compaction** — :meth:`JournalStore.compact` folds the current state
  into ``snapshot.json`` (atomic replace) and resets the journal to an
  empty log with a bumped epoch.  A crash between the two steps is safe:
  a snapshot *newer* than the journal epoch means the journal's records
  are already folded in and are ignored until recovery resets the file.
* **Read-through cache** — each handle keeps the replayed state in memory
  and revalidates it against ``(epoch, snapshot, journal size)`` before
  every read and every append: unchanged is a pure cache hit, a grown log
  replays only the new bytes, anything else reloads snapshot + journal.
  Every record is CRC- and digest-checked once per handle, so appends
  through a long-lived handle cost the same however long the log is.

Damage inside a CRC-valid frame (payload digest mismatch — e.g. the
``corrupt_record`` fault) is skipped at replay without losing framing;
frame-level damage loses the records behind it (``STORE-TAIL-LOST``),
which ``verify`` reports and ``compact``/``gc`` reclaim.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.designer import DesignLeaf
from repro.reliability.faults import FaultInjector, FaultPlan, InjectedCrash
from repro.reliability.retry import RetryError, RetryPolicy, call_with_retry
from repro.store.codec import decode_leaves, encode_leaves, key_digest, payload_digest
from repro.store.errors import StoreError, StoreVersionError

try:  # posix writer locking; the fallback below covers exotic platforms
    import fcntl
except ImportError:  # pragma: no cover - non-posix
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "JournalStore",
    "EntryStatus",
    "StoreStats",
    "LockContended",
    "LockTimeoutError",
    "SCHEMA_VERSION",
    "bench_entry_doc",
    "default_lock_policy",
    "design_entry_doc",
    "result_entry_doc",
    "result_meta_doc",
]

SCHEMA_VERSION = 1

_MAGIC = b"REPROJNL"
_HEADER_SIZE = 16  # magic + u64 epoch
_FRAME = struct.Struct(">II")  # payload length, crc32
_MAX_RECORD = 1 << 30

_JOURNAL = "journal.log"
_LOCKFILE = "journal.lock"
_SNAPSHOT = "snapshot.json"
_STOREHEADER = "store.json"


def _matrix_fields(token: Tuple) -> Dict[str, object]:
    name, n_rows, n_cols, nnz, digest = token
    return {
        "name": name,
        "n_rows": int(n_rows),
        "n_cols": int(n_cols),
        "nnz": int(nnz),
        "digest": digest,
    }


def design_entry_doc(
    token: Tuple, signature: Tuple, arch: str, payload: Dict[str, object]
) -> Dict[str, object]:
    """The canonical design entry document (the ``entry`` of a ``design``
    record; byte-identical to a legacy ``designs/<digest>.json`` file)."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "design",
        "arch": arch,
        "matrix": _matrix_fields(token),
        "signature": repr(signature),
        "payload_digest": payload_digest(payload),
        "payload": payload,
    }


def result_entry_doc(token: Tuple, arch: str, record: Dict) -> Dict[str, object]:
    """The canonical result entry document (see :func:`design_entry_doc`)."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "result",
        "arch": arch,
        "matrix": _matrix_fields(token),
        "payload_digest": payload_digest(record),
        "payload": record,
    }


def bench_entry_doc(config: Dict, record_key: str, record: Dict) -> Dict[str, object]:
    """The canonical bench entry document: one finished corpus record
    under the run configuration that produced it."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "bench",
        "arch": config.get("gpu"),
        "matrix": {"name": record.get("name"), "key": record_key},
        "config": config,
        "payload_digest": payload_digest(record),
        "payload": record,
    }


def result_meta_doc(arch: Optional[str], record: Dict) -> Dict:
    """Lightweight nearest-neighbour metadata derived from one record."""
    meta = {
        "schema": SCHEMA_VERSION,
        "arch": arch,
        "name": record.get("name"),
        "matrix_digest": record.get("matrix_digest"),
        "features": record.get("features"),
        "best_gflops": record.get("best_gflops"),
        "via": record.get("via", "search"),
        "has_graph": record.get("graph") is not None,
    }
    if "workload" in record:
        # Absent == spmv, matching the record convention.
        meta["workload"] = record["workload"]
    return meta


@dataclass(frozen=True)
class StoreStats:
    """Counters of one store handle (hit/miss/write per entry kind, plus
    corrupt entries encountered), ``since``-comparable like the in-memory
    cache stats."""

    design_hits: int = 0
    design_misses: int = 0
    design_writes: int = 0
    result_hits: int = 0
    result_misses: int = 0
    result_writes: int = 0
    corrupt: int = 0
    quarantined: int = 0

    def since(self, other: "StoreStats") -> "StoreStats":
        return StoreStats(
            design_hits=self.design_hits - other.design_hits,
            design_misses=self.design_misses - other.design_misses,
            design_writes=self.design_writes - other.design_writes,
            result_hits=self.result_hits - other.result_hits,
            result_misses=self.result_misses - other.result_misses,
            result_writes=self.result_writes - other.result_writes,
            corrupt=self.corrupt - other.corrupt,
            quarantined=self.quarantined - other.quarantined,
        )


@dataclass(frozen=True)
class EntryStatus:
    """One entry's integrity verdict (``verify`` / ``ls``)."""

    kind: str  # "design" | "result" | "bench" | "journal"
    filename: str
    ok: bool
    matrix: str
    arch: str
    detail: str
    bytes: int


class LockContended(OSError):
    """One journal-lock acquisition attempt failed (retried internally)."""


class LockTimeoutError(StoreError):
    """The journal writer lock stayed contended past the retry budget."""


def default_lock_policy() -> RetryPolicy:
    """Bounded lock acquisition: ~50 tries over roughly two seconds."""
    return RetryPolicy(
        attempts=50,
        base_delay_s=0.002,
        multiplier=1.4,
        max_delay_s=0.06,
        jitter=0.25,
        retry_on=(LockContended,),
    )


@dataclass
class _State:
    """Replayed journal state plus the cache-validity token."""

    epoch: int = 0
    offset: int = _HEADER_SIZE
    designs: Dict[str, Dict] = field(default_factory=dict)
    results: Dict[str, Dict] = field(default_factory=dict)
    bench: Dict[str, Dict] = field(default_factory=dict)
    claims: Set[str] = field(default_factory=set)
    #: payload-invalid records skipped during replay (reason strings)
    invalid: List[str] = field(default_factory=list)
    #: framing damage found mid-log: (offset, reason) — records behind it
    #: are unreachable until compaction
    tail_lost: Optional[Tuple[int, str]] = None
    #: ``snapshot.json`` identity when loaded (part of the cache token)
    snapshot: Optional[Tuple[int, int, int]] = None
    #: epoch of a snapshot that already folds in this journal (a
    #: compaction crashed before the reset); the next writer resets
    folded_epoch: Optional[int] = None


def _stat_key(path: str) -> Optional[Tuple[int, int, int]]:
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return (st.st_ino, st.st_size, st.st_mtime_ns)


class JournalStore:
    """On-disk content-addressed store of designs, search results and
    corpus records."""

    def __init__(
        self,
        path: str | os.PathLike,
        create: bool = True,
        faults: Optional[FaultPlan | FaultInjector] = None,
        lock_policy: Optional[RetryPolicy] = None,
        auto_compact_bytes: Optional[int] = 64 << 20,
    ) -> None:
        self.path = os.fspath(path)
        self.faults = (
            faults.injector() if isinstance(faults, FaultPlan) else faults
        )
        self.lock_policy = lock_policy or default_lock_policy()
        #: journal size that triggers snapshot compaction after an append
        #: (None disables; the CLI ``store compact`` always works)
        self.auto_compact_bytes = auto_compact_bytes
        self._mutex = threading.RLock()
        self._stats = StoreStats()
        self._state = _State()
        self._loaded = False
        self._append_serial = 0
        #: numbers this handle's lock attempts for fault injection, so a
        #: fault plan fires on the same attempts whatever other handles do
        self._lock_serials = itertools.count(1)
        self.quarantine_log: List[Tuple[str, str]] = []

        if os.path.isfile(self.path):
            raise StoreError(
                f"{self.path!r} is a file; a design store is a directory"
            )
        header_path = os.path.join(self.path, _STOREHEADER)
        if os.path.exists(header_path):
            try:
                with open(header_path, "r") as fh:
                    header = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise StoreError(
                    f"cannot read design-store header {header_path!r}: {exc}"
                ) from exc
            if not isinstance(header, dict) or header.get("kind") != "design-store":
                raise StoreError(
                    f"{self.path!r} is not a design store (bad header)"
                )
            if header.get("schema") != SCHEMA_VERSION:
                raise StoreVersionError(
                    f"design store {self.path!r} has schema "
                    f"{header.get('schema')!r}, this revision reads "
                    f"{SCHEMA_VERSION}; rebuild the store (or read it with "
                    "the revision that wrote it)"
                )
            if header.get("backend") != "journal":
                raise StoreVersionError(
                    f"design store {self.path!r} has the retired "
                    "directory layout; convert it with "
                    f"`python -m repro store migrate {self.path} NEW`"
                )
        elif not create:
            raise StoreError(f"no design store at {self.path!r}")
        try:
            if not os.path.exists(header_path):
                os.makedirs(self.path, exist_ok=True)
                tmp = os.path.join(self.path, f".{_STOREHEADER}.tmp")
                with open(tmp, "w") as fh:
                    json.dump(
                        {
                            "schema": SCHEMA_VERSION,
                            "kind": "design-store",
                            "backend": "journal",
                        },
                        fh,
                        sort_keys=True,
                    )
                    fh.write("\n")
                os.replace(tmp, header_path)
            if not os.path.exists(self._journal_path):
                # a header without a journal is an interrupted creation:
                # recreate the empty log rather than failing every read
                with open(self._journal_path, "xb") as fh:
                    fh.write(_MAGIC + struct.pack(">Q", 0))
        except OSError as exc:
            raise StoreError(
                f"cannot create store {self.path!r}: {exc.strerror or exc}"
            ) from exc
        # Open-time recovery: if we can take the writer lock without
        # waiting, drop any torn tail now; if a live writer holds it, that
        # writer performs the same recovery before its next append.
        try:
            with self._file_lock(blocking_attempts=1):
                self._recover_locked()
        except (LockTimeoutError, OSError):
            pass

    # ------------------------------------------------------------------
    # Paths / locking
    # ------------------------------------------------------------------
    @property
    def _journal_path(self) -> str:
        return os.path.join(self.path, _JOURNAL)

    @property
    def _snapshot_path(self) -> str:
        return os.path.join(self.path, _SNAPSHOT)

    def _file_lock(self, blocking_attempts: Optional[int] = None):
        """Exclusive cross-process writer lock (bounded-retry flock)."""
        return _JournalLock(
            os.path.join(self.path, _LOCKFILE),
            policy=(
                self.lock_policy
                if blocking_attempts is None
                else replace(self.lock_policy, attempts=blocking_attempts)
            ),
            faults=self.faults,
            serials=self._lock_serials,
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def stats(self) -> StoreStats:
        with self._mutex:
            return replace(self._stats)

    def _bump(self, **deltas: int) -> None:
        with self._mutex:
            self._stats = replace(
                self._stats,
                **{k: getattr(self._stats, k) + v for k, v in deltas.items()},
            )

    def __len__(self) -> int:
        with self._mutex:
            self._refresh()
            state = self._state
            return len(state.designs) + len(state.results) + len(state.bench)

    # ------------------------------------------------------------------
    # Journal reading (the read-through cache tier)
    # ------------------------------------------------------------------
    def _read_header(self) -> int:
        try:
            with open(self._journal_path, "rb") as fh:
                head = fh.read(_HEADER_SIZE)
        except OSError as exc:
            raise StoreError(
                f"cannot read journal {self._journal_path!r}: {exc}"
            ) from exc
        if len(head) < _HEADER_SIZE or head[: len(_MAGIC)] != _MAGIC:
            raise StoreError(
                f"journal {self._journal_path!r} has no valid header"
            )
        return struct.unpack(">Q", head[len(_MAGIC) :])[0]

    def _refresh(self, strict: bool = False) -> None:
        """Revalidate the in-memory state against the files on disk.

        Same epoch, snapshot and size: cache hit, nothing read.  Same
        epoch and snapshot, grown file: replay only the new bytes.
        Anything else (a compaction, a shrink): full reload.  A read
        error serves the cache unless ``strict`` (the writer path).
        """
        if self.faults is not None:
            self.faults.maybe_slow("journal-refresh")
        try:
            size = os.path.getsize(self._journal_path)
            epoch = self._read_header()
            snapshot = _stat_key(self._snapshot_path)
        except (OSError, StoreError):
            if self._loaded and not strict:
                return
            raise
        state = self._state
        if (
            self._loaded
            and (epoch, snapshot) == (state.epoch, state.snapshot)
            and size >= state.offset
        ):
            if size > state.offset:
                self._replay(state, start=state.offset)
            return
        self._state = self._load_state()
        self._loaded = True

    def _load_state(self) -> _State:
        """Full reload: snapshot (if any) + journal replay."""
        state = _State(snapshot=_stat_key(self._snapshot_path))
        snapshot = self._read_snapshot()
        journal_epoch = self._read_header()
        if snapshot is not None:
            state.designs = dict(snapshot.get("designs", {}))
            state.results = dict(snapshot.get("results", {}))
            state.bench = dict(snapshot.get("bench", {}))
            state.claims = set(snapshot.get("claims", []))
            state.epoch = int(snapshot.get("epoch", 0))
            if state.epoch > journal_epoch:
                # compaction crashed after the snapshot, before the journal
                # reset: every journal record is already folded in.  Keep
                # the *journal's* epoch as the cache token so refresh stays
                # consistent until a writer finishes the reset.
                state.folded_epoch = state.epoch
                state.epoch = journal_epoch
                state.offset = os.path.getsize(self._journal_path)
                return state
        state.epoch = journal_epoch
        state.offset = _HEADER_SIZE
        self._replay(state, start=_HEADER_SIZE)
        return state

    def _read_snapshot(self) -> Optional[Dict]:
        if not os.path.exists(self._snapshot_path):
            return None
        try:
            with open(self._snapshot_path, "r") as fh:
                snapshot = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(snapshot, dict) or snapshot.get("schema") != SCHEMA_VERSION:
            return None
        return snapshot

    def _replay(self, state: _State, start: int) -> None:
        """Apply journal records from ``start``; never advances past an
        incomplete or frame-corrupt record."""
        with open(self._journal_path, "rb") as fh:
            fh.seek(start)
            data = fh.read()
        pos = 0
        while True:
            if pos + _FRAME.size > len(data):
                break  # incomplete frame header: torn tail or in-flight
            length, crc = _FRAME.unpack_from(data, pos)
            if length > _MAX_RECORD:
                state.tail_lost = (start + pos, f"absurd record length {length}")
                self._bump(corrupt=1)
                break
            body = data[pos + _FRAME.size : pos + _FRAME.size + length]
            if len(body) < length:
                break  # incomplete payload: torn tail or in-flight
            if zlib.crc32(body) != crc:
                state.tail_lost = (start + pos, "record checksum mismatch")
                self._bump(corrupt=1)
                break
            self._apply(state, body)
            pos += _FRAME.size + length
        state.offset = start + pos

    def _apply(self, state: _State, body: bytes) -> None:
        """Apply one CRC-valid record; payload damage skips the record."""
        try:
            record = json.loads(body.decode("utf-8"))
            op = record["op"]
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            state.invalid.append(f"undecodable record: {exc}")
            self._bump(corrupt=1)
            return
        if op == "claim":
            key = record.get("key")
            if isinstance(key, str):
                state.claims.add(key)
            return
        kinds = {"design": state.designs, "result": state.results, "bench": state.bench}
        if op == "drop":
            kinds.get(record.get("kind"), state.results).pop(record.get("key"), None)
            return
        if op not in kinds:
            state.invalid.append(f"unknown op {op!r}")
            self._bump(corrupt=1)
            return
        key, entry = record.get("key"), record.get("entry")
        ok = (
            isinstance(key, str)
            and isinstance(entry, dict)
            and entry.get("schema") == SCHEMA_VERSION
            and entry.get("kind") == op
            and "payload" in entry
            and payload_digest(entry["payload"]) == entry.get("payload_digest")
        )
        if not ok:
            state.invalid.append(f"{op} record {key!r}: payload digest mismatch")
            self._bump(corrupt=1)
            return
        if op == "result":
            state.results[key] = entry
        else:
            # first-writer-wins: design output and corpus records are
            # deterministic functions of their key (a record's one
            # wall-clock field aside), so a later writer adds nothing
            kinds[op].setdefault(key, entry)

    # ------------------------------------------------------------------
    # Journal writing
    # ------------------------------------------------------------------
    def _recover_locked(self) -> None:
        """Writer-side recovery; caller holds the file lock.

        Catches up with the log (verifying only bytes this handle has not
        seen), then truncates anything past the last complete record — a
        torn final record from a crashed writer is dropped here, never
        replayed.  Also finishes a crashed compaction (snapshot newer than
        the journal) by resetting the log.
        """
        self._refresh(strict=True)
        state = self._state
        if state.folded_epoch is not None:
            self._reset_journal(state.folded_epoch)
            state.epoch, state.offset = state.folded_epoch, _HEADER_SIZE
            state.folded_epoch = None
        elif os.path.getsize(self._journal_path) > state.offset:
            with open(self._journal_path, "r+b") as fh:
                fh.truncate(state.offset)
                fh.flush()
                os.fsync(fh.fileno())

    def _reset_journal(self, epoch: int) -> None:
        with open(self._journal_path, "r+b") as fh:
            fh.seek(0)
            fh.write(_MAGIC + struct.pack(">Q", epoch))
            fh.truncate(_HEADER_SIZE)
            fh.flush()
            os.fsync(fh.fileno())

    def _append(self, record: Dict) -> None:
        """Append one record; caller holds mutex + file lock and has run
        recovery, so ``self._state.offset`` is the true end of file."""
        self._append_serial += 1
        serial = self._append_serial
        if self.faults is not None:
            self.faults.maybe_slow("journal-append", serial)
            self.faults.maybe_io_error("journal-append", serial)
        body = json.dumps(record, sort_keys=True).encode("utf-8")
        if self.faults is not None and self.faults.decide(
            "corrupt_record", serial
        ):
            # flip a payload byte and checksum the damage: the frame stays
            # valid, replay-time digest validation must reject the payload
            corrupted = bytearray(body)
            corrupted[len(corrupted) // 2] ^= 0xFF
            body = bytes(corrupted)
        wire = _FRAME.pack(len(body), zlib.crc32(body)) + body
        torn_at = None
        if self.faults is not None and self.faults.decide("torn_write", serial):
            # deterministic cut strictly inside the frame
            from repro.reliability.retry import _unit_hash

            u = _unit_hash(self.faults.plan.seed, "torn-cut", serial)
            torn_at = 1 + int(u * (len(wire) - 1))
        with open(self._journal_path, "r+b") as fh:
            fh.seek(self._state.offset)
            fh.write(wire if torn_at is None else wire[:torn_at])
            fh.flush()
            os.fsync(fh.fileno())
        if torn_at is not None:
            raise InjectedCrash(
                f"torn journal write at append #{serial} "
                f"({torn_at}/{len(wire)} bytes)"
            )
        # apply what actually hit the disk (a corrupt-injected record must
        # not land in our cache either)
        self._apply(self._state, body)
        self._state.offset += len(wire)

    def _write_locked(self, record: Dict) -> None:
        with self._mutex:
            with self._file_lock():
                self._recover_locked()
                self._append(record)
                if (
                    self.auto_compact_bytes is not None
                    and self._state.offset > self.auto_compact_bytes
                ):
                    self._compact_locked()

    # ------------------------------------------------------------------
    # Design entries
    # ------------------------------------------------------------------
    def design_digest(self, token: Tuple, signature: Tuple, arch: str) -> str:
        return key_digest("design", token, signature, arch)

    def get_design(
        self, token: Tuple, signature: Tuple, arch: str
    ) -> Optional[Tuple[str, object]]:
        """Stored design-phase outcome, or None on miss/corruption.

        Returns ``("ok", leaves)`` for a stored success and
        ``("error", message)`` for a stored :class:`DesignError` — the
        caller replays the failure exactly like the in-memory cache does.
        """
        digest = self.design_digest(token, signature, arch)
        with self._mutex:
            self._refresh()
            entry = self._state.designs.get(digest)
        if entry is None:
            self._bump(design_misses=1)
            return None
        try:
            if entry.get("matrix", {}).get("digest") != token[-1]:
                raise ValueError("matrix digest does not match key")
            payload = entry["payload"]
            if payload.get("status") == "error":
                outcome: Tuple[str, object] = ("error", str(payload["message"]))
            else:
                outcome = ("ok", decode_leaves(payload["leaves"]))
        except (KeyError, TypeError, ValueError) as exc:
            self._quarantine_entry("design", digest, str(exc))
            self._bump(design_misses=1, corrupt=1)
            return None
        self._bump(design_hits=1)
        return outcome

    def put_design(
        self,
        token: Tuple,
        signature: Tuple,
        arch: str,
        leaves: Optional[Sequence[DesignLeaf]] = None,
        error: Optional[str] = None,
    ) -> None:
        """Persist one design-phase outcome; first writer wins."""
        if (leaves is None) == (error is None):
            raise StoreError("put_design takes exactly one of leaves/error")
        digest = self.design_digest(token, signature, arch)
        if error is not None:
            payload: Dict[str, object] = {"status": "error", "message": error}
        else:
            payload = {"status": "ok", "leaves": encode_leaves(leaves)}
        entry = design_entry_doc(token, signature, arch, payload)
        with self._mutex:
            self._refresh()
            if digest in self._state.designs:
                return
            self._write_locked({"op": "design", "key": digest, "entry": entry})
        self._bump(design_writes=1)

    def _quarantine_entry(self, kind: str, digest: str, reason: str) -> None:
        """Journal-style quarantine: a ``drop`` record clears the damaged
        key (so a write-back heals) and the damage is logged."""
        try:
            self._write_locked({"op": "drop", "kind": kind, "key": digest})
        except (StoreError, OSError):
            return
        with self._mutex:
            self.quarantine_log.append((f"{kind}/{digest}", reason))
            self._stats = replace(
                self._stats, quarantined=self._stats.quarantined + 1
            )

    # ------------------------------------------------------------------
    # Result entries
    # ------------------------------------------------------------------
    def result_digest(self, token: Tuple, arch: str) -> str:
        return key_digest("result", token, arch)

    def get_result(self, token: Tuple, arch: str) -> Optional[Dict]:
        digest = self.result_digest(token, arch)
        with self._mutex:
            self._refresh()
            entry = self._state.results.get(digest)
        if entry is None:
            self._bump(result_misses=1)
            return None
        if entry.get("matrix", {}).get("digest") != token[-1]:
            self._quarantine_entry(
                "result", digest, "matrix digest does not match key"
            )
            self._bump(result_misses=1, corrupt=1)
            return None
        self._bump(result_hits=1)
        return entry["payload"]

    def put_result(self, token: Tuple, arch: str, record: Dict) -> None:
        """Persist (or overwrite) the finished result for a matrix."""
        digest = self.result_digest(token, arch)
        entry = result_entry_doc(token, arch, record)
        with self._mutex:
            self._write_locked({"op": "result", "key": digest, "entry": entry})
        self._bump(result_writes=1)

    def result_metas(self, arch: Optional[str] = None) -> List[Tuple[str, Dict]]:
        """``(digest, meta)`` per stored result, digest-ordered — the
        cheap scan the serving frontend ranks neighbours on."""
        with self._mutex:
            self._refresh()
            items = sorted(self._state.results.items())
        out = []
        for digest, entry in items:
            meta = result_meta_doc(entry.get("arch"), entry.get("payload", {}))
            if arch is not None and meta.get("arch") != arch:
                continue
            out.append((digest, meta))
        return out

    def result_payload(self, digest: str) -> Optional[Dict]:
        with self._mutex:
            self._refresh()
            entry = self._state.results.get(digest)
        return None if entry is None else entry.get("payload")

    def results(self, arch: Optional[str] = None) -> List[Dict]:
        with self._mutex:
            self._refresh()
            items = sorted(self._state.results.items())
        return [
            entry["payload"]
            for _, entry in items
            if arch is None or entry.get("arch") == arch
        ]

    def design_payloads(self) -> List[Tuple[str, str, Dict]]:
        with self._mutex:
            self._refresh()
            items = sorted(self._state.designs.items())
        return [
            (f"{digest}.json", str(entry.get("signature", "")), entry["payload"])
            for digest, entry in items
        ]

    # ------------------------------------------------------------------
    # Bench entries (corpus records)
    # ------------------------------------------------------------------
    @staticmethod
    def bench_digest(config: Dict, record_key: str) -> str:
        # payload_digest canonicalises the config (sorted keys), so equal
        # configs give equal keys however their dicts were built
        return key_digest("bench", payload_digest(config), record_key)

    def get_bench(self, config: Dict, record_key: str) -> Optional[Dict]:
        """The corpus record stored for ``record_key`` under ``config``,
        or None (never measured under this config, or damaged)."""
        with self._mutex:
            self._refresh()
            entry = self._state.bench.get(self.bench_digest(config, record_key))
        return None if entry is None else entry["payload"]

    def put_bench(self, config: Dict, record_key: str, record: Dict) -> None:
        """Persist one finished corpus record; first writer wins."""
        digest = self.bench_digest(config, record_key)
        entry = bench_entry_doc(config, record_key, record)
        with self._mutex:
            self._refresh()
            if digest in self._state.bench:
                return
            self._write_locked({"op": "bench", "key": digest, "entry": entry})

    # ------------------------------------------------------------------
    # Claims (at-most-once search execution)
    # ------------------------------------------------------------------
    def claim_search(self, key: str) -> bool:
        """Atomically claim one search execution; True iff we won it.

        The check and the claim append happen under one hold of the writer
        lock, so two workers racing on the same key serialise: exactly one
        sees True.  Claims are journal records — they survive the
        claimant's death, which is the whole point."""
        with self._mutex:
            with self._file_lock():
                self._recover_locked()
                if key in self._state.claims:
                    return False
                self._append({"op": "claim", "key": key})
        return True

    def claims(self) -> List[str]:
        with self._mutex:
            self._refresh()
            return sorted(self._state.claims)

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self) -> Dict[str, int]:
        """Fold the journal into ``snapshot.json`` and reset the log.

        Returns counters (kept entries, journal bytes reclaimed).  Safe
        against crashes at any point: the snapshot is written atomically
        *before* the journal reset, and recovery finishes an interrupted
        reset on the next locked operation.
        """
        with self._mutex:
            with self._file_lock():
                self._recover_locked()
                return self._compact_locked()

    def _compact_locked(self) -> Dict[str, int]:
        state = self._state
        reclaimed = state.offset - _HEADER_SIZE
        new_epoch = state.epoch + 1
        snapshot = {
            "schema": SCHEMA_VERSION,
            "kind": "design-store-snapshot",
            "epoch": new_epoch,
            "designs": state.designs,
            "results": state.results,
            "bench": state.bench,
            "claims": sorted(state.claims),
        }
        tmp = self._snapshot_path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(snapshot, fh, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._snapshot_path)
        state.snapshot = _stat_key(self._snapshot_path)
        self._reset_journal(new_epoch)
        state.epoch = new_epoch
        state.offset = _HEADER_SIZE
        state.invalid = []
        state.tail_lost = None
        return {
            "designs": len(state.designs),
            "results": len(state.results),
            "bench": len(state.bench),
            "claims": len(state.claims),
            "reclaimed_bytes": max(0, reclaimed),
            "epoch": new_epoch,
        }

    # ------------------------------------------------------------------
    # Maintenance (ls / verify / gc)
    # ------------------------------------------------------------------
    def entries(self) -> List[EntryStatus]:
        with self._mutex:
            self._refresh()
            state = self._state
            designs = sorted(state.designs.items())
            results = sorted(state.results.items())
            bench = sorted(state.bench.items())
            invalid = list(state.invalid)
            tail_lost = state.tail_lost
        out: List[EntryStatus] = []
        for digest, entry in designs:
            payload = entry.get("payload", {})
            if payload.get("status") == "error":
                detail = "design error (cached failure)"
            else:
                detail = f"{len(payload.get('leaves', []))} leaf(s)"
            out.append(self._status("design", digest, entry, detail))
        for digest, entry in results:
            payload = entry.get("payload", {})
            gflops = payload.get("best_gflops")
            via = payload.get("via", "search")
            detail = (
                f"{gflops:.1f} GFLOPS via {via}"
                if isinstance(gflops, (int, float))
                else via
            )
            out.append(self._status("result", digest, entry, detail))
        for digest, entry in bench:
            gflops = entry.get("payload", {}).get("search", {}).get("best_gflops")
            detail = (
                f"corpus record, best {gflops:.1f} GFLOPS"
                if isinstance(gflops, (int, float))
                else "corpus record"
            )
            out.append(self._status("bench", digest, entry, detail))
        for reason in invalid:
            out.append(
                EntryStatus("journal", _JOURNAL, False, "?", "?", reason, 0)
            )
        if tail_lost is not None:
            offset, reason = tail_lost
            out.append(
                EntryStatus(
                    "journal",
                    _JOURNAL,
                    False,
                    "?",
                    "?",
                    f"records lost after offset {offset}: {reason} "
                    "(compact to reclaim)",
                    0,
                )
            )
        return out

    @staticmethod
    def _status(
        kind: str, digest: str, entry: Dict, detail: str
    ) -> EntryStatus:
        matrix = entry.get("matrix", {})
        return EntryStatus(
            kind,
            f"{digest}.json",
            True,
            str(matrix.get("name") or "<unnamed>"),
            str(entry.get("arch")),
            detail,
            len(json.dumps(entry, sort_keys=True)),
        )

    def verify(self, repair: bool = False) -> List[EntryStatus]:
        """Deep check: :meth:`entries` plus design hydration.  With
        ``repair=True``, failing entries are dropped (journal quarantine)
        and framing damage is reclaimed by an immediate compaction."""
        out = []
        needs_compact = False
        for status in self.entries():
            if status.ok and status.kind == "design":
                digest = status.filename[: -len(".json")]
                with self._mutex:
                    entry = self._state.designs.get(digest)
                try:
                    if entry is not None and entry["payload"].get("status") != "error":
                        decode_leaves(entry["payload"]["leaves"])
                except (KeyError, TypeError, ValueError) as exc:
                    status = replace(
                        status, ok=False, detail=f"payload will not hydrate: {exc}"
                    )
                    if repair:
                        self._quarantine_entry("design", digest, status.detail)
            if not status.ok and status.kind == "journal":
                needs_compact = True
            out.append(status)
        if repair and needs_compact:
            self.compact()
        return out

    def gc(self) -> Tuple[List[str], List[str]]:
        """Prune invalid records and unreferenced designs, then compact.

        A design is *referenced* when a valid result exists for its
        ``(matrix digest, arch)`` — some search of that matrix finished;
        unreferenced designs are partial-search residue the next search
        regenerates.  Bench entries are kept.  Claims are between-runs
        residue and are cleared.
        """
        with self._mutex:
            with self._file_lock():
                self._recover_locked()
                state = self._state
                removed_corrupt = [
                    f"{_JOURNAL}: {reason}" for reason in state.invalid
                ]
                if state.tail_lost is not None:
                    offset, reason = state.tail_lost
                    removed_corrupt.append(
                        f"{_JOURNAL}: records after offset {offset} ({reason})"
                    )
                referenced = {
                    (
                        entry.get("matrix", {}).get("digest"),
                        entry.get("arch"),
                    )
                    for entry in state.results.values()
                }
                removed_unreferenced = []
                for digest in sorted(state.designs):
                    entry = state.designs[digest]
                    key = (
                        entry.get("matrix", {}).get("digest"),
                        entry.get("arch"),
                    )
                    if key not in referenced:
                        del state.designs[digest]
                        removed_unreferenced.append(f"designs/{digest}.json")
                state.claims.clear()
                self._compact_locked()
        return removed_corrupt, removed_unreferenced


class _JournalLock:
    """Exclusive flock with bounded, fault-injectable acquisition.

    ``serials`` numbers every acquisition attempt (retries included) for
    the fault injector; the owning store handle supplies its own counter.
    """

    def __init__(
        self,
        path: str,
        policy: RetryPolicy,
        faults: Optional[FaultInjector],
        serials: Iterator[int],
    ) -> None:
        self.path = path
        self.policy = policy
        self.faults = faults
        self.serials = serials
        self._fd: Optional[int] = None

    def _try_acquire(self) -> None:
        serial = next(self.serials)
        if self.faults is not None and self.faults.decide(
            "lock_timeout", serial
        ):
            raise LockContended("injected lock contention")
        fd = os.open(self.path, os.O_CREAT | os.O_RDWR)
        try:
            if fcntl is not None:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # without fcntl (non-posix) the O_CREAT open itself is the
            # best-effort mutual exclusion; in-process the store mutex
            # already serialises writers
        except OSError as exc:
            os.close(fd)
            raise LockContended(f"journal lock busy: {exc}") from exc
        self._fd = fd

    def __enter__(self) -> "_JournalLock":
        try:
            call_with_retry(
                self._try_acquire, self.policy, describe="journal lock"
            )
        except RetryError as exc:
            raise LockTimeoutError(
                f"could not acquire journal lock {self.path!r}: {exc}"
            ) from exc
        return self

    def __exit__(self, *exc_info) -> None:
        if self._fd is not None:
            try:
                if fcntl is not None:
                    fcntl.flock(self._fd, fcntl.LOCK_UN)
            finally:
                os.close(self._fd)
                self._fd = None
