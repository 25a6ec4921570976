"""Journal store: crash consistency, faults, incremental appends.

The load-bearing suite is :class:`TestCrashConsistency`: a writer killed
mid-append must never cost more than the record it was writing.  We
simulate the kill at *every* byte offset of a populated journal —
truncate, reopen, and assert the survivor recovers to exactly the state
of the last complete record, with the torn tail physically truncated.

:class:`TestWritePath` pins the cost side: a long-lived handle verifies
each record once, so an append costs the same however long the log is.
The property test then checks that reads through a fresh handle match a
plain in-memory model of the same write sequence.
"""

import fcntl
import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.designer import DesignLeaf
from repro.core.metadata import MatrixMetadataSet
from repro.reliability.faults import FaultPlan, InjectedCrash
from repro.reliability.retry import RetryPolicy
from repro.search.evaluation import matrix_token
from repro.sparse import banded_matrix
from repro.store import (
    JournalStore,
    StoreError,
    StoreVersionError,
    design_entry_doc,
    encode_leaves,
    open_store,
    result_entry_doc,
    result_meta_doc,
)
from repro.store.journal import (
    _FRAME,
    _HEADER_SIZE,
    LockContended,
    LockTimeoutError,
)

ARCH = "A100"
SIG = (("COMPRESS", ()),)

_MATS = [
    banded_matrix(8 + 4 * i, bandwidth=1, seed=i, name=f"m{i}") for i in range(3)
]
_TOKENS = [matrix_token(m) for m in _MATS]
_LEAVES = [
    [DesignLeaf(meta=MatrixMetadataSet.from_matrix(m), branch_path=())]
    for m in _MATS
]


def _result(gflops):
    return {"best_gflops": float(gflops), "via": "search"}


def _frames(data):
    """Absolute (start, end) offsets of every complete frame in ``data``."""
    pos, out = _HEADER_SIZE, []
    while pos + _FRAME.size <= len(data):
        length, _ = _FRAME.unpack_from(data, pos)
        end = pos + _FRAME.size + length
        if end > len(data):
            break
        out.append((pos, end))
        pos = end
    return out


def _fast_lock_policy():
    return RetryPolicy(
        attempts=2, base_delay_s=0.001, max_delay_s=0.002,
        retry_on=(LockContended,),
    )


# ----------------------------------------------------------------------
# Opening
# ----------------------------------------------------------------------
class TestOpenStore:
    def test_open_store_opens_the_journal(self, tmp_path):
        created = open_store(tmp_path / "s")
        assert isinstance(created, JournalStore)
        created.put_result(_TOKENS[0], ARCH, _result(1.0))
        reopened = open_store(tmp_path / "s", backend="journal", create=False)
        assert reopened.get_result(_TOKENS[0], ARCH)["best_gflops"] == 1.0

    def test_uncreatable_path_is_a_store_error(self, tmp_path):
        (tmp_path / "file").write_text("{}")
        with pytest.raises(StoreError, match="cannot create store"):
            open_store(tmp_path / "file" / "s")

    def test_unknown_backend_rejected(self, tmp_path):
        for backend in ("sqlite", "dir", "auto"):
            with pytest.raises(StoreError, match="unknown store backend"):
                open_store(tmp_path / "s", backend=backend)

    def test_wrong_class_for_backend_rejected(self, tmp_path):
        """A store in the retired directory layout is refused with the
        command that converts it."""
        legacy = tmp_path / "legacy"
        legacy.mkdir()
        (legacy / "store.json").write_text(
            '{"kind": "design-store", "schema": 1}\n'
        )
        for opener in (JournalStore, open_store):
            with pytest.raises(StoreVersionError, match="store migrate"):
                opener(legacy)
        assert sorted(p.name for p in legacy.iterdir()) == ["store.json"]


# ----------------------------------------------------------------------
# Round trips and multi-handle visibility
# ----------------------------------------------------------------------
class TestJournalBasics:
    def test_design_and_result_roundtrip_across_handles(self, tmp_path):
        store = JournalStore(tmp_path / "s")
        store.put_design(_TOKENS[0], SIG, ARCH, leaves=_LEAVES[0])
        store.put_design(_TOKENS[1], SIG, ARCH, error="BIN: no rows")
        store.put_result(_TOKENS[0], ARCH, _result(1.0))
        store.put_result(_TOKENS[0], ARCH, _result(2.0))  # last wins

        fresh = JournalStore(tmp_path / "s")
        status, leaves = fresh.get_design(_TOKENS[0], SIG, ARCH)
        assert status == "ok" and len(leaves) == 1
        status, message = fresh.get_design(_TOKENS[1], SIG, ARCH)
        assert status == "error" and "no rows" in message
        assert fresh.get_result(_TOKENS[0], ARCH)["best_gflops"] == 2.0
        assert fresh.get_design(_TOKENS[2], SIG, ARCH) is None
        assert len(fresh) == 3

    def test_first_design_writer_wins(self, tmp_path):
        store = JournalStore(tmp_path / "s")
        store.put_design(_TOKENS[0], ("sig",), ARCH, error="first")
        store.put_design(_TOKENS[0], ("sig",), ARCH, error="second")
        _, message = store.get_design(_TOKENS[0], ("sig",), ARCH)
        assert message == "first"

    def test_second_handle_sees_live_appends(self, tmp_path):
        h1 = JournalStore(tmp_path / "s")
        h2 = JournalStore(tmp_path / "s")
        h1.put_result(_TOKENS[0], ARCH, _result(1.0))
        assert h2.get_result(_TOKENS[0], ARCH)["best_gflops"] == 1.0
        epoch_before = h2._state.epoch
        h1.put_result(_TOKENS[1], ARCH, _result(2.0))
        # same epoch, grown file: incremental replay, not a full reload
        assert h2.get_result(_TOKENS[1], ARCH)["best_gflops"] == 2.0
        assert h2._state.epoch == epoch_before

    def test_bench_entries_keyed_by_config_and_kept(self, tmp_path):
        """Corpus records are first-writer-wins per (config, matrix),
        listed by verify, kept by gc and carried through compaction."""
        config, other = {"gpu": ARCH, "seed": 0}, {"gpu": ARCH, "seed": 1}
        store = JournalStore(tmp_path / "s")
        store.put_bench(config, "m0:aa", {"name": "m0", "search": {"best_gflops": 1.0}})
        store.put_bench(config, "m0:aa", {"name": "m0", "search": {"best_gflops": 2.0}})
        store.put_bench(other, "m0:aa", {"name": "m0", "search": {"best_gflops": 3.0}})
        assert store.get_bench(config, "m0:aa")["search"]["best_gflops"] == 1.0
        assert store.get_bench(other, "m0:aa")["search"]["best_gflops"] == 3.0
        assert store.get_bench({"gpu": ARCH, "seed": 2}, "m0:aa") is None
        assert store.get_bench(config, "m1:bb") is None
        statuses = store.verify()
        assert [(s.kind, s.ok, s.matrix) for s in statuses] == [
            ("bench", True, "m0"), ("bench", True, "m0")
        ]
        assert store.gc() == ([], [])
        assert store.compact()["bench"] == 2
        fresh = JournalStore(tmp_path / "s")
        assert len(fresh) == 2
        assert fresh.get_bench(config, "m0:aa")["search"]["best_gflops"] == 1.0

    def test_claims_are_at_most_once_and_durable(self, tmp_path):
        store = JournalStore(tmp_path / "s")
        assert store.claim_search("key-1") is True
        assert store.claim_search("key-1") is False
        other = JournalStore(tmp_path / "s")
        assert other.claim_search("key-1") is False  # survives the handle
        assert other.claims() == ["key-1"]
        other.gc()  # claims are between-runs residue
        assert JournalStore(tmp_path / "s").claim_search("key-1") is True


# ----------------------------------------------------------------------
# Crash consistency (the tentpole acceptance criterion)
# ----------------------------------------------------------------------
class TestCrashConsistency:
    def test_recovery_at_every_truncation_offset(self, tmp_path):
        """Kill the writer at every byte of the journal: the survivor
        recovers to exactly the last complete record, and physically
        truncates the torn tail."""
        path = tmp_path / "s"
        store = JournalStore(path)
        store.put_design(_TOKENS[0], SIG, ARCH, leaves=_LEAVES[0])
        store.put_design(_TOKENS[1], ("sig",), ARCH, error="BIN: nope")
        store.put_result(_TOKENS[0], ARCH, _result(1.0))
        store.claim_search("claim-1")
        store.put_result(_TOKENS[0], ARCH, _result(2.0))

        journal = path / "journal.log"
        data = journal.read_bytes()
        frames = _frames(data)
        assert len(frames) == 5
        records = [
            json.loads(data[s + _FRAME.size : e]) for s, e in frames
        ]

        for cut in range(_HEADER_SIZE, len(data) + 1):
            journal.write_bytes(data[:cut])
            survivor = JournalStore(path)
            survivor.claims()  # force a refresh
            designs, results, claims = {}, {}, set()
            boundary = _HEADER_SIZE
            for (start, end), record in zip(frames, records):
                if end > cut:
                    break
                boundary = end
                if record["op"] == "design":
                    designs.setdefault(record["key"], record["entry"])
                elif record["op"] == "result":
                    results[record["key"]] = record["entry"]
                else:
                    claims.add(record["key"])
            assert survivor._state.designs == designs, f"cut at {cut}"
            assert survivor._state.results == results, f"cut at {cut}"
            assert survivor._state.claims == claims, f"cut at {cut}"
            assert os.path.getsize(journal) == boundary, f"cut at {cut}"

    def test_torn_write_fault_loses_only_that_record(self, tmp_path):
        plan = FaultPlan(seed=0, torn_write_rate=1.0)
        store = JournalStore(tmp_path / "s", faults=plan)
        with pytest.raises(InjectedCrash, match="torn journal write"):
            store.put_result(_TOKENS[0], ARCH, _result(1.0))
        survivor = JournalStore(tmp_path / "s")
        assert survivor.get_result(_TOKENS[0], ARCH) is None
        assert os.path.getsize(tmp_path / "s" / "journal.log") == _HEADER_SIZE

    def test_corrupt_record_rejected_at_replay(self, tmp_path):
        plan = FaultPlan(seed=0, corrupt_record_rate=1.0)
        store = JournalStore(tmp_path / "s", faults=plan)
        store.put_result(_TOKENS[0], ARCH, _result(1.0))
        # the damaged bytes never reach the writer's own cache either
        assert store.get_result(_TOKENS[0], ARCH) is None
        fresh = JournalStore(tmp_path / "s")
        assert fresh.get_result(_TOKENS[0], ARCH) is None
        reasons = [e.detail for e in fresh.entries() if e.kind == "journal"]
        assert any("digest mismatch" in r or "undecodable" in r for r in reasons)

    def test_mid_log_frame_damage_reported_and_repaired(self, tmp_path):
        path = tmp_path / "s"
        store = JournalStore(path)
        store.put_result(_TOKENS[0], ARCH, _result(1.0))
        store.put_result(_TOKENS[1], ARCH, _result(2.0))
        journal = path / "journal.log"
        data = bytearray(journal.read_bytes())
        (start, end), _ = _frames(bytes(data))
        data[start + _FRAME.size + 2] ^= 0xFF  # break the first record's CRC
        journal.write_bytes(bytes(data))

        damaged = JournalStore(path)
        # frame-level damage: everything behind it is unreachable
        assert damaged.get_result(_TOKENS[0], ARCH) is None
        assert damaged.get_result(_TOKENS[1], ARCH) is None
        rows = [e for e in damaged.entries() if e.kind == "journal" and not e.ok]
        assert rows and "records lost after offset" in rows[0].detail
        damaged.verify(repair=True)  # compacts the damage away
        clean = JournalStore(path)
        assert not [e for e in clean.entries() if not e.ok]

    def test_compaction_crash_between_snapshot_and_reset(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "s"
        store = JournalStore(path)
        store.put_result(_TOKENS[0], ARCH, _result(3.0))

        def crash(epoch):
            raise InjectedCrash("died before the journal reset")

        monkeypatch.setattr(store, "_reset_journal", crash)
        with pytest.raises(InjectedCrash):
            store.compact()
        # snapshot (epoch 1) is on disk; journal still epoch 0 + records.
        # A reader that cannot recover (writer lock held elsewhere) must
        # not double-apply the journal on top of the snapshot.
        lock_fd = os.open(path / "journal.lock", os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(lock_fd, fcntl.LOCK_EX)
            reader = JournalStore(path, lock_policy=_fast_lock_policy())
            assert reader.get_result(_TOKENS[0], ARCH)["best_gflops"] == 3.0
        finally:
            fcntl.flock(lock_fd, fcntl.LOCK_UN)
            os.close(lock_fd)
        # with the lock free, open-time recovery finishes the reset
        recovered = JournalStore(path)
        assert recovered.get_result(_TOKENS[0], ARCH)["best_gflops"] == 3.0
        assert recovered._read_header() == 1
        assert os.path.getsize(path / "journal.log") == _HEADER_SIZE

    def test_compact_and_auto_compact_preserve_contents(self, tmp_path):
        store = JournalStore(tmp_path / "s")
        store.put_design(_TOKENS[0], SIG, ARCH, leaves=_LEAVES[0])
        store.put_result(_TOKENS[0], ARCH, _result(1.0))
        report = store.compact()
        assert report["epoch"] == 1 and report["reclaimed_bytes"] > 0
        fresh = JournalStore(tmp_path / "s")
        assert fresh.get_result(_TOKENS[0], ARCH)["best_gflops"] == 1.0
        assert fresh.get_design(_TOKENS[0], SIG, ARCH)[0] == "ok"

        auto = JournalStore(tmp_path / "auto", auto_compact_bytes=64)
        auto.put_result(_TOKENS[0], ARCH, _result(1.0))
        auto.put_result(_TOKENS[1], ARCH, _result(2.0))
        assert auto._read_header() >= 1  # compaction fired on its own
        assert JournalStore(tmp_path / "auto").get_result(
            _TOKENS[1], ARCH
        )["best_gflops"] == 2.0


# ----------------------------------------------------------------------
# Locking and quarantine
# ----------------------------------------------------------------------
class TestLockingAndQuarantine:
    def test_contended_lock_times_out_bounded(self, tmp_path):
        path = tmp_path / "s"
        store = JournalStore(path, lock_policy=_fast_lock_policy())
        lock_fd = os.open(path / "journal.lock", os.O_CREAT | os.O_RDWR)
        try:
            fcntl.flock(lock_fd, fcntl.LOCK_EX)
            with pytest.raises(LockTimeoutError, match="journal lock"):
                store.put_result(_TOKENS[0], ARCH, _result(1.0))
        finally:
            fcntl.flock(lock_fd, fcntl.LOCK_UN)
            os.close(lock_fd)
        store.put_result(_TOKENS[0], ARCH, _result(1.0))  # recovers after

    def test_injected_lock_timeouts_beat_the_retry_budget(self, tmp_path):
        plan = FaultPlan(seed=0, lock_timeout_rate=1.0)
        store = JournalStore(
            tmp_path / "s", faults=plan, lock_policy=_fast_lock_policy()
        )
        with pytest.raises(LockTimeoutError):
            store.put_result(_TOKENS[0], ARCH, _result(1.0))

    # Lock attempts are numbered per store handle: attempt 1 is the
    # open-time recovery, then one per write plus one per retry.  Seed 0
    # at rate 0.4 fires on attempts 3, 4 and 6 — the second and third
    # writes each hit injected contention.
    PARTIAL_PLAN = FaultPlan(seed=0, lock_timeout_rate=0.4)

    def _partial_store(self, path, attempts):
        return JournalStore(
            path,
            faults=self.PARTIAL_PLAN,
            lock_policy=RetryPolicy(
                attempts=attempts, base_delay_s=0.0005, max_delay_s=0.002,
                retry_on=(LockContended,),
            ),
        )

    def test_partial_injected_contention_is_survived_by_retry(self, tmp_path):
        store = self._partial_store(tmp_path / "s", attempts=20)
        for i, token in enumerate(_TOKENS):
            store.put_result(token, ARCH, _result(float(i)))
        assert len(store.results(ARCH)) == 3
        assert store.faults.fired.get("lock_timeout", 0) > 0

    def test_partial_injected_contention_without_retry_fails(self, tmp_path):
        """The same plan with a single attempt per lock: the first
        injected fault is fatal, so retry is what survives it above."""
        store = self._partial_store(tmp_path / "s", attempts=1)
        store.put_result(_TOKENS[0], ARCH, _result(0.0))
        with pytest.raises(LockTimeoutError):
            store.put_result(_TOKENS[1], ARCH, _result(1.0))
        assert store.faults.fired["lock_timeout"] == 1

    def test_unhydratable_design_is_quarantined(self, tmp_path):
        path = tmp_path / "s"
        store = JournalStore(path)
        digest = store.design_digest(_TOKENS[0], SIG, ARCH)
        # CRC-valid, digest-valid record whose payload will not hydrate
        entry = design_entry_doc(
            _TOKENS[0], SIG, ARCH, {"status": "ok", "leaves": [{"bogus": 1}]}
        )
        store._write_locked({"op": "design", "key": digest, "entry": entry})
        assert store.get_design(_TOKENS[0], SIG, ARCH) is None
        assert store.stats().quarantined == 1
        assert store.quarantine_log and "design/" in store.quarantine_log[0][0]
        # the drop record is durable: a fresh handle never sees the entry
        fresh = JournalStore(path)
        fresh.claims()
        assert digest not in fresh._state.designs
        # and the key heals by write-back
        store.put_design(_TOKENS[0], SIG, ARCH, leaves=_LEAVES[0])
        assert store.get_design(_TOKENS[0], SIG, ARCH)[0] == "ok"

    def test_gc_prunes_unreferenced_designs_and_compacts(self, tmp_path):
        from repro.store import make_result_record

        store = JournalStore(tmp_path / "s")
        store.put_design(_TOKENS[0], SIG, ARCH, leaves=_LEAVES[0])
        store.put_design(_TOKENS[1], SIG, ARCH, leaves=_LEAVES[1])
        store.put_result(
            _TOKENS[0], ARCH, make_result_record(_MATS[0], ARCH, 1.0, None)
        )
        removed_corrupt, removed_unreferenced = store.gc()
        assert removed_corrupt == []
        assert len(removed_unreferenced) == 1  # token 1 had no result
        assert store.get_design(_TOKENS[0], SIG, ARCH) is not None
        assert store.get_design(_TOKENS[1], SIG, ARCH) is None


# ----------------------------------------------------------------------
# Write path
# ----------------------------------------------------------------------
class TestWritePath:
    def test_append_cost_is_independent_of_log_length(
        self, tmp_path, monkeypatch
    ):
        """Each record is digest-checked once per handle: N appends onto
        an M-record log cost O(N) payload digests, not O(N*M) — also
        with a second writer interleaving appends on the same file."""
        import repro.store.journal as journal

        calls = []
        real = journal.payload_digest

        def counting(payload):
            calls.append(1)
            return real(payload)

        path = tmp_path / "s"
        seed = JournalStore(path, auto_compact_bytes=None)
        for i in range(60):
            seed.put_result(("m", 1, 1, 1, f"d{i}"), ARCH, _result(i))
        monkeypatch.setattr(journal, "payload_digest", counting)
        writers = [
            JournalStore(path, auto_compact_bytes=None) for _ in range(2)
        ]
        assert len(calls) == 2 * 60  # a fresh handle verifies the whole log
        del calls[:]
        n = 20
        for i in range(n):
            writers[i % 2].put_result(
                ("n", 1, 1, 1, f"e{i}"), ARCH, _result(i)
            )
        # per append: the entry doc, the writer's own replay of it, and
        # the other writer catching up on it before its next append
        assert len(calls) <= 3 * n
        assert len(JournalStore(path).results()) == 60 + n

    def test_long_lived_writer_truncates_a_foreign_torn_tail(self, tmp_path):
        path = tmp_path / "s"
        writer = JournalStore(path)
        writer.put_result(_TOKENS[0], ARCH, _result(1.0))
        crashing = JournalStore(
            path, faults=FaultPlan(seed=0, torn_write_rate=1.0)
        )
        with pytest.raises(InjectedCrash):  # a torn design record
            crashing.put_design(_TOKENS[1], SIG, ARCH, leaves=_LEAVES[1])
        clean_end = _frames((path / "journal.log").read_bytes())[-1][1]
        torn = os.path.getsize(path / "journal.log") - clean_end
        writer.put_result(_TOKENS[2], ARCH, _result(3.0))
        data = (path / "journal.log").read_bytes()
        frames = _frames(data)
        assert len(frames) == 2 and frames[-1][1] == len(data)
        assert frames[-1][0] == clean_end  # appended where the tear began
        # the small append alone would not have covered the torn bytes
        assert torn > len(data) - clean_end
        fresh = JournalStore(path)
        assert fresh.get_design(_TOKENS[1], SIG, ARCH) is None
        assert fresh.get_result(_TOKENS[2], ARCH)["best_gflops"] == 3.0
        assert all(e.ok for e in fresh.entries())


    def test_long_lived_writer_finishes_a_foreign_crashed_compaction(
        self, tmp_path, monkeypatch
    ):
        """A snapshot written by another handle whose compaction died
        before the journal reset must not be missed by a writer whose
        cached state predates it: appending to the old-epoch journal
        would lose the record."""
        path = tmp_path / "s"
        writer = JournalStore(path)
        writer.put_result(_TOKENS[0], ARCH, _result(1.0))
        compactor = JournalStore(path)

        def crash(epoch):
            raise InjectedCrash("died before the journal reset")

        monkeypatch.setattr(compactor, "_reset_journal", crash)
        with pytest.raises(InjectedCrash):
            compactor.compact()
        writer.put_result(_TOKENS[1], ARCH, _result(2.0))
        fresh = JournalStore(path)
        assert fresh._read_header() == 1
        assert fresh.get_result(_TOKENS[0], ARCH)["best_gflops"] == 1.0
        assert fresh.get_result(_TOKENS[1], ARCH)["best_gflops"] == 2.0


# ----------------------------------------------------------------------
# Reads against a reference model
# ----------------------------------------------------------------------
class TestReferenceModel:
    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["design_ok", "design_err", "result"]),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=1, max_value=999),
            ),
            max_size=10,
        )
    )
    def test_reads_match_a_reference_model(self, ops):
        """Any write sequence reads back, through a fresh handle, exactly
        as a dict model with first-writer-wins designs and
        last-writer-wins results."""
        designs, results = {}, {}
        with tempfile.TemporaryDirectory() as tmp:
            store = JournalStore(tmp)
            for op, idx, value in ops:
                token = _TOKENS[idx]
                if op == "result":
                    store.put_result(token, ARCH, _result(value))
                    results[store.result_digest(token, ARCH)] = (
                        result_entry_doc(token, ARCH, _result(value))
                    )
                    continue
                if op == "design_ok":
                    sig, kwargs = SIG, {"leaves": _LEAVES[idx]}
                else:
                    sig, kwargs = ("sig",), {"error": f"E{value}"}
                store.put_design(token, sig, ARCH, **kwargs)
                payload = (
                    {"status": "error", "message": kwargs["error"]}
                    if "error" in kwargs
                    else {"status": "ok", "leaves": encode_leaves(_LEAVES[idx])}
                )
                designs.setdefault(
                    store.design_digest(token, sig, ARCH),
                    design_entry_doc(token, sig, ARCH, payload),
                )
            fresh = JournalStore(tmp)
            assert json.dumps(fresh.design_payloads(), sort_keys=True) == (
                json.dumps(
                    [
                        (f"{d}.json", e["signature"], e["payload"])
                        for d, e in sorted(designs.items())
                    ],
                    sort_keys=True,
                )
            )
            assert fresh.results() == [
                e["payload"] for _, e in sorted(results.items())
            ]
            assert fresh.result_metas() == [
                (d, result_meta_doc(ARCH, e["payload"]))
                for d, e in sorted(results.items())
            ]
            for op, idx, _ in ops:
                if op == "design_err":
                    digest = fresh.design_digest(_TOKENS[idx], ("sig",), ARCH)
                    assert fresh.get_design(_TOKENS[idx], ("sig",), ARCH) == (
                        "error", designs[digest]["payload"]["message"]
                    )
                elif op == "design_ok":
                    assert fresh.get_design(_TOKENS[idx], SIG, ARCH)[0] == "ok"
