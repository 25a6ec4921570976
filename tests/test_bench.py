"""Corpus evaluation pipeline tests: stored records, runner, aggregation."""

import json

import numpy as np
import pytest

from repro.bench import (
    CorpusRunner,
    baseline_speedups,
    creativity_counts,
    pfs_speedups,
    render_corpus_report,
)
from repro.cli import main
from repro.gpu import A100
from repro.search import SearchBudget
from repro.sparse import banded_matrix, lp_like_matrix, power_law_matrix
from repro.store import JournalStore, StoreError, StoreVersionError
from store_damage import damage_record

#: Small but real matrices — big enough that every baseline runs, small
#: enough that three searches stay in tier-1 time.
MATRICES = [
    banded_matrix(192, bandwidth=3, seed=1, name="bench-banded"),
    power_law_matrix(256, avg_degree=6, seed=2, name="bench-powerlaw"),
    lp_like_matrix(200, seed=3, name="bench-lp"),
]

BUDGET = SearchBudget(max_structures=8, coarse_evals_per_structure=6,
                      max_total_evals=24)

CONFIG = {"gpu": "A100", "seed": 0}


def run_corpus(store=None, matrices=None, seed=0):
    with CorpusRunner(A100, budget=BUDGET, seed=seed, store=store) as runner:
        return runner.run(MATRICES if matrices is None else matrices)


def stripped(record, *extra):
    """A record without its one wall-clock field and the ``extra`` search
    fields (deep copy)."""
    out = json.loads(json.dumps(record))
    for key in ("wall_time_s",) + extra:
        out["search"].pop(key)
    return out


def measured(record):
    """What a record measured: :func:`stripped` minus ``designer_runs``,
    which drops to 0 for designs a store already holds."""
    return stripped(record, "designer_runs")


@pytest.fixture(scope="module")
def fresh_run():
    """One full store-less corpus run shared by the read-only tests."""
    return run_corpus()


class TestResultStore:
    """The one result store: corpus records are ``bench`` entries of the
    journal store, keyed by run config and matrix record key."""

    def test_in_memory_roundtrip(self, tmp_path):
        store = JournalStore(tmp_path / "store")
        store.put_bench(CONFIG, "k", {"name": "m"})
        assert store.get_bench(CONFIG, "k") == {"name": "m"}
        assert len(store) == 1

    def test_persistence_roundtrip(self, tmp_path):
        path = tmp_path / "store"
        store = JournalStore(path)
        store.put_bench(CONFIG, "a", {"name": "a", "v": 1})
        store.put_bench(CONFIG, "b", {"name": "b", "v": 2})
        again = JournalStore(path)
        assert len(again) == 2
        assert again.get_bench(CONFIG, "a") == {"name": "a", "v": 1}
        (entry,) = [
            e for e in again._state.bench.values() if e["matrix"]["key"] == "a"
        ]
        assert entry["config"] == CONFIG

    def test_flush_is_atomic_valid_json(self, tmp_path):
        """Every put is durable on its own: a fresh handle reads all of
        them back after each one, and nothing leaves temp-file litter."""
        path = tmp_path / "store"
        store = JournalStore(path)
        for i in range(5):
            store.put_bench(CONFIG, f"k{i}", {"v": i})
            assert len(JournalStore(path)) == i + 1
        assert not list(path.glob("*.tmp"))

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "results.json"  # a file, like an old --resume
        path.write_text("{not json")
        with pytest.raises(StoreError, match="is a file"):
            JournalStore(path)
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "store.json").write_text("{not json")
        with pytest.raises(StoreError, match="cannot read"):
            JournalStore(bad)
        (bad / "store.json").write_text(
            '{"kind": "design-store", "schema": 99, "backend": "journal"}'
        )
        with pytest.raises(StoreVersionError, match="schema"):
            JournalStore(bad)


class TestRunnerResume:
    def test_interrupt_resume_identical_table(self, tmp_path):
        """write -> interrupt -> resume: the resumed run re-measures only
        the missing matrices and the final table is identical to an
        uninterrupted run."""
        path = tmp_path / "store"
        partial = run_corpus(store=JournalStore(path), matrices=MATRICES[:2])
        assert partial.stats.measured == 2

        resumed = run_corpus(store=JournalStore(path))  # all three
        assert resumed.stats.resumed == 2
        assert resumed.stats.measured == 1

        fresh = run_corpus()
        assert (render_corpus_report(resumed.records)
                == render_corpus_report(fresh.records))

    def test_resumed_run_measures_nothing(self, tmp_path):
        path = tmp_path / "store"
        first = run_corpus(store=JournalStore(path))
        again = run_corpus(store=JournalStore(path))
        assert again.stats.measured == 0
        assert again.stats.resumed == len(MATRICES)
        assert again.records == first.records

    def test_two_runners_share_one_store(self, tmp_path):
        """Two runners (two handles opened before either writes) on one
        store path, with interleaved matrices: every record is stored."""
        path = tmp_path / "store"
        with CorpusRunner(A100, budget=BUDGET, store=JournalStore(path)) as a, \
                CorpusRunner(A100, budget=BUDGET, store=JournalStore(path)) as b:
            a.run(MATRICES[0:1])
            b.run(MATRICES[1:2])
            a.run(MATRICES[2:3])
        after = run_corpus(store=JournalStore(path))
        assert after.stats.measured == 0
        assert after.stats.resumed == len(MATRICES)

    def test_damaged_record_is_flagged_and_remeasured(self, tmp_path, capsys):
        path = tmp_path / "store"
        first = run_corpus(store=JournalStore(path), matrices=MATRICES[:2])
        damage_record(path, "bench", 0)
        assert main(["store", "verify", str(path)]) == 1
        assert "CORRUPT journal" in capsys.readouterr().out
        again = run_corpus(store=JournalStore(path), matrices=MATRICES[:2])
        assert (again.stats.measured, again.stats.resumed) == (1, 1)
        assert [measured(r) for r in again.records] == [
            measured(r) for r in first.records
        ]
        assert run_corpus(
            store=JournalStore(path), matrices=MATRICES[:2]
        ).stats.resumed == 2

    def test_store_keys_content_addressed(self):
        renamed = banded_matrix(192, bandwidth=3, seed=1, name="other-name")
        same_name = banded_matrix(192, bandwidth=5, seed=7, name="bench-banded")
        key = CorpusRunner.record_key(MATRICES[0])
        assert CorpusRunner.record_key(renamed) != key  # name is part of it
        assert CorpusRunner.record_key(same_name) != key  # content too
        assert CorpusRunner.record_key(MATRICES[0]) == key

    def test_config_guard_stops_mixed_stores(self, tmp_path):
        """Records of two configs never mix: a second run into the same
        store with another seed re-measures every matrix, exactly as a
        store-less run with that seed measures it."""
        path = tmp_path / "store"
        run_corpus(store=JournalStore(path), matrices=MATRICES[:2])
        other = run_corpus(store=JournalStore(path), matrices=MATRICES[:2], seed=99)
        assert (other.stats.measured, other.stats.resumed) == (2, 0)
        alone = run_corpus(matrices=MATRICES[:2], seed=99)
        assert [measured(r) for r in other.records] == [
            measured(r) for r in alone.records
        ]

    def test_config_guard_pins_full_budget(self, tmp_path):
        """Any result-affecting budget field is part of the key, not just
        the eval cap — otherwise a resume would silently mix searches run
        under different coarse/fine budgets."""
        path = tmp_path / "store"
        run_corpus(store=JournalStore(path), matrices=MATRICES[:1])
        other = SearchBudget(
            max_structures=BUDGET.max_structures,
            coarse_evals_per_structure=BUDGET.coarse_evals_per_structure + 2,
            max_total_evals=BUDGET.max_total_evals,
        )
        with CorpusRunner(A100, budget=other, store=JournalStore(path)) as runner:
            assert runner.run(MATRICES[:1]).stats.measured == 1

    def test_record_independent_of_list_position(self):
        """A matrix's record depends on its content, not where it sits in
        the input list — so corpus shards tile the full run and resumes
        are order-insensitive."""
        full = run_corpus()
        alone = run_corpus(matrices=[MATRICES[2]])
        assert stripped(alone.records[0]) == stripped(full.records[2])


class TestAggregation:
    def test_records_shape(self, fresh_run):
        assert len(fresh_run.records) == len(MATRICES)
        for record in fresh_run.records:
            assert record["baselines"]
            assert record["search"]["total_evaluations"] > 0
            for meas in record["baselines"].values():
                assert np.isfinite(meas["gflops"])
                assert np.isfinite(meas["time_s"])

    def test_no_non_finite_aggregates(self, fresh_run):
        """The speedup() inf bug, demonstrably fixed: inapplicable
        baselines (0 GFLOPS) are filtered, never turned into inf."""
        per_baseline = baseline_speedups(fresh_run.records)
        assert per_baseline
        for name, values in per_baseline.items():
            assert all(np.isfinite(v) and v > 0 for v in values), name
        # At least one baseline is inapplicable somewhere on this mix
        # (DIA on the power-law matrix), so filtering is actually exercised.
        n_searched = sum(
            1 for r in fresh_run.records if r["search"]["best_gflops"] > 0
        )
        assert any(len(v) < n_searched for v in per_baseline.values())

    def test_pfs_speedups_finite(self, fresh_run):
        values = pfs_speedups(fresh_run.records)
        assert values
        assert all(np.isfinite(v) for v in values)

    def test_report_renders_all_sections(self, fresh_run):
        text = render_corpus_report(fresh_run.records, title="Mini corpus")
        assert "Mini corpus" in text
        assert "geomean speedup" in text
        assert "Fig 10" in text
        assert "Creativity" in text
        assert "inf" not in text and "nan" not in text

    def test_report_from_reloaded_store(self, tmp_path):
        """The same table renders from the stored records alone."""
        path = tmp_path / "store"
        live = run_corpus(store=JournalStore(path))
        reloaded = run_corpus(store=JournalStore(path))
        assert reloaded.stats.measured == 0
        assert (render_corpus_report(reloaded.records)
                == render_corpus_report(live.records))

    def test_empty_report_rejected(self):
        with pytest.raises(ValueError):
            render_corpus_report([])

    def test_creativity_counts_sum(self, fresh_run):
        counts = creativity_counts(fresh_run.records)
        classified = (counts["machine-designed"] + counts["source-format"])
        assert classified == len(MATRICES)
        assert (counts["parameter-novel"] + counts["structure-novel"]
                == counts["machine-designed"])
