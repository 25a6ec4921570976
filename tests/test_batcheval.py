"""Batched group evaluation + cross-matrix warm-start tests.

Acceptance bars (vectorized hot loop PR):

* batched evaluation is a *pure optimisation*: search histories are
  byte-identical across batched / per-candidate oracle x store on/off —
  every combination reproduces the golden digest captured from
  the seed revision's per-candidate loop;
* property-based differential: batched searches agree with the
  per-candidate oracle (``candidate_oracle``) candidate-for-candidate over
  random matrices (hypothesis);
* cross-matrix warm starts: a stored winner seeds the candidate stream
  as an iteration-0 candidate, an empty store degrades to an exactly
  cold search, and the corpus runner pins its config/record keys only
  when warm starting (historical stores stay resumable byte-for-byte).
"""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import SearchEngine, named_matrix
from repro.bench import CorpusRunner
from repro.gpu import A100
from repro.search import SearchBudget
from repro.search.evaluation import matrix_token
from repro.sparse import SparseMatrix, corpus
from repro.store import JournalStore, search_result_record

from candidate_oracle import use_oracle

# Same golden history digest as tests/test_workloads.py: a 96-eval
# seed-0 search of @2D_27628_bjtcai, captured from the pre-batching
# per-candidate loop.
GOLDEN_HISTORY_DIGEST = "698d9cef81eb821dce2abedb5b13ef4e"
GOLDEN_MATRIX = "2D_27628_bjtcai"


def _history_digest(result) -> str:
    blob = repr([r.identity() for r in result.history]).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def _identities(result):
    return [r.identity() for r in result.history]


# ---------------------------------------------------------------------------
# Byte-identity: batched/oracle x store on/off
# ---------------------------------------------------------------------------

class TestBatchedHistoryIdentity:
    #: ``batch=False`` routes the engine through the per-candidate oracle
    @pytest.mark.parametrize("batch", [True, False])
    @pytest.mark.parametrize("with_store", [True, False])
    def test_golden_history_every_combination(
        self, batch, with_store, tmp_path
    ):
        store = (
            JournalStore(str(tmp_path / f"store-{batch}"))
            if with_store
            else None
        )
        with SearchEngine(
            A100,
            budget=SearchBudget(max_total_evals=96),
            seed=0,
            store=store,
        ) as engine:
            if not batch:
                use_oracle(engine)
            result = engine.search(named_matrix(GOLDEN_MATRIX))
        assert _history_digest(result) == GOLDEN_HISTORY_DIGEST, (
            f"search history diverged (batch={batch}, store={with_store})"
        )

    def test_batch_stage_timings_recorded(self):
        with SearchEngine(
            A100, budget=SearchBudget(max_total_evals=32), seed=0
        ) as engine:
            result = engine.search(named_matrix(GOLDEN_MATRIX))
        times = dict(result.stage_times)
        assert times.get("batch_assembly", 0.0) > 0.0
        assert times.get("batch_cost", 0.0) > 0.0
        # The per-candidate stages it replaces must not double-count.
        assert times.get("assembly", 0.0) == 0.0
        assert times.get("analysis", 0.0) == 0.0


# ---------------------------------------------------------------------------
# Property-based differential: batched vs oracle over random matrices
# ---------------------------------------------------------------------------

@st.composite
def small_matrices(draw, max_dim=20, max_nnz=48):
    n_rows = draw(st.integers(1, max_dim))
    n_cols = draw(st.integers(1, max_dim))
    nnz = draw(st.integers(1, min(max_nnz, n_rows * n_cols)))
    rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz))
    # Strictly positive values: a matrix whose entries compress away to
    # zero nnz crashes the builder on both the batched evaluator and the
    # oracle (pre-existing degenerate-input behaviour, out of scope here).
    vals = draw(
        st.lists(st.floats(0.5, 8.0), min_size=nnz, max_size=nnz)
    )
    return SparseMatrix(n_rows, n_cols, rows, cols, vals, name="prop")


@given(small_matrices(), st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_property_batched_equals_per_candidate(matrix, seed):
    results = []
    for batch in (True, False):
        with SearchEngine(
            A100, budget=SearchBudget(max_total_evals=16), seed=0
        ) as engine:
            if not batch:
                use_oracle(engine)
            results.append(engine.search(matrix, seed=seed))
    batched, serial = results
    assert _identities(batched) == _identities(serial)
    assert batched.best_gflops == serial.best_gflops
    assert batched.total_evaluations == serial.total_evaluations


# ---------------------------------------------------------------------------
# Cross-matrix warm starts
# ---------------------------------------------------------------------------

class TestWarmStart:
    def _populate(self, store, matrix, seed=0, evals=24):
        """Search ``matrix`` cold and record its winner the way the CLI
        and corpus runner do, so the store can donate it."""
        with SearchEngine(
            A100, budget=SearchBudget(max_total_evals=evals), seed=seed,
            store=store,
        ) as engine:
            result = engine.search(matrix)
            assert result.best_graph is not None
            store.put_result(
                engine.workload.scope_token(matrix_token(matrix)),
                A100.name,
                search_result_record(matrix, A100.name, result, seed=seed),
            )
        return result

    def test_empty_store_is_exactly_cold(self, tmp_path):
        store = JournalStore(str(tmp_path / "empty"))
        matrix = named_matrix(GOLDEN_MATRIX)
        results = []
        for warm in (store, None):
            with SearchEngine(
                A100, budget=SearchBudget(max_total_evals=24), seed=0,
                warm_start_store=warm,
            ) as engine:
                results.append(engine.search(matrix))
        assert results[0].warm_start_hits == 0
        assert _identities(results[0]) == _identities(results[1])

    def test_donor_seeds_iteration_zero(self, tmp_path):
        store = JournalStore(str(tmp_path / "donors"))
        donor_result = self._populate(store, named_matrix("scfxm1-2r"))
        with SearchEngine(
            A100, budget=SearchBudget(max_total_evals=24), seed=0,
            warm_start_store=store,
        ) as engine:
            warm = engine.search(named_matrix("consph"))
        assert warm.warm_start_hits == 1
        first = warm.history[0]
        # The donor candidate is the stored winner's graph verbatim.
        assert (
            [op for op, *_rest in first.structure_sig]
            == list(donor_result.best_graph.operator_names())
        )

    def test_own_result_never_donates(self, tmp_path):
        """Self-exclusion: the store's entry for this very matrix must
        not warm-start it (that is the design store's exact-hit job)."""
        store = JournalStore(str(tmp_path / "self"))
        matrix = named_matrix("scfxm1-2r")
        self._populate(store, matrix)
        with SearchEngine(
            A100, budget=SearchBudget(max_total_evals=24), seed=0,
            warm_start_store=store,
        ) as engine:
            result = engine.search(matrix)
        assert result.warm_start_hits == 0

    def test_corpus_runner_requires_design_store(self):
        with pytest.raises(ValueError, match="requires a store"):
            CorpusRunner(A100, warm_start=True)

    def test_corpus_runner_pins_warm_start(self, tmp_path):
        budget = SearchBudget(max_total_evals=12)
        matrices = list(corpus(2))
        cold = CorpusRunner(A100, budget=budget)
        with cold:
            assert cold.config()["engine"]["warm_start"] is False
            cold_records = cold.run(matrices).records
        assert all("warm_start_hits" not in r["search"] for r in cold_records)

        store = JournalStore(str(tmp_path / "ws"))
        warm = CorpusRunner(A100, budget=budget, store=store, warm_start=True)
        with warm:
            assert warm.config()["engine"]["warm_start"] is True
            warm_records = warm.run(matrices).records
        assert all(
            isinstance(r["search"]["warm_start_hits"], int)
            for r in warm_records
        )
        # The first corpus matrix has no prior winner; later ones do.
        assert warm_records[0]["search"]["warm_start_hits"] == 0
        assert warm_records[1]["search"]["warm_start_hits"] == 1
