"""Sampler tests: name lookup and typo UX, annealer and TPE byte-identity
behind the ask/tell interface, TPE seed determinism, and the
successive-halving never-prunes-the-best property."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import named_matrix
from repro.bench.runner import CorpusRunner
from repro.gpu import A100
from repro.search import (
    AnnealerSampler,
    AskBatch,
    Sampler,
    ScrambledSobol,
    SearchBudget,
    SearchEngine,
    SuccessiveHalvingPruner,
    TPESampler,
    enumerate_param_grid,
    get_sampler,
    sampler_names,
)
from repro.sparse.generators import power_law_matrix
from repro.store import JournalStore

# The pre-sampler-interface golden digest (tests/test_workloads.py): the
# default sampler must keep reproducing these bytes.
GOLDEN_HISTORY_DIGEST = "698d9cef81eb821dce2abedb5b13ef4e"
GOLDEN_MATRIX = "2D_27628_bjtcai"
GOLDEN_BUDGET = dict(max_total_evals=96)

# TPE's history digest, recorded before QMC/D-TS and the sampler registry
# were deleted: one standard-budget search on pl-512 (engine seed 0).
GOLDEN_TPE_DIGEST = "6348348c8ea55b975e5c8f437f1674f6"

ADAPTIVE = ["tpe"]


def _history_digest(result) -> str:
    blob = repr([r.identity() for r in result.history])
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# Name lookup and typo UX
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_names(self):
        assert sampler_names() == ["annealer", "tpe"]

    def test_default_is_annealer(self):
        assert get_sampler(None) is AnnealerSampler

    def test_lookup_by_name_and_class(self):
        assert get_sampler("tpe") is TPESampler
        assert get_sampler(TPESampler) is TPESampler

    def test_unknown_name_lists_registered(self):
        with pytest.raises(ValueError, match="unknown sampler 'bogus'"):
            get_sampler("bogus")
        with pytest.raises(ValueError, match="samplers: annealer, tpe$"):
            get_sampler("bogus")

    def test_cli_types_reject_cleanly(self):
        import argparse

        from repro.cli import _sampler_arg, _sampler_seed_arg

        assert _sampler_arg("tpe") is TPESampler
        assert _sampler_seed_arg("17") == 17
        with pytest.raises(argparse.ArgumentTypeError, match="samplers: annealer, tpe"):
            _sampler_arg("bogus")
        with pytest.raises(argparse.ArgumentTypeError, match="integer sampler seed"):
            _sampler_seed_arg("seven")


# ---------------------------------------------------------------------------
# Byte identity: the annealer behind the interface
# ---------------------------------------------------------------------------

class TestAnnealerByteIdentity:
    @pytest.fixture(scope="class")
    def matrix(self):
        return named_matrix(GOLDEN_MATRIX)

    def _search(self, matrix, store=None, sampler=None):
        engine = SearchEngine(
            A100,
            budget=SearchBudget(**GOLDEN_BUDGET),
            seed=0,
            store=store,
            sampler=sampler,
            enable_static_pruning=False,
        )
        try:
            return engine.search(matrix)
        finally:
            engine.close()

    def test_golden_across_store(self, matrix, tmp_path):
        """The acceptance assertion: default-sampler histories are
        byte-identical to the pre-interface engine with the store on and
        off."""
        for use_store in (False, True):
            store = JournalStore(tmp_path / "s") if use_store else None
            result = self._search(matrix, store=store)
            assert _history_digest(result) == GOLDEN_HISTORY_DIGEST, (
                f"store={use_store} diverged from the "
                "pre-sampler-interface golden digest"
            )
            assert result.sampler == "annealer"
            assert result.sampler_pruned == 0

    def test_explicit_annealer_is_the_default(self, matrix):
        assert (
            _history_digest(self._search(matrix, sampler="annealer"))
            == GOLDEN_HISTORY_DIGEST
        )


# ---------------------------------------------------------------------------
# Byte identity: TPE
# ---------------------------------------------------------------------------

class TestTPEByteIdentity:
    def test_golden_across_store(self, tmp_path):
        """A standard-budget TPE search keeps its recorded history, with
        the design store on and off (TPE never draws during evaluation)."""
        matrix = power_law_matrix(512, avg_degree=8, seed=1, name="pl-512")
        for use_store in (False, True):
            engine = SearchEngine(
                A100,
                budget=SearchBudget(),
                seed=0,
                sampler="tpe",
                store=JournalStore(tmp_path / "s") if use_store else None,
            )
            try:
                result = engine.search(matrix)
            finally:
                engine.close()
            assert _history_digest(result) == GOLDEN_TPE_DIGEST, (
                f"store={use_store} diverged from the recorded TPE digest"
            )


# ---------------------------------------------------------------------------
# TPE determinism
# ---------------------------------------------------------------------------

class TestAdaptiveDeterminism:
    @pytest.fixture(scope="class")
    def matrix(self):
        return power_law_matrix(512, avg_degree=8, seed=1, name="pl-512")

    def _search(self, matrix, sampler, sampler_seed=None):
        engine = SearchEngine(
            A100,
            budget=SearchBudget(max_total_evals=64),
            seed=0,
            sampler=sampler,
            sampler_seed=sampler_seed,
        )
        try:
            return engine.search(matrix)
        finally:
            engine.close()

    @pytest.mark.parametrize("sampler", ADAPTIVE)
    def test_sampler_seed_reproducible(self, matrix, sampler):
        a = self._search(matrix, sampler, sampler_seed=7)
        b = self._search(matrix, sampler, sampler_seed=7)
        assert [r.identity() for r in a.history] == [
            r.identity() for r in b.history
        ]

    def test_sampler_seed_changes_trajectory(self, matrix):
        a = self._search(matrix, "tpe", sampler_seed=1)
        b = self._search(matrix, "tpe", sampler_seed=2)
        assert [r.identity() for r in a.history] != [
            r.identity() for r in b.history
        ]

    def test_result_records_sampler(self, matrix):
        result = self._search(matrix, "tpe")
        assert result.sampler == "tpe"
        assert result.sampler_pruned > 0


# ---------------------------------------------------------------------------
# Successive halving
# ---------------------------------------------------------------------------

#: full measurements allowed in the pruning comparison — fewer than the
#: fixed stream holds, so measuring everything cannot reach its end.
PRUNE_BUDGET = 40


class _FixedStreamSampler(Sampler):
    """History-independent sampler for the pruning comparison: each
    archetype seed's coarse grid, one batch per seed, in seed order."""

    name = "fixed-stream"
    uses_ml_level = False
    prunes = True

    def begin(self, space, rng, seed):
        grid_rng = np.random.default_rng(seed)
        self._batches = [
            AskBatch(
                proposal,
                enumerate_param_grid(
                    proposal.graph,
                    proposal.locks,
                    cap=space.budget.coarse_evals_per_structure,
                    rng=grid_rng,
                ),
            )
            for proposal in space.seed_proposals()
        ]

    def ask(self, history):
        return self._batches.pop(0) if self._batches else None

    def tell(self, batch, records):
        pass


class TestSuccessiveHalving:
    def test_waves_partition_in_descending_order(self):
        pruner = SuccessiveHalvingPruner()
        scores = [3.0, 9.0, 1.0, 7.0, 5.0, 0.0, 2.0, 8.0]
        waves = pruner.waves(scores)
        flat = [i for wave in waves for i in wave]
        assert sorted(flat) == list(range(len(scores)))
        assert [scores[i] for i in flat] == sorted(scores, reverse=True)
        assert len(waves[0]) == pruner.min_survivors

    def test_small_batches_never_pruned(self):
        pruner = SuccessiveHalvingPruner()
        assert pruner.waves([1.0, 2.0]) == [[1, 0]]
        assert pruner.waves([]) == []

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            SuccessiveHalvingPruner(eta=1.0)
        with pytest.raises(ValueError):
            SuccessiveHalvingPruner(min_survivors=0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                st.booleans(),
            ),
            max_size=40,
        )
    )
    def test_never_prunes_the_eventual_best(self, candidates):
        """Replay the engine's pruned-measurement loop on an arbitrary
        batch: projections are exact for valid candidates (this
        simulator's measurement contract) and invalid candidates measure
        0.  Whatever is pruned, the best fully-measured score must equal
        the best score full measurement of *every* candidate would have
        found."""
        pruner = SuccessiveHalvingPruner()
        projections = [score for score, _valid in candidates]
        measured_all = [
            score if valid else 0.0 for score, valid in candidates
        ]
        waves = pruner.waves(projections)
        measured = []
        for index, wave in enumerate(waves):
            if index > 0 and any(m > 0 for m in measured):
                break  # remaining waves are pruned
            measured.extend(measured_all[i] for i in wave)
        assert max(measured, default=0.0) == max(measured_all, default=0.0)

    def test_pruning_never_hurts_on_a_real_search(self):
        """A fixed-stream sampler asks the same candidate sequence
        regardless of history, and per batch the pruner always measures
        the batch's best valid candidate (the hypothesis property above).
        So at an equal full-measurement budget the pruned run — which
        stretches the same budget across at least as many batches — must
        end at least as good as measuring everything (a pruner whose
        survivor floor no batch exceeds)."""
        matrix = power_law_matrix(384, avg_degree=6, seed=2, name="pl-384")
        results = {}
        for pruning in (True, False):
            engine = SearchEngine(
                A100,
                budget=SearchBudget(max_total_evals=PRUNE_BUDGET),
                seed=0,
                sampler=_FixedStreamSampler,
            )
            if not pruning:
                engine.sh_pruner = SuccessiveHalvingPruner(min_survivors=10**6)
            try:
                results[pruning] = engine.search(matrix)
            finally:
                engine.close()
        assert results[True].best_gflops >= results[False].best_gflops
        assert results[True].sampler_pruned > 0
        assert results[False].sampler_pruned == 0
        # the budget binds: full measurement runs out before the stream,
        # while the pruned run reaches further into it
        assert results[False].total_evaluations == PRUNE_BUDGET
        assert results[True].structures_tried > results[False].structures_tried


# ---------------------------------------------------------------------------
# Scrambled Sobol
# ---------------------------------------------------------------------------

class TestScrambledSobol:
    def test_points_in_unit_cube_and_deterministic(self):
        a = ScrambledSobol(5, np.random.default_rng(0)).take(64)
        b = ScrambledSobol(5, np.random.default_rng(0)).take(64)
        assert a == b
        assert all(0.0 <= u < 1.0 for point in a for u in point)

    def test_dimension_zero_is_equidistributed(self):
        points = ScrambledSobol(3, np.random.default_rng(1)).take(64)
        first = [p[0] for p in points]
        assert len(set(first)) == 64  # digital shift preserves distinctness
        counts = np.bincount((np.array(first) * 8).astype(int), minlength=8)
        assert counts.min() >= 7 and counts.max() <= 9

    def test_scramble_off_reproduces_sobol(self):
        rng = np.random.default_rng(0)
        points = ScrambledSobol(2, rng, scramble=False).take(3)
        # Gray-code Sobol' starting at x_1: 1/2, then 3/4 / 1/4 pattern.
        assert points[0] == [0.5, 0.5]
        assert sorted(p[0] for p in points[1:]) == [0.25, 0.75]

    def test_rejects_zero_dimensions(self):
        with pytest.raises(ValueError):
            ScrambledSobol(0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# Bench/store config pinning
# ---------------------------------------------------------------------------

class TestConfigPinning:
    def test_default_sampler_pinned_in_config_only(self):
        runner = CorpusRunner(
            A100, budget=SearchBudget(max_total_evals=24), seed=0
        )
        with runner:
            config = runner.config()
            matrix = power_law_matrix(256, avg_degree=5, seed=3, name="pl-256")
            record = runner._evaluate_matrix(matrix, family="synthetic", seed=0)
        assert config["engine"]["sampler"] == "annealer"
        assert config["engine"]["sampler_seed"] is None
        assert "sampler" not in record["search"]
        assert "sampler_pruned" not in record["search"]

    def test_non_default_sampler_is_pinned(self):
        engine = SearchEngine(
            A100,
            budget=SearchBudget(max_total_evals=24),
            seed=0,
            sampler="tpe",
            sampler_seed=11,
        )
        runner = CorpusRunner(A100, engine=engine)
        with runner:
            config = runner.config()
            matrix = power_law_matrix(256, avg_degree=5, seed=3, name="pl-256")
            record = runner._evaluate_matrix(matrix, family="synthetic", seed=0)
        assert config["engine"]["sampler"] == "tpe"
        assert config["engine"]["sampler_seed"] == 11
        assert record["search"]["sampler"] == "tpe"
        assert "sampler_pruned" in record["search"]
