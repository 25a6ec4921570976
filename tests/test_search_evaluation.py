"""Staged evaluation tests: cached design reuse and the time-limit stop.

The acceptance bar for the staged evaluator: a cached search must be
*indistinguishable* from measuring every candidate uncached (the per-candidate oracle of ``candidate_oracle``) —
identical best GFLOPS, history and winning graph — while running the
Designer at least 5x less often.
"""

import numpy as np
import pytest

from repro.core.designer import DesignError, Designer
from repro.core.graph import OperatorGraph
from repro.core.kernel.builder import (
    KernelBuilder,
    design_graph,
    design_signature,
    runtime_nodes_for_leaf,
)
from repro.gpu import A100
from repro.search import DesignCache, SearchBudget, SearchEngine
from repro.search.engine import _SearchState
from repro.search.evaluation import StagedEvaluator, matrix_token
from repro.sparse import banded_matrix, power_law_matrix

from candidate_oracle import use_oracle


SMALL_BUDGET = SearchBudget(
    max_structures=8, coarse_evals_per_structure=4, max_total_evals=50, ml_top_k=3
)


def _engine(oracle=False, seed=3, budget=SMALL_BUDGET):
    engine = SearchEngine(A100, budget=budget, seed=seed)
    return use_oracle(engine) if oracle else engine


def _history_tuple(result):
    return [r.identity() for r in result.history]


class TestCacheCorrectness:
    """Cached searches must be byte-identical to the uncached oracle."""

    @pytest.fixture(scope="class")
    def matrix(self):
        return power_law_matrix(512, avg_degree=8, seed=2, name="eval_irregular")

    @pytest.fixture(scope="class")
    def cached(self, matrix):
        return _engine().search(matrix)

    @pytest.fixture(scope="class")
    def uncached(self, matrix):
        return _engine(oracle=True).search(matrix)

    def test_identical_best_gflops(self, cached, uncached):
        assert cached.best_gflops == uncached.best_gflops  # exact, not approx

    def test_identical_history(self, cached, uncached):
        assert _history_tuple(cached) == _history_tuple(uncached)

    def test_identical_best_graph_signature(self, cached, uncached):
        assert cached.best_graph.signature() == uncached.best_graph.signature()

    def test_counters_surfaced(self, cached):
        # The batched path looks the design cache up once per candidate
        # *group*, not once per candidate — lookups are bounded by (and
        # usually far below) the evaluation count.
        assert cached.design_cache_misses > 0
        assert cached.design_cache_hits + cached.design_cache_misses <= \
            cached.total_evaluations
        assert cached.designer_runs == cached.design_cache_misses


class TestTimeLimit:
    """The time limit is checked before every design group, so a search
    that runs out of time stops at a group boundary — also inside a batch.

    With seed 3 the tpe sampler's third batch holds two design groups, so
    stopping after the third group cuts that batch in half.
    """

    STOP_AFTER = 3

    @staticmethod
    def _record_groups(engine):
        """Record each evaluated group's assignments, and the index of the
        ask batch it belongs to."""
        groups, batch_of = [], []
        batches = [0]
        evaluate_group = engine.batch.evaluate_group
        measure_batch = engine._measure_batch

        def recording(matrix, proposal, assignments, *args):
            groups.append([dict(a) for a in assignments])
            batch_of.append(batches[0])
            return evaluate_group(matrix, proposal, assignments, *args)

        def counting(*args, **kwargs):
            batches[0] += 1
            return measure_batch(*args, **kwargs)

        engine.batch.evaluate_group = recording
        engine._measure_batch = counting
        return groups, batch_of

    def test_stops_at_group_boundary(self, monkeypatch):
        m = banded_matrix(256, bandwidth=3, seed=1, name="time_limit")
        full_engine = SearchEngine(
            A100, budget=SMALL_BUDGET, seed=3, sampler="tpe"
        )
        full_groups, full_batch_of = self._record_groups(full_engine)
        full_engine.search(m)
        assert len(full_groups) > self.STOP_AFTER
        # the stop falls inside a batch: the first group left unmeasured
        # belongs to the same batch as the last group measured
        assert (
            full_batch_of[self.STOP_AFTER - 1] == full_batch_of[self.STOP_AFTER]
        )

        engine = SearchEngine(
            A100, budget=SMALL_BUDGET, seed=3, sampler="tpe"
        )
        groups, _batch_of = self._record_groups(engine)
        monkeypatch.setattr(
            _SearchState, "time_up",
            lambda state: len(groups) >= self.STOP_AFTER,
        )
        result = engine.search(m)

        assert groups == full_groups[: self.STOP_AFTER]
        # every measured candidate, and only those, lands in the history
        def canon(assignments):
            return sorted(str(sorted(map(str, a.items()))) for a in assignments)

        measured = [a for group in groups for a in group]
        assert canon(r.assignment for r in result.history) == canon(measured)


class TestDesignerRunReduction:
    def test_at_least_5x_fewer_designer_runs(self):
        """Acceptance criterion: >=5x on a standard SearchBudget."""
        m = power_law_matrix(512, avg_degree=8, seed=2, name="eval_ratio")
        cached = SearchEngine(A100, budget=SearchBudget(), seed=0).search(m)
        # Uncached baseline runs the Designer once per evaluation.
        assert cached.designer_runs * 5 <= cached.total_evaluations
        # Batched evaluation collapses cache traffic itself: one lookup
        # per design group instead of one per candidate.
        assert (
            cached.design_cache_hits + cached.design_cache_misses
            < cached.total_evaluations
        )


class TestBudgetAndNumbering:
    """Satellite fixes: fine level obeys budgets and iteration ids."""

    @pytest.fixture(scope="class")
    def result(self):
        m = power_law_matrix(512, avg_degree=8, seed=2, name="eval_budget")
        return _engine(seed=1).search(m)

    def test_iteration_ids_unique_and_contiguous(self, result):
        assert [r.iteration for r in result.history] == list(
            range(1, len(result.history) + 1)
        )

    def test_fine_level_counts_against_budget(self):
        m = power_law_matrix(512, avg_degree=8, seed=2, name="eval_cap")
        budget = SearchBudget(
            max_structures=8, coarse_evals_per_structure=4, max_total_evals=20
        )
        res = SearchEngine(A100, budget=budget, seed=1).search(m)
        assert res.total_evaluations <= budget.max_total_evals
        assert len(res.history) <= budget.max_total_evals


class TestStagedBuildEquivalence:
    """design_phase + assembly_phase == the one-shot unstaged build."""

    GRAPHS = [
        ["COMPRESS", ("BMT_ROW_BLOCK", {"rows_per_block": 1}),
         ("SET_RESOURCES", {"threads_per_block": 512, "work_per_thread": 4}),
         "THREAD_TOTAL_RED", "GMEM_DIRECT_STORE"],
        ["COMPRESS", ("SET_RESOURCES", {"threads_per_block": 256,
                                        "work_per_thread": 8}),
         "GMEM_ATOM_RED"],
    ]

    @pytest.mark.parametrize("ops", GRAPHS, ids=["bmt-row", "coo"])
    def test_matches_unstaged_reference(self, small_regular, ops):
        graph = OperatorGraph.from_names(ops)
        builder = KernelBuilder()
        staged = builder.build(small_regular, graph)
        # Unstaged reference: run the Designer on the fully-parameterised
        # graph (the pre-refactor behaviour) and build each leaf directly.
        leaves = Designer().design(small_regular, graph)
        units = [builder.build_unit(leaf) for leaf in leaves]
        assert len(staged.kernels) == len(units)
        for got, want in zip(staged.kernels, units):
            assert got.plan.threads_per_block == want.plan.threads_per_block
            assert got.plan.n_threads == want.plan.n_threads
            np.testing.assert_array_equal(got.plan.thread_of_nz,
                                          want.plan.thread_of_nz)
            assert got.source == want.source
        x = np.random.default_rng(7).random(small_regular.n_cols)
        np.testing.assert_allclose(
            staged.run(x, A100).y, small_regular.spmv_reference(x),
            rtol=1e-9, atol=1e-9,
        )

    def test_runtime_reapply_rejects_bad_params(self, small_regular):
        graph = OperatorGraph.from_names([
            "COMPRESS",
            ("SET_RESOURCES", {"threads_per_block": 100}),
            "GMEM_ATOM_RED",
        ])
        with pytest.raises(DesignError, match="SET_RESOURCES"):
            KernelBuilder().build(small_regular, graph)


class TestDesignSignature:
    def test_runtime_params_masked(self):
        a = OperatorGraph.from_names([
            "COMPRESS", ("SET_RESOURCES", {"threads_per_block": 128}),
            "GMEM_ATOM_RED"])
        b = OperatorGraph.from_names([
            "COMPRESS", ("SET_RESOURCES", {"threads_per_block": 512}),
            "GMEM_ATOM_RED"])
        assert design_signature(a) == design_signature(b)

    def test_design_params_distinguish(self):
        a = OperatorGraph.from_names([
            "COMPRESS", ("BMT_ROW_BLOCK", {"rows_per_block": 1}),
            "SET_RESOURCES", "GMEM_ATOM_RED"])
        b = OperatorGraph.from_names([
            "COMPRESS", ("BMT_ROW_BLOCK", {"rows_per_block": 2}),
            "SET_RESOURCES", "GMEM_ATOM_RED"])
        assert design_signature(a) != design_signature(b)

    def test_design_graph_resets_runtime_params(self):
        g = OperatorGraph.from_names([
            "COMPRESS", ("SET_RESOURCES", {"threads_per_block": 1024}),
            "GMEM_ATOM_RED"])
        canonical = design_graph(g)
        node = next(n for n in canonical.walk() if n.op_name == "SET_RESOURCES")
        assert node.params == node.operator.default_params()
        # original untouched
        orig = next(n for n in g.walk() if n.op_name == "SET_RESOURCES")
        assert orig.params["threads_per_block"] == 1024

    def test_runtime_nodes_follow_branch_paths(self, small_irregular):
        graph = OperatorGraph.from_names([
            "ROW_DIV", "COMPRESS", "SET_RESOURCES", "GMEM_ATOM_RED"])
        leaves = Designer().design(small_irregular, graph)
        assert len(leaves) > 1
        for leaf in leaves:
            nodes = runtime_nodes_for_leaf(graph, leaf.branch_path)
            assert [n.op_name for n in nodes] == ["SET_RESOURCES"]


class TestDesignCache:
    def test_factory_runs_once_per_key(self):
        cache = DesignCache()
        calls = []
        leaves = ["leaf"]
        for _ in range(3):
            out = cache.get_or_design(("k",), lambda: calls.append(1) or leaves)
        assert out is leaves
        assert len(calls) == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (2, 1)

    def test_design_errors_are_cached(self):
        cache = DesignCache()
        calls = []

        def failing():
            calls.append(1)
            raise DesignError("SORT: cannot apply")

        for _ in range(2):
            with pytest.raises(DesignError, match="SORT: cannot apply"):
                cache.get_or_design(("bad",), failing)
        assert len(calls) == 1
        assert cache.stats().hits == 1

    def test_lru_eviction(self):
        cache = DesignCache(max_entries=2)
        for i in range(4):
            cache.get_or_design((i,), lambda i=i: [i])
        assert len(cache) == 2
        assert cache.stats().evictions == 2

    def test_eviction_restores_bound_after_burst(self):
        """A backlog of completed entries (as left by a burst of concurrent
        in-flight misses) shrinks all the way to max_entries on the next
        insert — not just part of the way."""
        from repro.search.evaluation import _CacheEntry

        cache = DesignCache(max_entries=4)
        with cache._lock:
            for i in range(12):
                entry = _CacheEntry()
                entry.done = True
                entry.leaves = [i]
                cache._entries[("burst", i)] = entry
        cache.get_or_design(("fresh",), lambda: ["leaf"])
        assert len(cache) == cache.max_entries

    def test_matrix_token_distinguishes_content(self):
        a = banded_matrix(64, bandwidth=2, seed=0, name="same")
        b = power_law_matrix(64, avg_degree=3, seed=1, name="same")
        assert matrix_token(a) != matrix_token(b)
        assert matrix_token(a) == matrix_token(
            banded_matrix(64, bandwidth=2, seed=0, name="same")
        )

    def test_shared_cache_serves_evaluator(self, small_regular):
        evaluator = StagedEvaluator(KernelBuilder())
        graph = OperatorGraph.from_names(
            ["COMPRESS", "SET_RESOURCES", "GMEM_ATOM_RED"])
        first = evaluator.build(small_regular, graph)
        again = evaluator.build(small_regular, graph)
        stats = evaluator.cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        x = np.random.default_rng(7).random(small_regular.n_cols)
        np.testing.assert_allclose(
            first.run(x, A100).y, again.run(x, A100).y)


class TestSearchMany:
    def test_matches_individual_searches(self):
        mats = [
            banded_matrix(512, bandwidth=3, seed=1, name="many_a"),
            power_law_matrix(512, avg_degree=8, seed=2, name="many_b"),
        ]
        with _engine() as engine:
            combined = engine.search_many(mats, seeds=[7, 9])
        individual = [
            _engine().search(mats[0], seed=7),
            _engine().search(mats[1], seed=9),
        ]
        for got, want in zip(combined, individual):
            assert got.best_gflops == want.best_gflops
            assert _history_tuple(got) == _history_tuple(want)

    def test_seed_length_validated(self):
        with pytest.raises(ValueError):
            _engine().search_many(
                [banded_matrix(64, bandwidth=2, seed=0)], seeds=[1, 2]
            )


class TestEngineIsStateless:
    def test_repeated_searches_identical(self):
        m = power_law_matrix(512, avg_degree=8, seed=2, name="stateless")
        engine = _engine()
        first = engine.search(m)
        second = engine.search(m)  # warm cache, cloned schedule, fresh rng
        assert first.best_gflops == second.best_gflops
        assert _history_tuple(first) == _history_tuple(second)
        # the second pass runs almost entirely from cache
        assert second.designer_runs <= first.designer_runs
        assert second.design_cache_hits >= first.design_cache_hits
