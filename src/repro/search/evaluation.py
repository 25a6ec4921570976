"""Staged evaluation: cached design reuse + incremental plan analysis.

The three-level search evaluates hundreds of candidate designs per matrix.
Most of those candidates share a graph *structure* and differ only in
scalar parameters, yet a naive evaluator re-runs the Designer over the full
metadata set for every one of them.  This module makes candidate evaluation
a first-class subsystem with two pieces:

:class:`DesignCache`
    Content-addressed cache of Designer output keyed on
    ``(matrix token, design signature)`` — the matrix's content hash plus
    the graph identity with runtime-only parameters masked (see
    :func:`repro.core.kernel.builder.design_signature`).  Hit/miss counters
    are surfaced in :class:`~repro.search.engine.SearchResult`.  Concurrent
    misses of the same key run the Designer exactly once (per-entry locks),
    so an engine shared across caller threads keeps exact counters.

:class:`StagedEvaluator`
    Splits ``KernelBuilder.build`` into the structure-level design phase
    (cached in its own :class:`DesignCache`) and the parameter-level
    plan-assembly phase.  Its :class:`~repro.gpu.analysis.LeafAnalysisCache`
    makes assembly and execution incremental across each design leaf's
    runtime grid: kernel units, cost projections and the functional ``y`` /
    numeric verdict are computed once per leaf and shared by every
    candidate.  Per-stage wall time is accumulated in :attr:`timings`.

    With ``store`` set (a :class:`~repro.store.journal.JournalStore`) the
    design phase becomes *read-through persistent*: a miss in the
    in-memory cache consults the store before running the Designer, and
    every Designer outcome — success or :class:`DesignError` — is written
    back.  Stored leaves decode bit-exactly, so search histories are
    byte-identical store-on vs store-off, and a second search of the same
    matrix in a *fresh process* performs zero Designer runs.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.designer import DesignError, DesignLeaf
from repro.core.graph import GraphValidationError, OperatorGraph
from repro.core.kernel.builder import BuildError, KernelBuilder, design_signature
from repro.core.kernel.program import GeneratedProgram
from repro.gpu.analysis import CacheStats, LeafAnalysisCache, content_digest
from repro.gpu.arch import GPUSpec
from repro.gpu.cost import CostModel
from repro.gpu.executor import PlanValidationError, plan_cost_inputs
from repro.sparse.matrix import SparseMatrix
from repro.store.journal import JournalStore

__all__ = [
    "CacheStats",
    "DesignCache",
    "StagedEvaluator",
    "StageTimings",
    "matrix_token",
]

def matrix_token(matrix: SparseMatrix) -> Tuple:
    """Content-address of a matrix: name, shape and a triplet digest.

    Hashing the triplets (rather than trusting ``matrix.name``) keeps a
    shared multi-matrix cache safe for anonymous or same-named matrices.
    Callers tuning a non-default workload scope the token with
    :meth:`repro.workloads.Workload.scope_token` before keying caches or
    stores on it, so designs/analyses of different workloads never mix
    (the default SpMV scope is the identity — historical keys unchanged).
    """
    digest = content_digest(matrix.rows, matrix.cols, matrix.vals)
    return (matrix.name, matrix.n_rows, matrix.n_cols, matrix.nnz, digest)


class _CacheEntry:
    """One cache slot; ``lock`` serialises the first (designing) caller."""

    __slots__ = ("lock", "leaves", "error", "done")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.leaves: Optional[List[DesignLeaf]] = None
        self.error: Optional[str] = None
        self.done = False


class DesignCache:
    """Thread-safe LRU cache of design-phase output.

    Failed designs (:class:`DesignError`) are cached too — the search
    records the same dead candidate for every parameter assignment of a
    structurally invalid graph, and re-running the Designer to rediscover
    the failure would forfeit most of the caching win.
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, _CacheEntry]" = OrderedDict()
        self._stats = CacheStats()

    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        with self._lock:
            return replace(self._stats)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    def get_or_design(
        self, key: Tuple, factory: Callable[[], List[DesignLeaf]]
    ) -> List[DesignLeaf]:
        """Return the cached leaves for ``key``, running ``factory`` at most
        once per key across all threads."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = _CacheEntry()
                self._entries[key] = entry
            else:
                self._entries.move_to_end(key)
        with entry.lock:
            if not entry.done:
                try:
                    entry.leaves = factory()
                except DesignError as exc:
                    entry.error = str(exc)
                except BaseException:
                    # Unexpected failure: drop the slot so later calls retry.
                    with self._lock:
                        if self._entries.get(key) is entry:
                            del self._entries[key]
                    raise
                entry.done = True
                with self._lock:
                    self._stats = replace(self._stats, misses=self._stats.misses + 1)
                    self._evict_locked()
            else:
                with self._lock:
                    self._stats = replace(self._stats, hits=self._stats.hits + 1)
        if entry.error is not None:
            raise DesignError(entry.error)
        assert entry.leaves is not None
        return entry.leaves

    def _evict_locked(self) -> None:
        """Drop least-recently-used *completed* entries beyond capacity."""
        evicted = 0
        for key in list(self._entries):
            if len(self._entries) <= self.max_entries:
                break
            if self._entries[key].done:
                del self._entries[key]
                evicted += 1
        if evicted:
            self._stats = replace(
                self._stats, evictions=self._stats.evictions + evicted
            )


class StageTimings:
    """Thread-safe accumulator of per-stage wall time.

    When caller threads share an engine, concurrent stage time adds up
    like CPU time.  Snapshots are plain dicts;
    :meth:`since` turns two snapshots into a per-search delta.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seconds: Dict[str, float] = {}

    def add(self, stage: str, seconds: float) -> None:
        with self._lock:
            self._seconds[stage] = self._seconds.get(stage, 0.0) + seconds

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._seconds)

    @staticmethod
    def since(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
        return {
            stage: after[stage] - before.get(stage, 0.0) for stage in sorted(after)
        }


class StagedEvaluator:
    """Two-phase candidate builds: cached design + per-candidate assembly,
    with leaf-level analysis reuse across the runtime grid and optional
    read-through persistence to a design store."""

    def __init__(
        self,
        builder: KernelBuilder,
        store: Optional[JournalStore] = None,
        arch: str = "",
    ) -> None:
        self.builder = builder
        #: content-addressed Designer-output cache
        self.cache = DesignCache()
        #: leaf-level plan-analysis cache: shares cost projections,
        #: functional y and verdicts across each design leaf's
        #: runtime-parameter grid.
        self.analysis = LeafAnalysisCache()
        #: persistent design store (``arch`` names the GPU the designs are
        #: stored under — designs here are arch-independent, but the store
        #: keys on it so a multi-arch deployment can never cross-serve).
        self.store = store
        self.arch = arch
        self.timings = StageTimings()
        #: memoized static-verifier fact sets, keyed by matrix content
        #: token — one O(nnz) pass per matrix per evaluator lifetime,
        #: shared by every search (and every workload; facts are
        #: workload-independent) this evaluator serves.
        self._facts: Dict[Tuple, "MatrixFacts"] = {}
        self._facts_lock = threading.Lock()

    def matrix_facts(self, matrix: SparseMatrix) -> "MatrixFacts":
        """The matrix's static-analysis facts, computed once per content."""
        from repro.staticcheck.facts import matrix_facts

        token = matrix_token(matrix)
        with self._facts_lock:
            facts = self._facts.get(token)
        if facts is None:
            facts = matrix_facts(matrix)
            with self._facts_lock:
                self._facts.setdefault(token, facts)
        return facts

    def _design(
        self,
        matrix: SparseMatrix,
        graph: OperatorGraph,
        token: Tuple,
        signature: Tuple,
    ) -> List[DesignLeaf]:
        """Design phase with store read-through and write-back.

        Store hits — successes *and* recorded :class:`DesignError`
        failures — replay without touching the Designer; misses run it and
        persist the outcome, so the next process warm-starts.
        """
        if self.store is None:
            return self.builder.design_phase(matrix, graph)
        outcome = self.store.get_design(token, signature, self.arch)
        if outcome is not None:
            status, value = outcome
            if status == "error":
                raise DesignError(value)
            return value
        try:
            leaves = self.builder.design_phase(matrix, graph)
        except DesignError as exc:
            self.store.put_design(token, signature, self.arch, error=str(exc))
            raise
        self.store.put_design(token, signature, self.arch, leaves=leaves)
        return leaves

    def design_leaves(
        self,
        matrix: SparseMatrix,
        graph: OperatorGraph,
        token: Tuple,
        signature: Tuple,
    ) -> List["DesignLeaf"]:
        """Design-phase leaves for ``(token, signature)``, cached + timed.

        The batched evaluator runs the design phase once per candidate
        *group* through this entry point (:meth:`build` folds the same
        lookup into each build).
        """
        t0 = time.perf_counter()
        try:
            return self.cache.get_or_design(
                (token, signature),
                lambda: self._design(matrix, graph, token, signature),
            )
        finally:
            self.timings.add("design", time.perf_counter() - t0)

    def build(
        self,
        matrix: SparseMatrix,
        graph: OperatorGraph,
        token: Optional[Tuple] = None,
    ) -> GeneratedProgram:
        """Build one candidate program, reusing cached design leaves.

        ``token`` is the precomputed :func:`matrix_token` — pass it when
        evaluating many candidates of one matrix to hash the triplets once
        per search instead of once per candidate.
        """
        token = token or matrix_token(matrix)
        signature = design_signature(graph)
        leaves = self.design_leaves(matrix, graph, token, signature)
        design = self.analysis.for_design((token, signature))
        t0 = time.perf_counter()
        program = self.builder.assembly_phase(
            matrix, graph, leaves, analysis=design
        )
        self.timings.add("assembly", time.perf_counter() - t0)
        return program

    def project(
        self,
        matrix: SparseMatrix,
        graph: OperatorGraph,
        gpu: GPUSpec,
        workload=None,
        token: Optional[Tuple] = None,
    ) -> float:
        """Cheap successive-halving rung: projected GFLOPS of a candidate.

        Builds the candidate (design + assembly, both cached) and runs
        *only* the analytic cost model over its plans — no functional
        execution and no numeric verification, which is where candidate
        evaluation spends its time.  The GFLOPS formula mirrors
        :meth:`GeneratedProgram.run` (kernels launch back-to-back), so a
        valid candidate's projection equals its measured score on this
        simulator.  Candidates that fail to build or whose plans don't
        validate project 0.0 — exactly the candidates a full measurement
        would score 0.  Projections warm the analysis cache, so the
        rung's cost-input work is reused when a survivor is measured.
        """
        t0 = time.perf_counter()
        try:
            program = self.build(matrix, graph, token=token)
            total = 0.0
            for unit in program.kernels:
                inputs = plan_cost_inputs(unit.plan, gpu, workload)
                total += CostModel(gpu).evaluate(inputs).total_s
        except (
            DesignError,
            BuildError,
            PlanValidationError,
            GraphValidationError,
        ):
            return 0.0
        finally:
            self.timings.add("project", time.perf_counter() - t0)
        if total <= 0:
            return 0.0
        wl_flops = (
            workload.flops(program.useful_nnz)
            if workload is not None
            else 2.0 * program.useful_nnz
        )
        return float(wl_flops / total / 1e9)
