"""The three-level Search Engine (paper §VI-A).

Level 1 proposes graph structures (:class:`~repro.search.space.StructureSampler`),
level 2 measures each structure's coarse parameter grid by *running the
generated programs* on the simulated GPU, and level 3 fits a gradient-
boosted-tree cost model to the measurements and interpolates the fine grid,
re-measuring only the model's top picks.  Simulated annealing governs early
termination of the first two levels; every invalid candidate (dependency
violation, semantic reduction failure, wrong numeric result) scores zero and
is recorded, mirroring how the real system discards non-compiling kernels.

Every candidate is measured by one path,
:meth:`~repro.search.batcheval.BatchEvaluator.evaluate_group`: a
structure's parameter assignments are grouped by design identity, design
leaves are computed once per structure signature and reused across the
whole runtime-parameter grid (the staged evaluator of
:mod:`repro.search.evaluation`), and the groups are evaluated in order, one
after another.  Serve-tier neighbour transfers go through the same call.
The engine holds no per-search mutable state — schedules and RNGs are
created per :meth:`SearchEngine.search` call — so one engine (one cache)
can drive many searches, including the collection-level
:meth:`SearchEngine.search_many` driver used by the CLI and the benchmark
harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type, Union

import numpy as np

from repro.core.graph import GraphValidationError, OperatorGraph
from repro.core.kernel.builder import KernelBuilder
from repro.core.kernel.program import GeneratedProgram
from repro.core.optimizer import ModelDrivenCompressor
from repro.gpu.arch import GPUSpec
from repro.gpu.analysis import content_digest
from repro.search.annealing import AnnealerSampler, AnnealingSchedule
from repro.search.batcheval import (
    BatchEvaluator,
    design_group_key,
    group_candidates,
)
from repro.search.evaluation import (
    StagedEvaluator,
    StageTimings,
    matrix_token,
)
from repro.search.mlmodel import GradientBoostedTrees, mean_absolute_deviation
from repro.store.journal import JournalStore
from repro.store.errors import StoreError
from repro.store.records import feature_vector, nearest_result_digest
from repro.search.pruning import (
    PruningRules,
    SuccessiveHalvingPruner,
    default_rules,
)
from repro.search.samplers import (
    DEFAULT_SAMPLER_NAME,
    Sampler,
    SearchSpace,
    TPESampler,
)
from repro.search.space import (
    SampledStructure,
    enumerate_param_grid,
    features_for,
    graph_with_params,
    param_slots,
)
from repro.sparse.matrix import SparseMatrix
from repro.staticcheck.diagnostics import Verdict
from repro.staticcheck.facts import MatrixFacts
from repro.staticcheck.reduction import analyze_design
from repro.workloads import DEFAULT_WORKLOAD, WORKLOADS, Workload, get_workload

__all__ = [
    "SearchBudget",
    "EvalRecord",
    "SearchResult",
    "SearchEngine",
    "get_sampler",
    "sampler_names",
]

#: ``--sampler`` name -> sampler class (see :mod:`repro.search.samplers`).
_SAMPLERS: Dict[str, Type[Sampler]] = {
    AnnealerSampler.name: AnnealerSampler,
    TPESampler.name: TPESampler,
}


def sampler_names() -> List[str]:
    return sorted(_SAMPLERS)


def get_sampler(name: Union[str, Type[Sampler], None]) -> Type[Sampler]:
    """Resolve a sampler class by name (idempotent on classes).

    Unknown names raise a :class:`ValueError` listing the samplers, so a
    CLI typo reads as guidance rather than a KeyError.
    """
    if name is None:
        return _SAMPLERS[DEFAULT_SAMPLER_NAME]
    if isinstance(name, type) and issubclass(name, Sampler):
        return name
    try:
        return _SAMPLERS[name]
    except KeyError:
        raise ValueError(
            f"unknown sampler {name!r}; samplers: "
            + ", ".join(sampler_names())
        ) from None


@dataclass(frozen=True)
class SearchBudget:
    """Iteration/time budgets.

    The paper caps searches at 8 hours of kernel runs; here the analogous
    hard caps are evaluation counts (each evaluation builds and runs one
    generated program).  ``max_total_evals`` bounds coarse *and* fine
    evaluations together.  With ``time_limit_s`` set the evaluation count
    at the deadline depends on wall clock (the limit is checked before
    each design group), so time-limited histories are not reproducible;
    count-budgeted searches are.

    ``ml_min_samples`` defaults to the size of the coarse runtime grid
    (``SET_RESOURCES``: 3 thread counts x 2 work grains) — the sample
    count a structure's stratified coarse batch produces, so the fine
    level stays reachable under the default budget.
    """

    max_structures: int = 24
    coarse_evals_per_structure: int = 10
    max_total_evals: int = 320
    ml_top_k: int = 5
    ml_fine_cap: int = 256
    ml_min_samples: int = 6
    time_limit_s: Optional[float] = None


@dataclass
class EvalRecord:
    """One measured candidate (levels 2 or 3)."""

    iteration: int
    structure_sig: Tuple
    assignment: Dict
    gflops: float
    valid: bool
    level: str  # "coarse" | "fine"
    error: str = ""

    def identity(self) -> Tuple:
        """Hashable form of every result-bearing field — the byte-identity
        contract the cache/store identity tests and benchmarks compare on."""
        return (
            self.iteration,
            self.structure_sig,
            tuple(sorted(map(str, self.assignment.items()))),
            self.gflops,
            self.valid,
            self.level,
            self.error,
        )


@dataclass
class SearchResult:
    """Output of one AlphaSparse search."""

    matrix_name: str
    gpu_name: str
    best_gflops: float
    best_graph: Optional[OperatorGraph]
    best_program: Optional[GeneratedProgram]
    history: List[EvalRecord]
    coarse_iterations: int
    total_evaluations: int
    structures_tried: int
    banned_operators: Set[str]
    ml_mad: Optional[float]
    wall_time_s: float
    #: staged-runtime accounting (per search): Designer executions and the
    #: design-cache hit/miss counters that verify cached design reuse.
    designer_runs: int = 0
    design_cache_hits: int = 0
    design_cache_misses: int = 0
    #: leaf-analysis cache counters (design-level lookups) and the
    #: per-stage wall-time breakdown (design / batch_assembly /
    #: batch_cost / verify / ml, plus assembly / project for the
    #: successive-halving rung) accumulated by the staged evaluator.
    analysis_cache_hits: int = 0
    analysis_cache_misses: int = 0
    stage_times: Dict[str, float] = field(default_factory=dict)
    #: persistent design-store counters (design-level lookups during this
    #: search): hits are designs hydrated from disk instead of designed.
    store_hits: int = 0
    store_misses: int = 0
    #: name of the workload this search tuned for, plus its dense-column
    #: count (kept directly so results of unregistered custom workloads
    #: still price themselves).
    workload: str = "spmv"
    workload_k: int = 1
    #: candidates the static verifier refuted before any evaluation was
    #: spent on them (see :mod:`repro.staticcheck`); they consume no
    #: entry in ``history`` and no slot of ``max_total_evals``.
    static_pruned: int = 0
    #: name of the sampler that drove this search (``"annealer"`` is the
    #: legacy default).
    sampler: str = DEFAULT_SAMPLER_NAME
    #: candidates dropped by successive-halving eval pruning: they lost a
    #: cheap cost-projection rung to a fully-measured valid winner, so no
    #: full measurement (and no ``history`` entry) was spent on them.
    #: Always 0 for the default annealer (it predates pruning and stays
    #: byte-identical).
    sampler_pruned: int = 0
    #: donor candidates injected from the warm-start store and measured
    #: before the ask/tell loop (0 when warm starts are off or no donor
    #: qualified); they do occupy history slots, so warm-started
    #: trajectories are intentionally not byte-comparable to cold runs.
    warm_start_hits: int = 0

    @property
    def best_time_s(self) -> float:
        if self.best_gflops <= 0:
            return float("inf")
        if self.best_program is None:
            return 0.0
        nnz = self.best_program.useful_nnz
        wl = WORKLOADS.get(self.workload)
        # Registered workloads own their flop formula; for a custom
        # unregistered one fall back to the generic FMA count the base
        # Workload.flops defines, from the recorded column count.
        flops = wl.flops(nnz) if wl is not None else (2.0 * nnz) * self.workload_k
        return flops / (self.best_gflops * 1e9)

    @property
    def design_cache_hit_rate(self) -> float:
        lookups = self.design_cache_hits + self.design_cache_misses
        return self.design_cache_hits / lookups if lookups else 0.0


@dataclass
class _SearchState:
    """Per-search mutable state (never stored on the engine)."""

    start: float
    budget: SearchBudget
    token: Tuple
    x: np.ndarray
    reference: np.ndarray
    #: content key of (x, reference) under which design-level numeric
    #: verdicts are cached — computed once per search.
    verify_key: str = ""
    history: List[EvalRecord] = field(default_factory=list)
    evals: int = 0
    best_gflops: float = 0.0
    best_graph: Optional[OperatorGraph] = None
    best_program: Optional[GeneratedProgram] = None
    #: matrix facts backing static pre-eval pruning (None = pruning off).
    facts: Optional[MatrixFacts] = None
    static_pruned: int = 0
    sampler_pruned: int = 0
    #: static-verifier verdicts memoized per (structure signature, params
    #: with grid_threads masked) — the verifier reads threads_per_block
    #: but never grid_threads, so candidates differing only in work grain
    #: share one verdict.
    static_memo: Dict[Tuple, bool] = field(default_factory=dict)

    def time_up(self) -> bool:
        return (
            self.budget.time_limit_s is not None
            and time.perf_counter() - self.start > self.budget.time_limit_s
        )

    def out_of_budget(self) -> bool:
        return self.evals >= self.budget.max_total_evals or self.time_up()


class SearchEngine:
    """Drives AlphaSparse: enumerate, measure, interpolate, stop.

    Safe to reuse (sharing one design cache) across many searches; see
    :meth:`search_many`.
    """

    def __init__(
        self,
        gpu: GPUSpec,
        budget: Optional[SearchBudget] = None,
        pruning: Optional[PruningRules] = None,
        enable_pruning: bool = True,
        annealing: Optional[AnnealingSchedule] = None,
        seed: int = 0,
        enable_extensions: bool = False,
        enable_seeding: bool = True,
        enable_static_pruning: bool = True,
        store: Optional[JournalStore] = None,
        workload: Optional[Workload] = None,
        sampler: Optional[object] = None,
        sampler_seed: Optional[int] = None,
        warm_start_store: Optional[JournalStore] = None,
    ) -> None:
        self.gpu = gpu
        self.budget = budget or SearchBudget()
        #: the operation every candidate is built, run and verified for
        #: (one engine = one workload; caches/stores are keyed so that
        #: engines of different workloads sharing a store never cross).
        self.workload = (
            get_workload(workload) if workload is not None else DEFAULT_WORKLOAD
        )
        self.pruning = pruning if pruning is not None else default_rules()
        self.enable_pruning = enable_pruning
        #: template only — cloned per search so the engine stays stateless
        self.annealing = annealing or AnnealingSchedule()
        self.seed = seed
        #: opt in to the paper's future-work operators (SecVII-H HYB
        #: decomposition); off by default to mirror the paper's prototype
        self.enable_extensions = enable_extensions
        #: visit the source-format archetypes before random structures
        #: (ablatable design choice; see benchmarks/test_abl_seeding.py)
        self.enable_seeding = enable_seeding
        #: refute candidates with the static verifier before spending an
        #: evaluation on them (sound: only designs whose reduction chain
        #: provably cannot validate are skipped).  Also lets the sampler
        #: shape its chain menu to the workload.  Off reproduces the
        #: pre-verifier search histories byte for byte.
        self.enable_static_pruning = enable_static_pruning
        #: candidate sampler driving the ask/tell loop (name or class; see
        #: :mod:`repro.search.samplers`).  The default annealer reproduces
        #: the legacy engine behaviour byte for byte.
        self.sampler_cls = get_sampler(sampler)
        #: seed of the TPE sampler's private RNG; None derives it from
        #: the per-search seed (the annealer draws from the engine RNG
        #: regardless, so this only affects tpe).
        self.sampler_seed = sampler_seed
        #: successive-halving eval pruning for samplers that opt in
        #: (``Sampler.prunes``); losing candidates are dropped after a
        #: cheap cost-projection rung and counted in
        #: ``SearchResult.sampler_pruned``.
        self.sh_pruner = SuccessiveHalvingPruner()
        self.builder = KernelBuilder(
            compressor=ModelDrivenCompressor(), workload=self.workload
        )
        #: persistent design store (None = purely in-memory caching):
        #: searches read stored designs through the cache and write every
        #: Designer outcome back, so a later *process* warm-starts.
        self.store = store
        self.evaluator = StagedEvaluator(self.builder, store=store, arch=gpu.name)
        #: the one candidate-measuring path: candidates sharing a design
        #: signature evaluate as one vectorized pass (see
        #: :mod:`repro.search.batcheval`).
        self.batch = BatchEvaluator(self.evaluator, gpu, self.workload)
        #: store consulted for cross-matrix warm starts (None = off): each
        #: search seeds itself from the closest prior winner's graph,
        #: injected as an iteration-0 candidate before the ask/tell loop.
        self.warm_start_store = warm_start_store

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Free the leaf-analysis memos."""
        self.evaluator.analysis.clear()

    def __enter__(self) -> "SearchEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def search_many(
        self,
        matrices: Iterable[SparseMatrix],
        seeds: Optional[Sequence[int]] = None,
    ) -> List[SearchResult]:
        """Collection-level driver: search every matrix with this engine.

        All searches share the engine's design cache —
        the way the benchmark harness reproduces whole paper figures.
        ``seeds`` optionally overrides the engine seed per matrix.
        """
        matrices = list(matrices)
        if seeds is not None and len(seeds) != len(matrices):
            raise ValueError("seeds must match matrices in length")
        return [
            self.search(m, seed=None if seeds is None else seeds[i])
            for i, m in enumerate(matrices)
        ]

    # ------------------------------------------------------------------
    def search(
        self, matrix: SparseMatrix, seed: Optional[int] = None
    ) -> SearchResult:
        start = time.perf_counter()
        rng = np.random.default_rng(self.seed if seed is None else seed)
        cache_before = self.evaluator.cache.stats()
        analysis_before = self.evaluator.analysis.stats()
        timings_before = self.evaluator.timings.snapshot()
        store_before = self.store.stats() if self.store is not None else None
        designer_before = self.builder.designer.executions
        banned = (
            self.pruning.ban_list(matrix.stats) if self.enable_pruning else set()
        )
        space = SearchSpace(
            banned=frozenset(banned),
            extensions=self.enable_extensions,
            seeding=self.enable_seeding,
            budget=self.budget,
            shaping_workload=(
                self.workload if self.enable_static_pruning else None
            ),
            annealing_termination=self.enable_pruning,
            annealing_template=self.annealing,
        )
        sampler: Sampler = self.sampler_cls()
        # The annealer draws its structure-sampler seed from ``rng`` inside
        # begin() — the first draw of the legacy engine loop, preserved.
        sampler.begin(
            space,
            rng,
            seed=(
                self.sampler_seed
                if self.sampler_seed is not None
                else (self.seed if seed is None else seed)
            ),
        )
        prune = sampler.prunes

        x = self.workload.make_operand(matrix)
        reference = self.workload.reference(matrix, x)
        state = _SearchState(
            start=start,
            budget=self.budget,
            token=self.workload.scope_token(matrix_token(matrix)),
            x=x,
            reference=reference,
            verify_key=content_digest(x, reference),
            facts=(
                self.evaluator.matrix_facts(matrix)
                if self.enable_static_pruning
                else None
            ),
        )

        structure_store: Dict[Tuple, SampledStructure] = {}
        structures_tried = 0

        # ---------------- Level 0: cross-matrix warm start ----------------
        # Seed the search with the store's closest prior winner: the donor
        # graph is a full candidate (structure + parameters), measured as
        # an iteration-0 batch so the sampler's ask/tell loop sees it in
        # history and every later candidate must beat it.
        warm_start_hits = 0
        if self.warm_start_store is not None and not state.out_of_budget():
            donor = self._warm_start_proposal(matrix)
            if donor is not None:
                if donor.signature not in structure_store:
                    structure_store[donor.signature] = donor
                    structures_tried += 1
                records = self._measure_batch(
                    matrix, donor, [{}], state, level="coarse"
                )
                warm_start_hits = len(records)

        # ---------------- Levels 1 + 2: the ask/tell loop ----------------
        # The sampler owns *which* candidates to try (structures and
        # parameter assignments); the engine owns budgets, static pruning,
        # measurement and history recording.
        while not state.out_of_budget():
            batch = sampler.ask(state.history)
            if batch is None:
                break  # sampler done (terminated, exhausted, or converged)
            if batch.proposal.signature not in structure_store:
                structure_store[batch.proposal.signature] = batch.proposal
                structures_tried += 1
            records = self._measure_batch(
                matrix,
                batch.proposal,
                batch.assignments,
                state,
                level=batch.level,
                prune=prune,
            )
            sampler.tell(batch, records)

        coarse_iterations = state.evals

        # ---------------- Level 3: ML interpolation ----------------
        ml_mad: Optional[float] = None
        if (
            sampler.uses_ml_level
            and state.best_graph is not None
            and not state.out_of_budget()
        ):
            ml_mad = self._ml_level(matrix, state, structure_store, rng)

        designer_runs = self.builder.designer.executions - designer_before
        cache_delta = self.evaluator.cache.stats().since(cache_before)
        analysis_delta = self.evaluator.analysis.stats().since(analysis_before)
        stage_times = StageTimings.since(
            timings_before, self.evaluator.timings.snapshot()
        )
        store_delta = (
            self.store.stats().since(store_before)
            if store_before is not None
            else None
        )
        return SearchResult(
            matrix_name=matrix.name,
            gpu_name=self.gpu.name,
            best_gflops=state.best_gflops,
            best_graph=state.best_graph,
            best_program=state.best_program,
            history=state.history,
            coarse_iterations=coarse_iterations,
            total_evaluations=len(state.history),
            structures_tried=structures_tried,
            banned_operators=banned,
            ml_mad=ml_mad,
            wall_time_s=time.perf_counter() - start,
            designer_runs=designer_runs,
            design_cache_hits=cache_delta.hits,
            design_cache_misses=cache_delta.misses,
            analysis_cache_hits=analysis_delta.hits,
            analysis_cache_misses=analysis_delta.misses,
            stage_times=stage_times,
            store_hits=store_delta.design_hits if store_delta else 0,
            store_misses=store_delta.design_misses if store_delta else 0,
            workload=self.workload.name,
            workload_k=self.workload.k,
            static_pruned=state.static_pruned,
            sampler=self.sampler_cls.name,
            sampler_pruned=state.sampler_pruned,
            warm_start_hits=warm_start_hits,
        )

    # ------------------------------------------------------------------
    def _measure_batch(
        self,
        matrix: SparseMatrix,
        proposal: SampledStructure,
        assignments: Sequence[Dict],
        state: _SearchState,
        level: str,
        prune: bool = False,
    ) -> List[EvalRecord]:
        """Evaluate a structure's parameter assignments as one batch.

        With static pruning on, assignments whose reduction chain the
        verifier refutes for this matrix+workload are dropped before
        anything else — they consume no evaluation slot and leave no
        history record, only the ``static_pruned`` counter.

        With ``prune`` set (the TPE sampler), survivors of a cheap
        successive-halving cost-projection tournament are fully measured
        first and the losers are skipped entirely once a valid winner
        exists (``sampler_pruned``); otherwise every candidate is
        measured.  Returns the new history records, in submission order.
        """
        candidates = list(assignments)
        if state.facts is not None:
            # Verdicts are memoized per runtime-masked key (grid_threads
            # only — the verifier reads threads_per_block), so a
            # structure's whole work-grain axis shares one analyze_design
            # pass.
            kept = []
            op_names = [node.op_name for node in proposal.graph.walk()]
            for assignment in candidates:
                merged = dict(proposal.locks)
                merged.update(assignment)
                memo_key = (
                    proposal.signature,
                    design_group_key(merged, op_names, keep_tpb=True),
                )
                invalid = state.static_memo.get(memo_key)
                if invalid is None:
                    graph = graph_with_params(
                        proposal.graph, assignment, proposal.locks
                    )
                    report = analyze_design(graph, self.workload, state.facts)
                    invalid = report.verdict is Verdict.INVALID
                    state.static_memo[memo_key] = invalid
                if invalid:
                    state.static_pruned += 1
                else:
                    kept.append(assignment)
            candidates = kept
        if prune and len(candidates) > self.sh_pruner.min_survivors:
            return self._measure_pruned(matrix, proposal, candidates, state, level)
        return self._measure_list(matrix, proposal, candidates, state, level)

    # ------------------------------------------------------------------
    def _measure_pruned(
        self,
        matrix: SparseMatrix,
        proposal: SampledStructure,
        candidates: List[Dict],
        state: _SearchState,
        level: str,
    ) -> List[EvalRecord]:
        """Successive-halving measurement (see
        :class:`~repro.search.pruning.SuccessiveHalvingPruner`).

        Every candidate runs the cheap rung — the analytic cost projection
        of :meth:`StagedEvaluator.project`, no functional execution or
        verification — and the halving tournament on projected scores
        groups candidates into waves: the final-rung survivors first, then
        the per-rung eliminated groups in descending projection order.
        Wave 0 is fully measured; later waves run only while no valid
        measurement exists (projection failures and invalid designs score
        0, so an all-invalid survivor wave falls through to the next
        group).  Once a wave yields a valid winner, the remaining waves
        are dropped and counted in ``sampler_pruned`` — lossless on this
        simulator, where a valid candidate's measured GFLOPS equals its
        projection, so no pruned candidate could have beaten the winner.
        """
        scores = []
        for assignment in candidates:
            graph = graph_with_params(proposal.graph, assignment, proposal.locks)
            scores.append(
                self.evaluator.project(
                    matrix, graph, self.gpu, self.workload, token=state.token
                )
            )
        waves = self.sh_pruner.waves(scores)
        records: List[EvalRecord] = []
        for index, wave in enumerate(waves):
            if index > 0 and any(r.valid and r.gflops > 0 for r in records):
                state.sampler_pruned += sum(len(w) for w in waves[index:])
                break
            if state.out_of_budget():
                break
            records.extend(
                self._measure_list(
                    matrix,
                    proposal,
                    [candidates[i] for i in wave],
                    state,
                    level,
                )
            )
        return records

    # ------------------------------------------------------------------
    def _measure_list(
        self,
        matrix: SparseMatrix,
        proposal: SampledStructure,
        candidates: Sequence[Dict],
        state: _SearchState,
        level: str,
    ) -> List[EvalRecord]:
        """Fully measure candidates as one ordered batch.

        The batch is truncated to the remaining evaluation budget up front
        (so ``max_total_evals`` holds) and results fold into the search
        state in submission order.

        Candidates sharing a design signature are grouped and each group
        evaluates as one vectorized pass.  The time limit is checked
        before each group, so a search stops at a group boundary.  Results
        scatter back into submission order; groups cut off by the time
        limit leave holes, which only occurs where reproducibility is
        already waived.
        """
        room = self.budget.max_total_evals - state.evals
        batch = list(candidates)[: max(0, room)]
        results = [None] * len(batch)
        for group in group_candidates(proposal, batch):
            if state.time_up():
                break
            outs = self.batch.evaluate_group(
                matrix,
                proposal,
                group.assignments,
                state.token,
                state.x,
                state.reference,
                state.verify_key,
            )
            for position, out in zip(group.indices, outs):
                results[position] = out

        records: List[EvalRecord] = []
        for assignment, result in zip(batch, results):
            if result is None:
                continue
            gflops, program, error = result
            state.evals += 1
            record = EvalRecord(
                iteration=state.evals,
                structure_sig=proposal.signature,
                assignment=dict(assignment),
                gflops=gflops,
                valid=error == "",
                level=level,
                error=error,
            )
            state.history.append(record)
            records.append(record)
            if gflops > state.best_gflops:
                state.best_gflops = gflops
                state.best_graph = graph_with_params(
                    proposal.graph, assignment, proposal.locks
                )
                state.best_program = program
        return records

    # ------------------------------------------------------------------
    def _warm_start_proposal(
        self, matrix: SparseMatrix
    ) -> Optional[SampledStructure]:
        """The warm-start store's closest prior winner, as a proposal.

        Donor ranking is the serving frontend's tier-2 rule
        (:func:`~repro.store.records.nearest_result_digest`): graph-bearing
        results of the same workload, excluding this matrix itself, ranked
        by feature-signature distance.  The donor graph carries its tuned
        parameters, so it is proposed with empty locks and a single empty
        assignment.  Any decode failure means no warm start, never an
        error — the search proceeds cold.
        """
        store = self.warm_start_store
        try:
            metas = store.result_metas(self.gpu.name)
        except StoreError:
            return None
        if not metas:
            return None
        digest = nearest_result_digest(
            metas,
            feature_vector(matrix),
            workload=self.workload.name,
            exclude_digest=matrix_token(matrix)[-1],
        )
        if digest is None:
            return None
        payload = store.result_payload(digest)
        if payload is None or not payload.get("graph"):
            return None
        try:
            graph = OperatorGraph.from_dict(payload["graph"])
        except (KeyError, TypeError, ValueError, GraphValidationError):
            return None
        return SampledStructure(graph=graph, locks={})

    # ------------------------------------------------------------------
    def _ml_level(
        self,
        matrix: SparseMatrix,
        state: _SearchState,
        structure_store: Dict[Tuple, SampledStructure],
        rng: np.random.Generator,
    ) -> Optional[float]:
        """Fit the GBT model per best structure, probe the fine grid.

        Fine evaluations continue the global iteration numbering and draw
        from the same ``max_total_evals`` budget as the coarse level.
        """
        valid = [r for r in state.history if r.valid and r.level == "coarse"]
        if not valid:
            return None
        # Best structure by measured coarse performance.
        best_by_structure: Dict[Tuple, float] = {}
        for rec in valid:
            best_by_structure[rec.structure_sig] = max(
                best_by_structure.get(rec.structure_sig, 0.0), rec.gflops
            )
        ranked = sorted(best_by_structure, key=best_by_structure.get, reverse=True)

        mad: Optional[float] = None
        for sig in ranked[:2]:
            if state.out_of_budget():
                break
            proposal = structure_store[sig]
            slots = param_slots(proposal.graph, proposal.locks)
            if not slots:
                continue
            samples = [r for r in valid if r.structure_sig == sig]
            if len(samples) < self.budget.ml_min_samples:
                continue
            t0 = time.perf_counter()
            X = np.stack(
                [features_for(slots, self._key_assign(r.assignment)) for r in samples]
            )
            y = np.array([r.gflops for r in samples])
            model = GradientBoostedTrees().fit(X, y)
            mad = mean_absolute_deviation(y, model.predict(X))
            self.evaluator.timings.add("ml", time.perf_counter() - t0)

            fine = enumerate_param_grid(
                proposal.graph,
                proposal.locks,
                level="fine",
                cap=self.budget.ml_fine_cap,
                rng=rng,
            )
            measured = {
                tuple(sorted(self._key_assign(r.assignment).items()))
                for r in samples
            }
            fine = [
                a
                for a in fine
                if tuple(sorted(a.items())) not in measured
            ]
            if not fine:
                continue
            t0 = time.perf_counter()
            Xf = np.stack([features_for(slots, a) for a in fine])
            pred = model.predict(Xf)
            self.evaluator.timings.add("ml", time.perf_counter() - t0)
            # Stable sort: tied predictions resolve to enumeration order,
            # which lists design-relevant combinations in contiguous blocks
            # — tied fine probes then share design leaves with one another
            # (and with the coarse level) through the design cache.
            top = np.argsort(-pred, kind="stable")[: self.budget.ml_top_k]
            self._measure_batch(
                matrix,
                proposal,
                [fine[int(idx)] for idx in top],
                state,
                level="fine",
            )
        return mad

    @staticmethod
    def _key_assign(assignment: Dict) -> Dict:
        """History assignments may have been JSON-ified; normalise keys."""
        out = {}
        for key, value in assignment.items():
            if isinstance(key, list):
                key = tuple(key)
            out[key] = value
        return out
