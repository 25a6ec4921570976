"""Vectorized batch evaluation: candidates sharing a design as one pass.

This module is the one place a candidate is measured — by the search
engine's levels 2 and 3, its warm-start donor and the serving frontend's
neighbour transfers alike.  Most candidates of an ask batch differ only in
runtime scalars and share every cached quantity, so instead of building
and running each candidate on its own (re-applying its graph parameters,
re-walking the design cache, re-assembling a plan, replaying the
executor) a batch is measured array-at-a-time:

:func:`group_candidates`
    Splits one ask batch into *design groups* — candidates whose merged
    (lock-overlaid) parameters agree on every non-runtime key, i.e. exactly
    the candidates :func:`~repro.core.kernel.builder.design_signature`
    would collapse onto one design-cache entry — without building a single
    graph copy.  Groups remember each member's position in the submission
    batch, so results scatter back into submission order and histories stay
    byte-identical.

:class:`BatchEvaluator`
    Evaluates one group as a single pass: the design phase, the
    leaf-analysis lookup and the representative graph are produced once per
    group; per-candidate runtime assignments are grafted onto the
    representative graph's runtime nodes (no graph copies); kernel units
    and cost projections for the whole runtime grid are fetched through the
    batched :class:`~repro.gpu.analysis.LeafAnalysis` entry points (one
    lock trip per group instead of one per candidate); the functional
    result is read once per leaf and numeric verification runs once per
    design.  Scoring replicates
    :meth:`~repro.core.kernel.program.GeneratedProgram.run` float-for-float
    (same accumulation order, same error strings), so every result equals
    a plain uncached ``KernelBuilder.build`` + ``GeneratedProgram.run`` +
    ``Workload.allclose`` of the candidate — the golden-digest tests and
    the per-candidate differential oracle in the test suite pin that
    equivalence.

Stage accounting: group assembly lands in ``batch_assembly``, cost +
scoring in ``batch_cost``, and numeric verification stays under ``verify``
(the design-phase share stays under ``design``), so ``--profile`` keeps a
faithful breakdown.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.designer import DesignError
from repro.core.graph import GraphValidationError
from repro.core.kernel.builder import (
    BuildError,
    RUNTIME_PARAM_OPS,
    design_signature,
    runtime_nodes_for_leaf,
)
from repro.core.kernel.program import GeneratedProgram, KernelUnit
from repro.gpu.arch import GPUSpec
from repro.gpu.executor import (
    PlanValidationError,
    compute_cost_entry,
    cost_entry_key,
    functional_y_entry,
)
from repro.search.space import SampledStructure, graph_with_params
from repro.sparse.matrix import SparseMatrix
from repro.workloads import Workload

__all__ = [
    "CandidateGroup",
    "BatchEvaluator",
    "design_group_key",
    "group_candidates",
]

#: the exceptions one candidate's failure is allowed to surface as (each
#: is folded into a zero-score record).
EVAL_ERRORS = (DesignError, BuildError, PlanValidationError, GraphValidationError)


@dataclass
class CandidateGroup:
    """Candidates of one ask batch sharing a design signature."""

    #: positions in the submission batch (results scatter back by these)
    indices: List[int] = field(default_factory=list)
    assignments: List[Dict] = field(default_factory=list)


def design_group_key(
    merged: Dict, op_names: Sequence[str], keep_tpb: bool = False
) -> Tuple:
    """Merged parameters with runtime keys masked — the cheap stand-in for
    :func:`design_signature` over one proposal's assignments.

    ``keep_tpb`` retains ``threads_per_block`` entries (the one runtime
    scalar the static verifier reads), giving the static-pruning memo key.
    """
    items = []
    for key, value in merged.items():
        idx = key[0]
        if (
            0 <= idx < len(op_names)
            and op_names[idx] in RUNTIME_PARAM_OPS
            and not (keep_tpb and key[1] == "threads_per_block")
        ):
            continue
        items.append((key, value))
    items.sort(key=lambda item: item[0])
    return tuple(items)


def group_candidates(
    proposal: SampledStructure, assignments: Sequence[Dict]
) -> List[CandidateGroup]:
    """Group a structure's assignments by design identity.

    Two assignments land in one group exactly when their merged
    (lock-overlaid) parameters agree on every non-runtime key — the same
    masking rule as :func:`~repro.core.kernel.builder.design_signature`,
    computed without building graph copies.  Groups preserve
    first-occurrence order.
    """
    op_names = [node.op_name for node in proposal.graph.walk()]
    locks = proposal.locks
    groups: Dict[Tuple, CandidateGroup] = {}
    for position, assignment in enumerate(assignments):
        merged = dict(locks)
        merged.update(assignment)
        key = design_group_key(merged, op_names)
        group = groups.get(key)
        if group is None:
            groups[key] = group = CandidateGroup()
        group.indices.append(position)
        group.assignments.append(assignment)
    return list(groups.values())


def _sum_y(ys: Sequence[np.ndarray], shape) -> np.ndarray:
    """Per-kernel results accumulated exactly like ``GeneratedProgram.run``
    (zeros then ``+=`` in kernel order — bit-identical float behaviour)."""
    y = np.zeros(shape, dtype=np.float64)
    for arr in ys:
        y += arr
    return y


class BatchEvaluator:
    """Evaluates one design group of candidates as a single pass.

    Built by the engine from its staged evaluator, whose design and
    leaf-analysis caches it reads.  The group's representative graph is
    private to each ``evaluate_group`` call, so concurrent calls from
    caller threads sharing an engine do not race on it.
    """

    def __init__(self, evaluator, gpu: GPUSpec, workload: Workload) -> None:
        self.evaluator = evaluator
        self.builder = evaluator.builder
        self.gpu = gpu
        self.workload = workload

    # ------------------------------------------------------------------
    def evaluate_group(
        self,
        matrix: SparseMatrix,
        proposal: SampledStructure,
        assignments: Sequence[Dict],
        token: Tuple,
        x: np.ndarray,
        reference: np.ndarray,
        verify_key: str,
    ) -> List[Tuple[float, Optional[GeneratedProgram], str]]:
        """``(gflops, program, error)`` per candidate, in submission order.

        Equal, triple for triple, to building each candidate uncached and
        running it: the same error strings (cached failures replay their
        exact class and message), the same GFLOPS accumulation order; the
        numeric verdict is computed once per design.
        """
        evaluator = self.evaluator
        timings = evaluator.timings
        workload = self.workload
        gpu = self.gpu
        locks = proposal.locks
        assignments = list(assignments)
        n = len(assignments)

        # ---- design phase: once per group --------------------------------
        try:
            rep = graph_with_params(proposal.graph, assignments[0], locks)
            signature = design_signature(rep)
            key = (token, signature)
            leaves = evaluator.design_leaves(matrix, rep, token, signature)
        except EVAL_ERRORS as exc:
            error = f"{type(exc).__name__}: {exc}"
            return [(0.0, None, error)] * n
        design = evaluator.analysis.for_design(key)

        # ---- batch assembly: units for the whole runtime grid ------------
        t0 = time.perf_counter()
        proposal_walk = list(proposal.graph.walk())
        rep_walk = list(rep.walk())
        runtime_idx = [
            i
            for i, node in enumerate(rep_walk)
            if node.op_name in RUNTIME_PARAM_OPS
        ]
        leaf_nodes = [
            runtime_nodes_for_leaf(rep, leaf.branch_path) for leaf in leaves
        ]
        leaf_las = [design.leaf(i) for i in range(len(leaves))]

        mergeds = []
        for assignment in assignments:
            merged = dict(locks)
            merged.update(assignment)
            mergeds.append(merged)

        # Unit-cache keys per candidate per leaf: graft each candidate's
        # runtime parameters onto the (group-private) representative graph
        # instead of copying the whole graph per candidate.
        unit_keys: List[List[Tuple]] = []
        for merged in mergeds:
            for i in runtime_idx:
                params = dict(proposal_walk[i].params)
                for (idx, name), value in merged.items():
                    if idx == i:
                        params[name] = value
                rep_walk[i].params = params
            unit_keys.append(
                [self.builder.runtime_unit_key(nodes) for nodes in leaf_nodes]
            )

        unit_entries: List[List[Tuple]] = []
        for leaf, nodes, la in zip(leaves, leaf_nodes, leaf_las):

            def compute(key, leaf=leaf, nodes=nodes, la=la):
                # The key *is* the runtime parameterisation — restore it on
                # the branch-path nodes before assembling.
                for node, (_op, items) in zip(nodes, key):
                    node.params = dict(items)
                return self.builder.compute_unit_entry(leaf, nodes, la)

            keys = [unit_keys[c][len(unit_entries)] for c in range(n)]
            unit_entries.append(la.unit_batch(keys, compute))

        errors: List[Optional[str]] = [None] * n
        kernels_of: List[Optional[List[KernelUnit]]] = [None] * n
        for c in range(n):
            kernels: List[KernelUnit] = []
            error = None
            for li in range(len(leaves)):
                entry = unit_entries[li][c]
                if entry[0] == "error":
                    error = f"{entry[1].__name__}: {entry[2]}"
                    break
                kernels.append(entry[1])
            if error is None:
                conflict = design.cross_check(
                    lambda k=kernels: self.builder._cross_kernel_conflict(k)
                )
                if conflict is not None:
                    error = f"BuildError: {conflict}"
            errors[c] = error
            if error is None:
                kernels_of[c] = kernels
        timings.add("batch_assembly", time.perf_counter() - t0)

        # ---- batch cost + scoring ----------------------------------------
        t0 = time.perf_counter()
        verify_s = 0.0
        x64 = np.asarray(x, dtype=np.float64)

        # Cost projections for each leaf's whole distribution-digest batch
        # at once (plans are shared per distribution, so the distinct set
        # is tiny even for large groups).
        cost_maps: List[Dict[Tuple, Tuple]] = []
        for li, la in enumerate(leaf_las):
            plans: Dict[Tuple, object] = {}
            for c in range(n):
                if errors[c] is not None:
                    continue
                plan = kernels_of[c][li].plan
                plans.setdefault(cost_entry_key(plan, gpu, workload), plan)
            keys = list(plans)
            entries = la.cost_batch(
                keys,
                lambda key, plans=plans: compute_cost_entry(
                    plans[key], gpu, workload
                ),
            )
            cost_maps.append(dict(zip(keys, entries)))

        wl_flops = workload.flops(matrix.nnz)
        result_shape = workload.result_shape(matrix.n_rows, matrix.n_cols)
        y_entries: List[Optional[Tuple]] = [None] * len(leaves)
        results: List[Tuple[float, Optional[GeneratedProgram], str]] = []
        for c in range(n):
            if errors[c] is not None:
                results.append((0.0, None, errors[c]))
                continue
            kernels = kernels_of[c]
            total = 0.0
            ys: List[np.ndarray] = []
            error = None
            for li, unit in enumerate(kernels):
                entry = cost_maps[li][cost_entry_key(unit.plan, gpu, workload)]
                if entry[0] == "error":
                    error = f"PlanValidationError: {entry[1]}"
                    break
                total += entry[2].total_s
                y_entry = y_entries[li]
                if y_entry is None:
                    y_entry = functional_y_entry(unit.plan, x64, workload)
                    y_entries[li] = y_entry
                if y_entry[0] == "error":
                    error = f"PlanValidationError: {y_entry[1]}"
                    break
                ys.append(y_entry[1])
            if error is not None:
                results.append((0.0, None, error))
                continue
            gflops = wl_flops / total / 1e9 if total > 0 else 0.0
            program = GeneratedProgram(
                matrix_name=matrix.name,
                n_rows=matrix.n_rows,
                n_cols=matrix.n_cols,
                useful_nnz=matrix.nnz,
                kernels=kernels,
                analysis=design,
            )
            tv = time.perf_counter()
            ok = design.verdict(
                verify_key,
                lambda ys=ys: workload.allclose(
                    _sum_y(ys, result_shape), reference
                ),
            )
            verify_s += time.perf_counter() - tv
            if not ok:
                results.append((0.0, None, "numeric mismatch"))
                continue
            results.append((float(gflops), program, ""))
        timings.add("batch_cost", time.perf_counter() - t0 - verify_s)
        timings.add("verify", verify_s)
        return results
