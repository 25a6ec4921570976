"""Per-candidate differential oracle for the batched evaluator.

:func:`evaluate_candidates` is a drop-in substitute for
:meth:`repro.search.batcheval.BatchEvaluator.evaluate_group` that measures
every assignment the plain way: one uncached ``KernelBuilder.build``, one
``GeneratedProgram.run`` and one ``Workload.allclose`` per candidate — no
design cache, no leaf analysis, no grouping, no store.  It returns the
same ``(gflops, program, error)`` triples with the same error strings, so
a search whose engine is routed through it (:func:`use_oracle`) must
reproduce the batched search's history candidate for candidate.
"""

from __future__ import annotations

import functools

from repro.core.designer import DesignError
from repro.core.graph import GraphValidationError
from repro.core.kernel.builder import BuildError, KernelBuilder
from repro.core.optimizer import ModelDrivenCompressor
from repro.gpu.executor import PlanValidationError
from repro.search.space import graph_with_params

#: the failures a candidate may score zero with (anything else is a bug)
CANDIDATE_ERRORS = (
    DesignError,
    BuildError,
    PlanValidationError,
    GraphValidationError,
)


def evaluate_candidates(
    gpu, workload, matrix, proposal, assignments, token, x, reference, verify_key
):
    """``(gflops, program, error)`` per assignment, each built and run on
    its own.  ``token`` and ``verify_key`` are accepted for signature
    compatibility with ``evaluate_group`` and ignored: nothing is cached."""
    results = []
    for assignment in assignments:
        try:
            graph = graph_with_params(proposal.graph, assignment, proposal.locks)
            program = KernelBuilder(
                compressor=ModelDrivenCompressor(), workload=workload
            ).build(matrix, graph)
            result = program.run(x, gpu, workload=workload)
        except CANDIDATE_ERRORS as exc:
            results.append((0.0, None, f"{type(exc).__name__}: {exc}"))
            continue
        if not workload.allclose(result.y, reference):
            results.append((0.0, None, "numeric mismatch"))
            continue
        results.append((float(result.gflops), program, ""))
    return results


def use_oracle(engine):
    """Route every candidate ``engine`` measures through the oracle."""
    engine.batch.evaluate_group = functools.partial(
        evaluate_candidates, engine.gpu, engine.workload
    )
    return engine
