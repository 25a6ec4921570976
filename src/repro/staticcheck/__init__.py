"""Static design verifier: prove (in)validity without running anything.

Three passes over a design, none of which executes the Designer, the
builder or the simulated GPU:

1. :func:`analyze_design` — abstract interpretation of the reduction
   chain against :func:`matrix_facts`, yielding a sound three-valued
   :class:`Verdict` with ``REDUCE-CHAIN-*`` diagnostics (the codes the
   dynamic validators raise under, see :mod:`repro.errors`).  The search
   engine uses the ``INVALID`` direction as pre-eval pruning.
2. :func:`lint_kernel` — a lint over generated CUDA-style kernel source:
   undeclared identifiers, scatter stores that need atomics, suspicious
   index arithmetic, dead declarations, accumulator dtype mismatches.
3. :func:`audit_store` — replay of both passes over persisted
   :class:`~repro.store.journal.JournalStore` entries, catching stale or
   corrupt artifacts (``python -m repro check --store``).
"""

from repro.staticcheck.audit import audit_store
from repro.staticcheck.diagnostics import ChainReport, Diagnostic, Severity, Verdict
from repro.staticcheck.facts import MatrixFacts, matrix_facts
from repro.staticcheck.lint import lint_kernel
from repro.staticcheck.reduction import analyze_design

__all__ = [
    "ChainReport",
    "Diagnostic",
    "Severity",
    "Verdict",
    "MatrixFacts",
    "matrix_facts",
    "analyze_design",
    "lint_kernel",
    "audit_store",
]
