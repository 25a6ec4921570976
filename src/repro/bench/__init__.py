"""Corpus-scale evaluation pipeline (paper §VII, Figs 10-12).

The paper's headline numbers are corpus-level: geomean speedups over
PFS/cuSPARSE across hundreds of SuiteSparse matrices.  This package turns
the per-matrix building blocks (baseline measurement, the staged search
evaluator) into a corpus pipeline:

:class:`~repro.bench.runner.CorpusRunner`
    Drives baselines + design search per matrix over one shared
    :class:`~repro.search.engine.SearchEngine` (one design cache), caching
    each matrix's reference SpMV so it is computed once, not once per
    baseline.  Given a :class:`~repro.store.journal.JournalStore`, every
    finished matrix is stored as a ``bench`` entry, so interrupted runs
    resume instead of restarting and shards sharing one store add up.

:mod:`~repro.bench.aggregate`
    Renders the paper's corpus tables from a run's records: per-baseline
    geomean speedups, the Fig 10 histogram, §VII-G creativity-class
    counts.

CLI entry point: ``python -m repro bench <matrices...> [--store DIR]``.
"""

from repro.bench.runner import CorpusRunner, CorpusRunResult, CorpusRunStats
from repro.bench.aggregate import (
    baseline_speedups,
    creativity_counts,
    pfs_speedups,
    render_corpus_report,
)

__all__ = [
    "CorpusRunner",
    "CorpusRunResult",
    "CorpusRunStats",
    "baseline_speedups",
    "creativity_counts",
    "pfs_speedups",
    "render_corpus_report",
]
