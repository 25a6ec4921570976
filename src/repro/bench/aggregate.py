"""Corpus-level aggregation: the paper's §VII tables from corpus records.

All aggregation works on the plain-JSON records the
:class:`~repro.bench.runner.CorpusRunner` returns and stores, so the same
tables render from a live run or from a run resumed out of a store.

Inapplicable and incorrect baselines report 0 GFLOPS; they are *filtered*
here (per-baseline matrix counts make the filtering visible) rather than
turned into ``inf`` speedups — :func:`repro.analysis.metrics.speedup`
refuses non-positive denominators and the aggregators refuse non-finite
inputs, so a leak is a loud error instead of a corrupted geomean.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.metrics import geomean, speedup, speedup_histogram
from repro.analysis.reporting import render_table
from repro.baselines.base import measurement_ok

__all__ = [
    "baseline_speedups",
    "pfs_speedups",
    "creativity_counts",
    "record_workload",
    "render_corpus_report",
]


def _searched(records: Sequence[Dict]) -> List[Dict]:
    """Records whose search produced a valid winner (the only ones a
    speedup can be computed for)."""
    return [r for r in records if r["search"]["best_gflops"] > 0]


def baseline_speedups(records: Sequence[Dict]) -> Dict[str, List[float]]:
    """Per-baseline speedups of the machine-designed SpMV, usable
    measurements only (baseline applicable, correct, and > 0 GFLOPS)."""
    out: Dict[str, List[float]] = {}
    for record in _searched(records):
        best = record["search"]["best_gflops"]
        for name, meas in record["baselines"].items():
            out.setdefault(name, [])
            if measurement_ok(meas):
                out[name].append(speedup(best, meas["gflops"]))
    return out


def pfs_speedups(records: Sequence[Dict]) -> List[float]:
    """Speedup over the Perfect Format Selector per matrix (Fig 10's x
    axis), skipping matrices where search or every PFS member failed."""
    out: List[float] = []
    for record in _searched(records):
        pfs = record.get("pfs")
        if pfs and pfs["gflops"] > 0:
            out.append(speedup(record["search"]["best_gflops"], pfs["gflops"]))
    return out


def creativity_counts(records: Sequence[Dict]) -> Dict[str, int]:
    """§VII-G class counts over the winning designs."""
    counts = {
        "machine-designed": 0,
        "parameter-novel": 0,  # source structure, non-shipped parameters
        "structure-novel": 0,
        "source-format": 0,
        "branching": 0,
    }
    for record in records:
        creativity = record.get("creativity")
        if not creativity:
            continue
        if creativity["machine_designed"]:
            counts["machine-designed"] += 1
            if creativity["structure_novel"]:
                counts["structure-novel"] += 1
            else:
                counts["parameter-novel"] += 1
        else:
            counts["source-format"] += 1
        if creativity["branching"]:
            counts["branching"] += 1
    return counts


def record_workload(record: Dict) -> str:
    """Workload a corpus record was measured under (absent key == the
    default spmv, matching the runner's record convention)."""
    return record.get("workload", "spmv")


def render_corpus_report(
    records: Sequence[Dict], title: str = "Corpus evaluation"
) -> str:
    """The corpus summary the ``bench`` command prints: per-baseline
    geomean speedups, the Fig 10 histogram over PFS, creativity classes.

    Records carry their workload; the header and the speedup table name it
    when any non-default workload is present (spmv-only reports render
    their exact historical text).
    """
    if not records:
        raise ValueError("no records to report")
    searched = _searched(records)
    skipped = len(records) - len(searched)
    workloads = sorted({record_workload(r) for r in records})
    kernel_label = (
        "SpMV" if workloads == ["spmv"] else " / ".join(workloads)
    )

    sections: List[str] = []
    per_baseline = baseline_speedups(records)
    ranked = sorted(
        per_baseline.items(),
        key=lambda item: geomean(item[1]) if item[1] else float("-inf"),
        reverse=True,
    )
    rows: List[List[object]] = [
        [
            name,
            f"{len(values)}/{len(searched)}",
            f"{geomean(values):.3f}x" if values else "n/a",
        ]
        for name, values in ranked
    ]
    header = f"{title} — {len(records)} matrices"
    if skipped:
        header += f" ({skipped} without a valid search winner, excluded)"
    sections.append(render_table(
        header
        + f"\nGeomean speedup of the machine-designed {kernel_label} "
        "per baseline",
        ["baseline", "usable", "geomean speedup"],
        rows,
    ))

    vs_pfs = pfs_speedups(records)
    if vs_pfs:
        hist = speedup_histogram(vs_pfs)
        sections.append(render_table(
            "Fig 10: speedup over PFS — frequency distribution "
            f"(geomean {geomean(vs_pfs):.3f}x over {len(vs_pfs)} matrices)",
            ["speedup bin", "% of matrices"],
            [[label, f"{pct:.1f}"] for label, pct in hist],
        ))

    counts = creativity_counts(records)
    sections.append(render_table(
        "Creativity of winning designs (paper SecVII-G)",
        ["class", "matrices"],
        [[name, count] for name, count in counts.items()],
    ))
    return "\n\n".join(sections)
