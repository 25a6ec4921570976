"""Metric definitions and their computation from passes and spans.

The names, units and directions here are the ones ``BENCHMARK.json``
declares; ``tests/test_perfbench.py`` keeps the two in step.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.spans import Span, layer_self_times, root_time, self_times
from perfbench.suite import PassResult

#: (name, unit, better) of the end-to-end metrics, reported by every
#: workload with tracing off.  A "unit" of work is one search
#: (search-large), one corpus matrix (corpus) or one request (serve-zipf).
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("capacity_per_min", "1/min", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("best_gflops_geomean", "GFLOPS", "higher"),
    ("ok_frac", "fraction", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of the per-layer metrics, from the traced pass.
#: Seconds are self times over that pass; "count" metrics are exact.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("core.design_s", "s", "lower"),
    ("core.designer_runs", "count", "lower"),
    ("core.kernel.assembly_s", "s", "lower"),
    ("gpu.cost_s", "s", "lower"),
    ("gpu.functional_y_s", "s", "lower"),
    ("gpu.self_s", "s", "lower"),
    ("gpu.analysis_hit_rate", "fraction", "higher"),
    ("search.evaluations", "count", "lower"),
    ("search.valid_fraction", "fraction", "higher"),
    ("search.duplicate_eval_fraction", "fraction", "lower"),
    ("search.evals_to_best", "count", "lower"),
    ("search.design_cache_hit_rate", "fraction", "higher"),
    ("search.sampler_s", "s", "lower"),
    ("search.ml_s", "s", "lower"),
    ("search.self_s", "s", "lower"),
    ("staticcheck.pruned", "count", "higher"),
    ("staticcheck.s", "s", "lower"),
    ("baselines.s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("bench.speedup_vs_pfs_geomean", "ratio", "higher"),
    ("store.get_s", "s", "lower"),
    ("store.put_design_s", "s", "lower"),
    ("store.put_result_s", "s", "lower"),
    ("store.writes", "count", "lower"),
    ("store.bytes", "bytes", "lower"),
    ("serve.self_s", "s", "lower"),
    ("serve.exact_ms_p50", "ms", "lower"),
    ("serve.neighbour_ms_p50", "ms", "lower"),
    ("serve.tier_exact", "count", "higher"),
    ("serve.tier_neighbour", "count", "lower"),
    ("serve.tier_search", "count", "lower"),
    ("serve.tier_degraded", "count", "lower"),
    ("loadgen.late_max_s", "s", "lower"),
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.remainder_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

#: per-workload names of the shared end-to-end metrics, printed beside them
ALIASES = {
    "search-large": {"capacity_per_min": "searches_per_min"},
    "corpus": {"capacity_per_min": "matrices_per_min"},
    "serve-zipf": {
        "latency_p50_ms": "serve_p50_ms",
        "latency_p90_ms": "serve_p90_ms",
    },
}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: with 100 samples, p90 has 10 beyond it."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return float(np.exp(np.mean(np.log(values))))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median_over_replays(result: PassResult, figure) -> float:
    """``figure(units, busy_s, latencies)`` of the whole pass, or its
    median over the pass's trace replays (serve)."""
    replays = result.replays or [(result.units, result.busy_s, result.latencies_s)]
    return statistics.median(figure(*replay) for replay in replays)


def end_to_end(result: PassResult, setup_times: Sequence[float]) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "capacity_per_min": _median_over_replays(
            result, lambda units, busy, _: 60.0 * units / busy
        ),
        "latency_p50_ms": _median_over_replays(
            result, lambda _, __, latencies: 1e3 * percentile(latencies, 50)
        ),
        "latency_p90_ms": _median_over_replays(
            result, lambda _, __, latencies: 1e3 * percentile(latencies, 90)
        ),
        "best_gflops_geomean": geomean(result.gflops),
        "ok_frac": 1.0 - result.failed / result.units,
        "peak_rss_mb": peak_rss_mb(),
    }


def extra_figures(workload: str, result: PassResult) -> Dict[str, float]:
    """Per-workload figures that only some workloads define (printed, not
    part of the JSON line)."""
    out = {"failed_frac": result.failed / result.units}
    if workload == "corpus":
        out["speedup_vs_pfs_geomean"] = geomean(result.speedups)
    if workload == "serve-zipf":
        out["serve_capacity_rps"] = _median_over_replays(
            result, lambda units, busy, _: units / busy
        )
        out["trace_replays"] = result.rounds
        out["loadgen_late_max_s"] = result.late_max_s
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    result: PassResult, spans: Sequence[Span], untraced: PassResult
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass; ``untraced`` is the same
    rounds run without spans."""
    layers = layer_self_times(spans)
    by_name: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    inclusive: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        by_name[span.name] = by_name.get(span.name, 0.0) + own
        calls[span.name] = calls.get(span.name, 0) + 1
        inclusive[span.name] = inclusive.get(span.name, 0.0) + span.duration

    s = result.searches
    total = lambda attr: sum(getattr(x, attr) for x in s)  # noqa: E731
    tiers = result.tiers

    def tier_p50_ms(tier: str) -> float:
        times = [t for t, src in zip(result.service_s, tiers) if src == tier]
        return 1e3 * percentile(times, 50)

    return {
        "core.design_s": layers.get("core", 0.0),
        "core.designer_runs": calls.get("Designer.design", 0),
        "core.kernel.assembly_s": layers.get("core.kernel", 0.0),
        "gpu.cost_s": layers.get("gpu.cost", 0.0),
        "gpu.functional_y_s": layers.get("gpu.functional_y", 0.0),
        "gpu.self_s": layers.get("gpu", 0.0),
        "gpu.analysis_hit_rate": _ratio(
            total("analysis_cache_hits"),
            total("analysis_cache_hits") + total("analysis_cache_misses"),
        ),
        "search.evaluations": total("evaluations"),
        "search.valid_fraction": _ratio(total("valid"), total("evaluations")),
        "search.duplicate_eval_fraction": _ratio(total("duplicates"), total("valid")),
        "search.evals_to_best": total("evals_to_best"),
        "search.design_cache_hit_rate": _ratio(
            total("design_cache_hits"),
            total("design_cache_hits") + total("design_cache_misses"),
        ),
        "search.sampler_s": layers.get("search.sampler", 0.0),
        "search.ml_s": layers.get("search.ml", 0.0),
        "search.self_s": layers.get("search", 0.0),
        "staticcheck.pruned": total("static_pruned"),
        "staticcheck.s": layers.get("staticcheck", 0.0),
        # inclusive: the kernels a baseline builds are part of its cost
        "baselines.s": inclusive.get("measure_baselines", 0.0),
        "bench.self_s": layers.get("bench", 0.0),
        "bench.speedup_vs_pfs_geomean": geomean(result.speedups),
        "store.get_s": sum(
            by_name.get(f"JournalStore.{n}", 0.0)
            for n in ("get_design", "get_result", "result_metas", "result_payload")
        ),
        "store.put_design_s": by_name.get("JournalStore.put_design", 0.0),
        "store.put_result_s": by_name.get("JournalStore.put_result", 0.0),
        "store.writes": calls.get("JournalStore.put_design", 0)
        + calls.get("JournalStore.put_result", 0),
        "store.bytes": result.store_bytes,
        "serve.self_s": layers.get("serve", 0.0),
        "serve.exact_ms_p50": tier_p50_ms("store"),
        "serve.neighbour_ms_p50": tier_p50_ms("neighbour"),
        "serve.tier_exact": tiers.count("store"),
        "serve.tier_neighbour": tiers.count("neighbour"),
        "serve.tier_search": tiers.count("search"),
        "serve.tier_degraded": tiers.count("degraded"),
        "loadgen.late_max_s": result.late_max_s,
        "trace.overhead_frac": result.busy_s / untraced.busy_s - 1.0,
        "trace.remainder_s": result.busy_s - root_time(spans),
    }


def fingerprint(root: str) -> Dict[str, str]:
    """Where the numbers were measured."""
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": str(os.cpu_count()),
        "cpu": cpu,
        "commit": _git_commit(root) or "unknown",
    }


def _git_commit(root: str) -> Optional[str]:
    """HEAD's commit read from ``.git`` (no subprocess; None outside git)."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def metric_lines(values: Dict[str, float], aliases: Optional[Dict[str, str]] = None) -> List[str]:
    aliases = aliases or {}
    lines = []
    for name, value in values.items():
        label = name if name not in aliases else f"{name} ({aliases[name]})"
        lines.append(f"  {label:<44} {value:>14.6g} {UNITS.get(name, '')}")
    return lines
