"""Record the leaf-analysis-cache speedup over the staged-runtime baseline.

Runs the standard-budget corpus searches (the BENCH_search_speed workload)
best-of-N, asserts every repeat's histories are byte-identical, and
writes the wall clock, the speedup against the *recorded* ``serial_cached``
baseline (``wall_s = 0.584`` in BENCH_search_speed.json before this
subsystem landed — the acceptance reference) and the cache/stage accounting to
``BENCH_plan_analysis.json`` at the repo root.

Runnable directly or through pytest (slow-marked)::

    PYTHONPATH=src python benchmarks/bench_plan_analysis.py
    PYTHONPATH=src python -m pytest benchmarks/bench_plan_analysis.py -m slow
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from datetime import datetime, timezone

import pytest

from repro.gpu import A100
from repro.search import SearchBudget, SearchEngine

from bench_search_speed import MATRICES  # the canonical 3-matrix workload

pytestmark = pytest.mark.slow

OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_plan_analysis.json")

#: serial_cached wall recorded in BENCH_search_speed.json before the
#: plan-analysis subsystem existed — the ISSUE 3 acceptance reference.
RECORDED_BASELINE_S = 0.584

def _calibration_wall(repeats: int = 3) -> float:
    """Best-of wall for a fixed interpreter-bound loop.

    The search workload is Python-call-heavy, so this probe tracks the
    machine conditions that matter for it (shared-vCPU contention shows up
    here long before it shows up in large vectorised kernels).  Recorded
    alongside the walls so cross-run comparisons on shared boxes can be
    judged against the conditions of each recording.
    """
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i
        best = min(best, time.perf_counter() - t0)
    return best

#: best-of count — high enough to ride out co-scheduled load spikes on
#: small machines (the workload itself is ~0.2 s per repeat).
REPEATS = 5


def _history_tuple(result):
    return [r.identity() for r in result.history]


def _run():
    """Best-of-REPEATS wall clock (fresh engine per repeat so every repeat
    pays the full cache build), asserting every repeat reproduces the
    first one's histories.  Matrices are built outside the timed window,
    matching the bench_search_speed protocol the recorded baseline was
    measured with."""
    best_wall = float("inf")
    results = None
    for _ in range(REPEATS):
        engine = SearchEngine(A100, budget=SearchBudget(), seed=0)
        t0 = time.perf_counter()
        with engine:
            out = engine.search_many(MATRICES)
        wall = time.perf_counter() - t0
        if results is not None:
            for got, want in zip(out, results):
                assert _history_tuple(got) == _history_tuple(want), (
                    f"history diverged between repeats on {want.matrix_name}"
                )
        if wall < best_wall:
            best_wall, results = wall, out
    return best_wall, results


def run_benchmark() -> dict:
    wall, analysed = _run()
    walls = {"serial_analysis": wall}
    print(f"     serial_analysis: {wall:6.3f}s")

    stage_totals: dict = {}
    for result in analysed:
        for stage, seconds in result.stage_times.items():
            stage_totals[stage] = stage_totals.get(stage, 0.0) + seconds
    record = {
        "recorded_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "budget": "SearchBudget() defaults",
        "matrices": [m.name for m in MATRICES],
        "repeats_best_of": REPEATS,
        "calibration_wall_s": round(_calibration_wall(), 4),
        "baseline_serial_cached_wall_s": RECORDED_BASELINE_S,
        "wall_s": {k: round(v, 3) for k, v in walls.items()},
        "speedup_vs_recorded_baseline": {
            k: round(RECORDED_BASELINE_S / v, 2) for k, v in walls.items()
        },
        "serial_speedup_vs_recorded_baseline": round(
            RECORDED_BASELINE_S / walls["serial_analysis"], 2
        ),
        "histories_byte_identical": True,
        "analysis_cache": {
            "hits": sum(r.analysis_cache_hits for r in analysed),
            "misses": sum(r.analysis_cache_misses for r in analysed),
        },
        "total_evaluations": sum(r.total_evaluations for r in analysed),
        "verifications_run": "once per design (see analysis_cache.misses)",
        "stage_seconds_serial": {k: round(v, 4) for k, v in sorted(stage_totals.items())},
    }
    return record


def test_plan_analysis_speedup():
    """Slow-marked check: the serial search beats the recorded
    pre-analysis baseline, with byte-identical histories.

    The >=3x acceptance figure against the recorded 0.584 s baseline is
    machine-dependent, so it is recorded in BENCH_plan_analysis.json; the
    asserted 1.25x leaves room for a machine about 3x slower than the
    recording one (4.1x there).
    """
    record = run_benchmark()
    assert record["serial_speedup_vs_recorded_baseline"] >= 1.25
    assert record["histories_byte_identical"]


def main() -> int:
    record = run_benchmark()
    with open(OUT_PATH, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"plan-analysis baseline written to {os.path.abspath(OUT_PATH)}")
    print(f"serial speedup vs recorded 0.584s baseline: "
          f"{record['serial_speedup_vs_recorded_baseline']}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
