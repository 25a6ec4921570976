"""Record serving throughput and latency, with and without injected faults.

Drives the supervised resolver pool (``repro.serve.pool``) over a
journal store through four scenarios —

* ``cold``         — no faults, empty store; every request is a fresh
                     search (search-tier latency)
* ``clean``        — no faults; mixed exact-hit / neighbour / search load
* ``faulted``      — the same load at a 20% worker-kill rate plus slow
                     store reads (the S-curve the reliability layer exists
                     for)
* ``degraded``     — every request capped below the store tiers, forcing
                     the explicit DEGRADED answer path
* ``frontend``     — the in-process frontend on the same load (the
                     no-pool reference point)

— and writes per-tier latency percentiles (p50/p99), throughput and the
supervision counters to ``BENCH_serve.json`` at the repo root.  Every
scenario must answer 100% of its requests; the script fails otherwise.

    PYTHONPATH=src python benchmarks/bench_serve.py

``--check`` mode (the CI chaos gate) runs only the faulted smoke: a small
request set against a 20% worker-kill rate, asserting the pool answers
every request and every answer is usable.  It never touches the committed
JSON:

    PYTHONPATH=src python benchmarks/bench_serve.py --check
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from datetime import datetime, timezone

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.gpu.arch import gpu_by_name
from repro.reliability.faults import FaultPlan
from repro.search.engine import SearchBudget
from repro.serve import Frontend, ResolverPool, TIER_EXACT
from repro.sparse import banded_matrix, power_law_matrix, random_uniform_matrix
from repro.store import open_store

OUT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_serve.json")

GPU = gpu_by_name("A100")
#: serving budget: small enough that a fresh search answers in well under
#: a second on the simulated GPU, so percentiles measure the serving
#: machinery rather than search depth
BUDGET = SearchBudget(
    max_structures=3, coarse_evals_per_structure=2, max_total_evals=8, ml_top_k=2
)
WORKERS = 2
DEADLINE_S = 20.0
KILL_RATE = 0.2


def _request_set(n: int = 12, seed: int = 0):
    """Mixed-generator request load; deterministic for a seed."""
    mats = []
    for i in range(n):
        kind = i % 3
        if kind == 0:
            mats.append(banded_matrix(24 + 4 * i, bandwidth=2, seed=seed + i,
                                      name=f"band{i}"))
        elif kind == 1:
            mats.append(random_uniform_matrix(24 + 4 * i, avg_degree=4,
                                              seed=seed + i, name=f"rand{i}"))
        else:
            mats.append(power_law_matrix(24 + 4 * i, avg_degree=3,
                                         seed=seed + i, name=f"pow{i}"))
    return mats


def _percentile(values, q: float):
    if not values:
        return None
    ordered = sorted(values)
    idx = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[idx]


def _latency_summary(responses):
    """Per-tier request counts and p50/p99 wall times (milliseconds)."""
    by_tier = {}
    for response in responses:
        by_tier.setdefault(response.source, []).append(
            response.wall_time_s * 1e3
        )
    return {
        tier: {
            "requests": len(lat),
            "p50_ms": round(_percentile(lat, 0.50), 3),
            "p99_ms": round(_percentile(lat, 0.99), 3),
        }
        for tier, lat in sorted(by_tier.items())
    }


def _prime_store(store_path: str, matrices) -> None:
    """Persist results for ``matrices`` so they serve as exact hits (and
    as neighbour donors for the rest of the request set)."""
    store = open_store(store_path)
    with Frontend(GPU, store, budget=BUDGET) as frontend:
        frontend.resolve_batch(matrices)
    store.gc()  # clear the priming run's search claims


def _run_pool(store_path, matrices, faults=None, max_tier=None):
    kwargs = {} if max_tier is None else {"max_tier": max_tier}
    with ResolverPool(
        GPU,
        store_path,
        workers=WORKERS,
        budget=BUDGET,
        deadline_s=DEADLINE_S,
        faults=faults,
    ) as pool:
        start = time.perf_counter()
        responses = pool.resolve_batch(matrices, **kwargs)
        wall = time.perf_counter() - start
        stats = pool.stats()
    return responses, wall, stats


def _scenario_record(name, responses, wall, stats=None):
    answered = sum(1 for r in responses if r is not None)
    record = {
        "requests": len(responses),
        "answered": answered,
        "answered_pct": round(100.0 * answered / len(responses), 1),
        "ok": sum(1 for r in responses if r.ok),
        "wall_s": round(wall, 3),
        "throughput_rps": round(len(responses) / wall, 1),
        "tiers": _latency_summary(responses),
    }
    if stats is not None:
        record["supervision"] = {
            "redispatched": stats.redispatched,
            "restarts": stats.restarts,
            "deadline_kills": stats.deadline_kills,
            "degraded": stats.degraded,
            "parent_fallbacks": stats.parent_fallbacks,
            "claims_lost": stats.claims_lost,
        }
    print(f"{name:>9}: {answered}/{len(responses)} answered in {wall:5.2f}s "
          f"({record['throughput_rps']} req/s)  tiers="
          + ", ".join(f"{t}:{d['requests']}" for t, d in record["tiers"].items()))
    return record


def check() -> int:
    """CI chaos gate: 100% of a small request set answered, usably, at a
    20% worker-kill rate."""
    matrices = _request_set(6, seed=3)
    plan = FaultPlan(seed=17, worker_kill_rate=KILL_RATE)
    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "store")
        _prime_store(store_path, matrices[:3])
        responses, wall, stats = _run_pool(store_path, matrices, faults=plan)
    failures = []
    if len(responses) != len(matrices):
        failures.append(
            f"answered {len(responses)}/{len(matrices)} requests"
        )
    for matrix, response in zip(matrices, responses):
        if not response.ok:
            failures.append(f"{matrix.name}: un-ok answer ({response.source})")
        elif response.source != "degraded" and (
            response.graph is None or response.gflops <= 0
        ):
            failures.append(
                f"{matrix.name}: unusable {response.source} answer"
            )
        elif response.source == "degraded" and not response.note:
            failures.append(f"{matrix.name}: degraded answer without a note")
    print(f"chaos check: {len(responses)}/{len(matrices)} answered under "
          f"{KILL_RATE:.0%} worker-kill in {wall:.2f}s "
          f"(restarts={stats.restarts}, redispatched={stats.redispatched}, "
          f"degraded={stats.degraded})")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="run only the chaos smoke (no JSON output)")
    args = parser.parse_args()
    if args.check:
        return check()

    matrices = _request_set(12, seed=0)
    primed = matrices[:6]  # exact hits; the rest resolve neighbour/search
    scenarios = {}
    workdir = tempfile.mkdtemp(prefix="bench_serve_")
    try:
        base_store = os.path.join(workdir, "primed")
        _prime_store(base_store, primed)

        def fresh_copy(name):
            path = os.path.join(workdir, name)
            shutil.copytree(base_store, path)
            return path

        responses, wall, stats = _run_pool(
            os.path.join(workdir, "cold"), matrices
        )
        scenarios["cold"] = _scenario_record("cold", responses, wall, stats)

        responses, wall, stats = _run_pool(fresh_copy("clean"), matrices)
        scenarios["clean"] = _scenario_record("clean", responses, wall, stats)

        plan = FaultPlan(seed=17, worker_kill_rate=KILL_RATE,
                         slow_store_rate=0.1, slow_store_s=0.02)
        responses, wall, stats = _run_pool(
            fresh_copy("faulted"), matrices, faults=plan
        )
        scenarios["faulted"] = _scenario_record(
            "faulted", responses, wall, stats
        )

        # degraded mode: nothing above the exact tier is allowed, and only
        # half the requests have stored answers — the rest must come back
        # as explicit DEGRADED responses, 100% answered
        responses, wall, stats = _run_pool(
            fresh_copy("degraded"), matrices, max_tier=TIER_EXACT
        )
        scenarios["degraded"] = _scenario_record(
            "degraded", responses, wall, stats
        )

        frontend_store = open_store(fresh_copy("frontend"))
        with Frontend(GPU, frontend_store, budget=BUDGET) as frontend:
            start = time.perf_counter()
            responses = frontend.resolve_batch(matrices)
            wall = time.perf_counter() - start
        scenarios["frontend"] = _scenario_record("frontend", responses, wall)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    incomplete = [
        name for name, record in scenarios.items()
        if record["answered"] != record["requests"]
    ]
    if incomplete:
        print(f"FAIL: scenarios did not answer 100%: {', '.join(incomplete)}")
        return 1

    record = {
        "recorded_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "gpu": GPU.name,
        "workers": WORKERS,
        "deadline_s": DEADLINE_S,
        "budget_evals": BUDGET.max_total_evals,
        "requests": len(matrices),
        "primed": len(primed),
        "kill_rate": KILL_RATE,
        "scenarios": scenarios,
    }
    with open(OUT_PATH, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.normpath(OUT_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
