"""Self-tests of the benchmark (not of the program it measures).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench import report, spans, suite  # noqa: E402
from repro.search.engine import EvalRecord  # noqa: E402
from repro.search.evaluation import matrix_token  # noqa: E402

TINY = 0.01


def _digests(matrices):
    return [matrix_token(m)[-1] for m in matrices]


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ---------------------------------------------------------------------------

def test_benchmark_json_declares_the_reported_metrics():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        report.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        report.PER_LAYER
    )
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


# ---------------------------------------------------------------------------
# Inputs are a function of the seed
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cls", [suite.SearchLarge, suite.ServeZipf])
def test_same_seed_same_matrices(cls, tmp_path):
    a = _digests(cls(3, str(tmp_path), scale=TINY).inputs())
    b = _digests(cls(3, str(tmp_path), scale=TINY).inputs())
    c = _digests(cls(4, str(tmp_path), scale=TINY).inputs())
    assert a == b
    assert a != c


def test_same_seed_same_corpus(tmp_path):
    a = [e.matrix for e in suite.Corpus(3, str(tmp_path), scale=TINY).inputs()]
    b = [e.matrix for e in suite.Corpus(3, str(tmp_path), scale=TINY).inputs()]
    c = [e.matrix for e in suite.Corpus(4, str(tmp_path), scale=TINY).inputs()]
    assert _digests(a) == _digests(b) != _digests(c)


def test_request_trace_has_a_fixed_zipf_mix(tmp_path):
    a = suite.ServeZipf(3, str(tmp_path)).schedule(100)
    assert a == suite.ServeZipf(3, str(tmp_path)).schedule(100)
    assert a == suite.ServeZipf(4, str(tmp_path)).schedule(100)
    assert a != sorted(a)
    counts = [a.count(rank) for rank in range(suite.ServeZipf.CATALOGUE)]
    assert min(counts) >= 1
    assert counts == sorted(counts, reverse=True)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_times_of_nested_spans():
    clock = _Clock()
    tracer = spans.Tracer(clock=clock)

    def leaf(dt):
        clock.now += dt

    def middle():
        clock.now += 1.0
        traced_leaf(2.0)
        traced_leaf(3.0)

    def root():
        clock.now += 0.5
        traced_middle()
        traced_leaf(4.0)

    traced_leaf = tracer.wrap(leaf, "leaf", "gpu")
    traced_middle = tracer.wrap(middle, "middle", "core")
    traced_root = tracer.wrap(root, "root", "search", root=True)
    traced_root()
    clock.now += 0.25  # outside any span
    traced_root()

    recorded = tracer.spans
    assert [s.name for s in recorded[:5]] == ["root", "middle", "leaf", "leaf", "leaf"]
    assert [s.trace_id for s in recorded] == [1] * 5 + [2] * 5
    own = spans.self_times(recorded)
    assert own[:5] == [0.5, 1.0, 2.0, 3.0, 4.0]
    layers = spans.layer_self_times(recorded)
    assert layers == {"search": 1.0, "core": 2.0, "gpu": 18.0}
    wall = clock.now
    assert spans.root_time(recorded) == pytest.approx(21.0)
    assert sum(own) + (wall - spans.root_time(recorded)) == pytest.approx(wall)
    table = spans.self_time_table(recorded, wall)
    assert any(line.startswith("(unattributed)") and "0.2500" in line for line in table)
    events = spans.chrome_trace(recorded)["traceEvents"]
    assert len(events) == 10
    assert events[1]["args"] == {"id": 1, "parent": "root"}
    assert events[2]["dur"] == pytest.approx(2e6)


def test_patches_resolve_and_restore():
    tracer = spans.Tracer()
    originals = [
        vars(owner)[attr]
        for owner, attr in (spans._resolve(p.target) for p in spans.LAYER_PATCHES)
    ]
    with tracer.patched():
        patched = [
            vars(owner)[attr]
            for owner, attr in (spans._resolve(p.target) for p in spans.LAYER_PATCHES)
        ]
        assert all(a is not b for a, b in zip(originals, patched))
    restored = [
        vars(owner)[attr]
        for owner, attr in (spans._resolve(p.target) for p in spans.LAYER_PATCHES)
    ]
    assert all(a is b for a, b in zip(originals, restored))


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------

def test_duplicates_and_evals_to_best():
    def rec(i, sig, gflops, valid=True):
        return EvalRecord(i, sig, {}, gflops, valid, "coarse")

    history = [
        rec(1, ("a",), 10.0),
        rec(2, ("a",), 10.0),  # same kernel again
        rec(3, ("b",), 10.0),  # same GFLOPS, other structure
        rec(4, ("a",), 0.0, valid=False),
        rec(5, ("b",), 12.0),
        rec(6, ("b",), 12.0),  # duplicate of the best
    ]
    result = SimpleNamespace(
        history=history,
        best_gflops=12.0,
        design_cache_hits=3,
        design_cache_misses=2,
        analysis_cache_hits=1,
        analysis_cache_misses=1,
        static_pruned=4,
    )
    summary = suite.summarize_search(result)
    assert (summary.evaluations, summary.valid, summary.duplicates) == (6, 5, 2)
    assert summary.evals_to_best == 5


def test_serve_figures_are_medians_over_trace_replays():
    replays = [(100, busy, [busy / 1e3] * 100) for busy in (3.0, 1.0, 2.0)]
    result = suite.PassResult(units=300, busy_s=6.0, replays=replays)
    e2e = report.end_to_end(result, [1.0])
    assert e2e["capacity_per_min"] == pytest.approx(60.0 * 100 / 2.0)
    assert e2e["latency_p50_ms"] == pytest.approx(2.0)
    assert e2e["latency_p90_ms"] == pytest.approx(2.0)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert report.percentile(values, 50) == 50
    assert report.percentile(values, 90) == 90
    assert sum(v > report.percentile(values, 90) for v in values) == 10


# ---------------------------------------------------------------------------
# Tiny end-to-end runs of every workload
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", list(suite.WORKLOADS))
def test_tiny_workload_runs_and_checks(name, tmp_path):
    workload = suite.WORKLOADS[name](1, str(tmp_path), scale=TINY)
    try:
        workload.setup()
        untraced = workload.run(rounds=1)
        tracer = spans.Tracer()
        with tracer.patched():
            traced = workload.run(rounds=untraced.rounds)
        assert workload.check(untraced) == 0
        assert workload.check(traced) == 0
    finally:
        workload.close()
    assert traced.units == untraced.units > 0
    assert traced.failed == 0
    assert traced.outputs
    e2e = report.end_to_end(traced, [1.0, 2.0, 3.0])
    assert list(e2e) == [name for name, _, _ in report.END_TO_END]
    assert e2e["setup_s"] == 2.0 and e2e["ok_frac"] == 1.0
    layers = report.per_layer(traced, tracer.spans, untraced)
    assert list(layers) == [name for name, _, _ in report.PER_LAYER]
    assert layers["trace.remainder_s"] >= 0.0
    if name == "serve-zipf":
        # the virtual-clock queue: nothing ends before its own service time
        assert len(traced.replays) == traced.rounds == 1
        assert all(lat >= svc for lat, svc in zip(traced.latencies_s, traced.service_s))
    assert tracer.spans and all(s.end >= s.start for s in tracer.spans)
    assert not list(tmp_path.iterdir())


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
