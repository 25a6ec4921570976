"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``: it measures each layer by wrapping the
layer's public entry points for the duration of a traced pass and restoring
them afterwards.  A name is patched where callers look it up, so module
functions imported by name (``from x import f``) are patched on the
importing module.

Spans nest on one stack (every workload runs in one thread, ``jobs=1``).
A span's *self time* is its duration minus the durations of its direct
children; the self times of all spans add up to the summed duration of the
root spans, and the pass's wall time minus that sum is the unattributed
remainder (the benchmark's own loop, input copies, untraced helpers).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple


@dataclass
class Span:
    """One call of a wrapped entry point."""

    name: str
    layer: str
    start: float
    end: float
    #: index of the enclosing span in :attr:`Tracer.spans`, -1 for a root
    parent: int
    #: id of the enclosing search or serve request (0 outside any)
    trace_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Patch:
    """Wrap ``module:qualname`` as span ``name`` of ``layer``.

    ``qualname`` is ``Class.method`` or a module-level name.  ``root``
    marks an entry point that opens a new search or request id.
    """

    target: str
    layer: str
    root: bool = False

    @property
    def name(self) -> str:
        return self.target.split(":", 1)[1]


#: The layer entry points, named after the repository's modules.
#: ``analyze_design``, ``compute_cost_entry`` and ``functional_y_entry``
#: are module functions imported by name, so they are patched on the
#: modules that call them.
LAYER_PATCHES: Tuple[Patch, ...] = (
    Patch("repro.search.engine:SearchEngine.search", "search", root=True),
    Patch("repro.search.batcheval:BatchEvaluator.evaluate_group", "search"),
    Patch("repro.search.annealing:AnnealerSampler.begin", "search.sampler"),
    Patch("repro.search.annealing:AnnealerSampler.ask", "search.sampler"),
    Patch("repro.search.annealing:AnnealerSampler.tell", "search.sampler"),
    Patch("repro.search.mlmodel:GradientBoostedTrees.fit", "search.ml"),
    Patch("repro.search.mlmodel:GradientBoostedTrees.predict", "search.ml"),
    Patch("repro.search.engine:analyze_design", "staticcheck"),
    Patch("repro.search.evaluation:StagedEvaluator.matrix_facts", "staticcheck"),
    Patch("repro.core.designer:Designer.design", "core"),
    Patch("repro.core.kernel.builder:KernelBuilder.assembly_phase", "core.kernel"),
    Patch("repro.core.kernel.builder:KernelBuilder.build", "core.kernel"),
    Patch("repro.core.kernel.builder:KernelBuilder.compute_unit_entry", "core.kernel"),
    Patch("repro.gpu.analysis:LeafAnalysis.unit_batch", "gpu"),
    Patch("repro.gpu.analysis:LeafAnalysis.cost_batch", "gpu.cost"),
    Patch("repro.search.batcheval:compute_cost_entry", "gpu.cost"),
    Patch("repro.search.batcheval:functional_y_entry", "gpu.functional_y"),
    Patch("repro.core.kernel.program:execute", "gpu"),
    Patch("repro.bench.runner:measure_baselines", "baselines"),
    Patch("repro.bench.runner:CorpusRunner.run", "bench"),
    Patch("repro.store.journal:JournalStore.get_design", "store"),
    Patch("repro.store.journal:JournalStore.get_result", "store"),
    Patch("repro.store.journal:JournalStore.result_metas", "store"),
    Patch("repro.store.journal:JournalStore.result_payload", "store"),
    Patch("repro.store.journal:JournalStore.put_design", "store"),
    Patch("repro.store.journal:JournalStore.put_result", "store"),
    Patch("repro.serve.frontend:Frontend.resolve", "serve", root=True),
)


def _resolve(target: str) -> Tuple[object, str]:
    """``(owner, attribute)`` for a ``module:qualname`` target."""
    module_name, qualname = target.split(":", 1)
    owner: object = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise AttributeError(f"{target} is not defined on {owner!r}")
    return owner, attr


class Tracer:
    """In-memory span recorder; install with :meth:`patched`."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._ids = 0

    def wrap(self, fn: Callable, name: str, layer: str, root: bool = False) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            trace_id = tracer.spans[parent].trace_id if parent >= 0 else 0
            if root and trace_id == 0:
                tracer._ids += 1
                trace_id = tracer._ids
            span = Span(name, layer, tracer.clock(), 0.0, parent, trace_id)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = tracer.clock()
                stack.pop()

        return traced

    def patched(self, patches: Sequence[Patch] = LAYER_PATCHES) -> "_Installed":
        return _Installed(self, patches)


class _Installed:
    """Context manager that swaps the wrappers in and restores originals."""

    def __init__(self, tracer: Tracer, patches: Sequence[Patch]) -> None:
        self.tracer = tracer
        self.patches = patches
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        try:
            for patch in self.patches:
                owner, attr = _resolve(patch.target)
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(
                    owner,
                    attr,
                    self.tracer.wrap(original, patch.name, patch.layer, patch.root),
                )
        except BaseException:
            self._restore()
            raise
        return self.tracer

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Self-time accounting
# ---------------------------------------------------------------------------

def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus its direct children's durations."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def root_time(spans: Sequence[Span]) -> float:
    return sum(span.duration for span in spans if span.parent < 0)


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        out[span.layer] = out.get(span.layer, 0.0) + own
    return out


def self_time_table(spans: Sequence[Span], wall_s: float) -> List[str]:
    """Per-layer self times plus the unattributed remainder, as text."""
    layers = layer_self_times(spans)
    remainder = wall_s - root_time(spans)
    rows = sorted(layers.items(), key=lambda kv: -kv[1])
    rows.append(("(unattributed)", remainder))
    width = max(len(name) for name, _ in rows)
    lines = [f"{'layer':<{width}}  {'self_s':>9}  {'share':>6}"]
    for name, seconds in rows:
        share = seconds / wall_s if wall_s > 0 else 0.0
        lines.append(f"{name:<{width}}  {seconds:9.4f}  {share:6.1%}")
    lines.append(f"{'(wall)':<{width}}  {wall_s:9.4f}  {1.0:6.1%}")
    return lines


def chrome_trace(spans: Sequence[Span]) -> Dict:
    """Chrome trace-event JSON (complete events, microseconds)."""
    origin = min((s.start for s in spans), default=0.0)
    events = []
    for span in spans:
        events.append(
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {
                    "id": span.trace_id,
                    "parent": spans[span.parent].name if span.parent >= 0 else "",
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Sequence[Span], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(spans), fh)
