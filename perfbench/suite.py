"""The benchmark's workloads: inputs from a seed, timed passes, output checks.

Each workload is one way AlphaSparse is used, driven through the public
API in one process with ``jobs=1``:

``search-large``
    ``repro search``: one fresh ``SearchEngine(A100, SearchBudget())`` per
    matrix over five generated matrices of 10^5-7*10^5 non-zeros (banded,
    FEM-like, power-law, LP short/long rows, outlier rows).  Nearly all the
    work is in the Designer/operators, the kernel builder and the
    simulated GPU; the power-law matrix drives peak memory.
``corpus``
    ``repro bench``: ``CorpusRunner`` over a 16-matrix prefix of
    ``repro.sparse.corpus`` with all 14 baselines, the Perfect Format
    Selector and the search, and no store.  The only workload where
    baselines and the GBT fine level carry real weight.
``serve-zipf``
    ``repro serve``: a journal store primed with the 8 most popular of a
    24-matrix catalogue, then an open-loop, evenly spaced trace of
    Zipf-skewed requests, replayed from a fresh copy of the primed store
    as often as the time allows.  Exact hits (store reads) set the median
    and first-time neighbour transfers (journal write-backs) set the tail.

A pass runs until its time is up (or for a fixed number of rounds, so a
traced pass can repeat an untraced one exactly) and returns a
:class:`PassResult`; :meth:`check` re-verifies every winning program and
every served artifact afterwards, outside the timed region.
"""

from __future__ import annotations

import gc
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.bench.runner import CorpusRunner
from repro.core.graph import OperatorGraph
from repro.core.kernel.builder import build_program
from repro.gpu.arch import A100
from repro.gpu.executor import execute
from repro.search import SearchBudget, SearchEngine
from repro.search.engine import SearchResult
from repro.serve import Frontend
from repro.sparse import generators as gen
from repro.sparse.collection import CorpusEntry, corpus
from repro.sparse.matrix import SparseMatrix
from repro.store import open_store
from repro.workloads import DEFAULT_WORKLOAD

GPU = A100
clock = time.perf_counter


# ---------------------------------------------------------------------------
# Per-search accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchSummary:
    """The counters one search reports, kept instead of the (large) result."""

    evaluations: int
    valid: int
    duplicates: int
    evals_to_best: int
    design_cache_hits: int
    design_cache_misses: int
    analysis_cache_hits: int
    analysis_cache_misses: int
    static_pruned: int


def summarize_search(result: SearchResult) -> SearchSummary:
    """Counters of one search, including the search-efficiency ones.

    A *duplicate* is a valid evaluation whose structure signature and
    bit-identical GFLOPS repeat an earlier valid evaluation of the same
    search: the same physical kernel measured again.  *Evals to best* is
    the 1-based position of the first evaluation reaching the best GFLOPS.
    """
    seen = set()
    valid = duplicates = 0
    evals_to_best = 0
    for position, record in enumerate(result.history, start=1):
        if not record.valid:
            continue
        valid += 1
        key = (record.structure_sig, record.gflops)
        if key in seen:
            duplicates += 1
        seen.add(key)
        if not evals_to_best and record.gflops == result.best_gflops:
            evals_to_best = position
    return SearchSummary(
        evaluations=len(result.history),
        valid=valid,
        duplicates=duplicates,
        evals_to_best=evals_to_best,
        design_cache_hits=result.design_cache_hits,
        design_cache_misses=result.design_cache_misses,
        analysis_cache_hits=result.analysis_cache_hits,
        analysis_cache_misses=result.analysis_cache_misses,
        static_pruned=result.static_pruned,
    )


@dataclass
class PassResult:
    """What one pass did, measured from outside the program."""

    #: searches, corpus matrices or serve requests attempted
    units: int = 0
    #: searches without a valid design, matrices without a search winner
    #: or PFS choice, and ``miss``/``degraded`` serve answers
    failed: int = 0
    #: cycles (search-large), corpus passes (corpus) or trace replays (serve)
    rounds: int = 0
    wall_s: float = 0.0
    #: time inside the timed calls: excludes in-pass output checks and,
    #: on serve, copying the primed store for each replay
    busy_s: float = 0.0
    #: per-unit latency: search wall, corpus matrix wall, or serve
    #: request completion minus its due time
    latencies_s: List[float] = field(default_factory=list)
    #: serve only: (requests, busy seconds, latencies) of each trace
    #: replay; the end-to-end figures are medians over the replays
    replays: List[Tuple[int, float, List[float]]] = field(default_factory=list)
    #: one GFLOPS figure per distinct input (winner or served answer)
    gflops: List[float] = field(default_factory=list)
    #: per-matrix speedups of the search winner over PFS (corpus only)
    speedups: List[float] = field(default_factory=list)
    searches: List[SearchSummary] = field(default_factory=list)
    #: serve only: answering tier and service time of every request
    tiers: List[str] = field(default_factory=list)
    service_s: List[float] = field(default_factory=list)
    late_max_s: float = 0.0
    store_bytes: int = 0
    #: (matrix, graph, gflops, artifact or None) for :meth:`check`, one
    #: per distinct answer
    outputs: List[Tuple] = field(default_factory=list)
    #: wrong outputs seen during the pass: a returned program that does
    #: not reproduce the reference, or rounds that disagree
    mismatches: int = 0


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def program_ok(matrix: SparseMatrix, program) -> bool:
    """Whether a returned program reproduces ``workload.reference``.

    Sums its kernels' results as ``GeneratedProgram.run`` does, but through
    this module's own reference to ``execute``, so a check made inside a
    traced pass records no span."""
    workload = DEFAULT_WORKLOAD
    x = workload.make_operand(matrix)
    y = sum(execute(unit.plan, x, GPU, workload=workload).y for unit in program.kernels)
    return workload.allclose(y, workload.reference(matrix, x))


def verify_answer(
    matrix: SparseMatrix,
    graph: OperatorGraph,
    gflops: float,
    artifact: Optional[Dict] = None,
) -> bool:
    """Re-verify one answer through the public API.

    The graph is rebuilt with ``build_program`` and run on the workload's
    operand: its result must match ``workload.reference`` and its GFLOPS
    must equal the reported figure.  A served artifact's launch geometry
    must match the rebuilt kernels.
    """
    workload = DEFAULT_WORKLOAD
    x = workload.make_operand(matrix)
    reference = workload.reference(matrix, x)
    rebuilt = build_program(matrix, graph, workload=workload)
    run = rebuilt.run(x, GPU, workload=workload)
    if not workload.allclose(run.y, reference):
        return False
    if not math.isclose(run.gflops, gflops, rel_tol=1e-9):
        return False
    if artifact is not None:
        launched = [
            (k["launch"]["blocks"], k["launch"]["threads_per_block"])
            for k in artifact["kernels"]
        ]
        planned = [(u.plan.n_blocks, u.plan.threads_per_block) for u in rebuilt.kernels]
        if launched != planned or artifact["useful_nnz"] != matrix.nnz:
            return False
    return True


def _sub_seeds(seed: int, count: int) -> List[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def with_values(shape: SparseMatrix, seed: int, name: str) -> SparseMatrix:
    """``shape``'s sparsity structure with values in [0.5, 1.5) drawn from
    ``seed``.

    Workload inputs keep fixed structures and take their values from the
    workload seed.  Search trajectories, simulated costs, tiers and serve
    donors depend only on structure, and a per-seed structure draw moved
    the run-to-run medians by more than the bounds allow; the values still
    change every matrix digest, every content-derived search seed and
    every output check.
    """
    values = 0.5 + np.random.default_rng(seed).random(shape.nnz)
    return SparseMatrix(shape.n_rows, shape.n_cols, shape.rows, shape.cols, values, name=name)


def _rows(rows: int, scale: float) -> int:
    return max(64, int(rows * scale))


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(path, name)) for name in os.listdir(path)
    )


class Workload:
    """Base: a seed, a size scale (1.0 = the benchmark; tests shrink it)."""

    name = ""

    def __init__(self, seed: int, work_dir: str, scale: float = 1.0) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.scale = scale

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: Optional[float] = None, rounds: Optional[int] = None) -> PassResult:
        raise NotImplementedError

    def check(self, result: PassResult) -> int:
        """Number of wrong outputs in ``result``."""
        wrong = result.mismatches
        for matrix, graph, gflops, artifact in result.outputs:
            if not verify_answer(matrix, graph, gflops, artifact):
                wrong += 1
        return wrong

    def close(self) -> None:
        """Remove anything the workload wrote under ``work_dir``."""


def _more_rounds(done: int, elapsed: float, seconds: Optional[float], rounds: Optional[int]) -> bool:
    """Whether to start another round: a fixed count, or while the next
    round is expected to end nearer the time budget than stopping now."""
    if rounds is not None:
        return done < rounds
    if done == 0:
        return True
    return elapsed + 0.5 * elapsed / done < seconds


# ---------------------------------------------------------------------------
# search-large
# ---------------------------------------------------------------------------

class SearchLarge(Workload):
    name = "search-large"

    def inputs(self) -> List[SparseMatrix]:
        r = lambda rows: _rows(rows, self.scale)  # noqa: E731
        shapes = [
            ("banded", gen.banded_matrix(r(60000), bandwidth=5, seed=1)),
            ("fem", gen.fem_like_matrix(r(12000), avg_degree=14, jitter=0.3, seed=2)),
            ("powerlaw", gen.power_law_matrix(r(10000), avg_degree=10, exponent=2.5, seed=3)),
            ("lp", gen.lp_like_matrix(r(12000), short_len=5, long_len=48, long_fraction=0.12, seed=4)),
            ("outliers", gen.rows_with_outliers_matrix(r(12000), base_len=10, n_outliers=6, seed=5)),
        ]
        seeds = _sub_seeds(self.seed, len(shapes))
        return [with_values(shape, s, name) for (name, shape), s in zip(shapes, seeds)]

    def setup(self) -> None:
        self.matrices = self.inputs()
        warm = gen.banded_matrix(_rows(2000, self.scale), bandwidth=3, seed=self.seed)
        with SearchEngine(GPU, SearchBudget()) as engine:
            engine.search(warm)

    def run(self, seconds=None, rounds=None) -> PassResult:
        out = PassResult()
        answers: Dict[int, Tuple] = {}
        start = clock()
        while _more_rounds(out.rounds, clock() - start, seconds, rounds):
            for index, matrix in enumerate(self.matrices):
                t0 = clock()
                with SearchEngine(GPU, SearchBudget()) as engine:
                    result = engine.search(matrix)
                out.latencies_s.append(clock() - t0)
                out.units += 1
                out.searches.append(summarize_search(result))
                if result.best_graph is None:
                    out.failed += 1
                elif index not in answers:
                    answers[index] = (result.best_graph, result.best_gflops)
                    out.mismatches += not program_ok(matrix, result.best_program)
                else:
                    out.mismatches += result.best_gflops != answers[index][1]
                # free the result and its analysis caches (they hold
                # reference cycles) before the next search, so the peak
                # is one search's, as for a ``repro search`` process
                del result, engine
                gc.collect()
            out.rounds += 1
        out.wall_s = clock() - start
        out.busy_s = sum(out.latencies_s)
        out.gflops = [gflops for _, gflops in answers.values()]
        out.outputs = [
            (self.matrices[i], graph, gflops, None)
            for i, (graph, gflops) in sorted(answers.items())
        ]
        return out


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

class Corpus(Workload):
    name = "corpus"
    SIZE = 16

    def inputs(self) -> List[CorpusEntry]:
        """The first matrices of the repository's default corpus (seed
        2022), with values from the workload seed (see :func:`with_values`)."""
        count = max(2, int(round(self.SIZE * self.scale)))
        entries = list(corpus(count))
        seeds = _sub_seeds(self.seed, count)
        return [
            CorpusEntry(e.index, e.family, with_values(e.matrix, s, e.matrix.name))
            for e, s in zip(entries, seeds)
        ]

    def setup(self) -> None:
        self.entries = self.inputs()
        with CorpusRunner(GPU) as runner:
            runner.run(self.entries[:1])

    def run(self, seconds=None, rounds=None) -> PassResult:
        out = PassResult()
        first: Optional[List[Tuple]] = None
        kept: List[SearchResult] = []
        start = clock()
        while _more_rounds(out.rounds, clock() - start, seconds, rounds):
            marks: List[float] = []
            with CorpusRunner(GPU, progress=lambda _msg: marks.append(clock())) as runner:
                search = runner.engine.search

                def capture(matrix, seed=None, search=search, keep=first is None):
                    result = search(matrix, seed=seed)
                    out.searches.append(summarize_search(result))
                    if keep:
                        kept.append(result)
                    return result

                runner.engine.search = capture
                t0 = clock()
                records = runner.run(self.entries).records
                out.busy_s += clock() - t0
            gc.collect()
            out.latencies_s.extend(np.diff([t0] + marks).tolist())
            out.units += len(records)
            outcome = [
                (rec["search"]["best_gflops"], (rec["pfs"] or {}).get("gflops", 0.0))
                for rec in records
            ]
            out.failed += sum(1 for best, pfs in outcome if best <= 0 or pfs <= 0)
            if first is None:
                first = outcome
            else:
                out.mismatches += sum(a != b for a, b in zip(first, outcome))
            out.rounds += 1
        out.wall_s = clock() - start
        out.gflops = [best for best, _ in first if best > 0]
        out.speedups = [best / pfs for best, pfs in first if best > 0 and pfs > 0]
        for entry, result in zip(self.entries, kept):
            if result.best_graph is not None:
                out.mismatches += not program_ok(entry.matrix, result.best_program)
                out.outputs.append((entry.matrix, result.best_graph, result.best_gflops, None))
        return out


# ---------------------------------------------------------------------------
# serve-zipf
# ---------------------------------------------------------------------------

class ServeZipf(Workload):
    name = "serve-zipf"
    CATALOGUE = 24
    PRIMED = 8
    #: requests in one replay of the trace: p90 has ten beyond it
    TRACE_REQUESTS = 100
    #: offered load; today's code answers it without a backlog (its
    #: slowest answers, the neighbour transfers, take under 0.4 s)
    RATE_PER_S = 2.0
    ZIPF_EXPONENT = 1.0

    _FAMILIES = (
        lambda n, s: gen.banded_matrix(n, bandwidth=4, seed=s),
        lambda n, s: gen.fem_like_matrix(n, avg_degree=10, jitter=0.3, seed=s),
        lambda n, s: gen.power_law_matrix(n, avg_degree=6, exponent=2.5, seed=s),
        lambda n, s: gen.lp_like_matrix(n, short_len=4, long_len=40, seed=s),
        lambda n, s: gen.rows_with_outliers_matrix(n, base_len=8, n_outliers=4, seed=s),
        lambda n, s: gen.random_uniform_matrix(n, avg_degree=8, seed=s),
    )
    _SIZES = (1200, 1800, 2400, 3000)

    def inputs(self) -> List[SparseMatrix]:
        """The catalogue in popularity order (index 0 = most requested).

        Rank ``r`` is family ``r % 6`` at size ``(r + r // 6) % 4``, so
        every family appears at every size (see :func:`with_values`).
        Rank 0, the one matrix set-up searches for, keeps the same values
        for every seed: with them drawn per seed its content-derived
        search seed changed how many designs priming journals, and with it
        peak memory (220 vs 250 MB) and every later journal replay.
        """
        seeds = _sub_seeds(self.seed, self.CATALOGUE)
        seeds[0] = 0
        catalogue = []
        for rank in range(self.CATALOGUE):
            family = self._FAMILIES[rank % len(self._FAMILIES)]
            rows = self._SIZES[(rank + rank // len(self._FAMILIES)) % len(self._SIZES)]
            shape = family(_rows(rows, self.scale), 1000 + rank)
            catalogue.append(with_values(shape, seeds[rank], f"r{rank:02d}-{shape.name}"))
        return catalogue

    def schedule(self, count: int) -> List[int]:
        """Catalogue ranks of ``count`` requests.

        Each rank gets its Zipf share of the trace, rounded by largest
        remainder with at least one request, in one fixed shuffled order:
        like the matrix structures (see :func:`with_values`), the trace
        keeps its shape across seeds, so the queueing it causes does too."""
        weights = 1.0 / np.arange(1, self.CATALOGUE + 1) ** self.ZIPF_EXPONENT
        share = weights / weights.sum() * count
        counts = np.maximum(1, np.floor(share)).astype(int)
        spare = count - int(counts.sum())
        if spare > 0:
            order = np.argsort(-(share - np.floor(share)), kind="stable")
            counts[order[:spare]] += 1
        ranks = np.repeat(np.arange(self.CATALOGUE), counts)
        rng = np.random.default_rng(count)
        return [int(r) for r in rng.permutation(ranks)]

    def _store_path(self, tag: str) -> str:
        return os.path.join(self.work_dir, f"serve-{self.seed}-{tag}")

    def setup(self) -> None:
        self.catalogue = self.inputs()
        primed = self._store_path("primed")
        shutil.rmtree(primed, ignore_errors=True)
        store = open_store(primed, backend="journal")
        with Frontend(GPU, store) as frontend:
            for matrix in self.catalogue[: self.PRIMED]:
                frontend.resolve(matrix)

    def run(self, seconds=None, rounds=None) -> PassResult:
        """Replay the trace until ``seconds`` are spent (or ``rounds`` times).

        The generator and the frontend share one thread, so request ``i``
        starts at ``max(due_i, end of request i-1)`` and its latency is
        its end minus ``due_i``: a single-server queue under the open-loop
        arrivals.  Requests run back to back and that queue is kept on a
        virtual clock from their measured service times, rather than by
        idling until each due time: a run then measures several replays
        instead of one, and the host cannot slow the vCPU down in the
        idle gaps."""
        ranks = self.schedule(self.TRACE_REQUESTS)
        out = PassResult()
        answers: Dict[int, Tuple] = {}
        start = clock()
        while _more_rounds(out.rounds, clock() - start, seconds, rounds):
            self._replay_trace(ranks, out, answers)
            out.rounds += 1
        out.wall_s = clock() - start
        out.busy_s = sum(out.service_s)
        out.gflops = [gflops for _, _, gflops in answers.values()]
        out.outputs = [
            (self.catalogue[rank], graph, gflops, artifact)
            for rank, (graph, artifact, gflops) in sorted(answers.items())
        ]
        return out

    def _replay_trace(self, ranks: List[int], out: PassResult, answers: Dict[int, Tuple]) -> None:
        """One replay of the trace against a fresh copy of the primed store."""
        path = self._store_path("run")
        shutil.rmtree(path, ignore_errors=True)
        shutil.copytree(self._store_path("primed"), path)
        bytes_before = _dir_bytes(path)
        store = open_store(path, backend="journal")
        latencies: List[float] = []
        busy = 0.0
        free_at = 0.0  # virtual time at which the frontend is next idle
        with Frontend(GPU, store) as frontend:
            for i, rank in enumerate(ranks):
                due = i / self.RATE_PER_S
                begin = max(due, free_at)
                t0 = clock()
                response = frontend.resolve(self.catalogue[rank])
                service = clock() - t0
                free_at = begin + service
                busy += service
                out.late_max_s = max(out.late_max_s, begin - due)
                latencies.append(free_at - due)
                out.service_s.append(service)
                out.tiers.append(response.source)
                out.units += 1
                if response.source in ("miss", "degraded") or response.graph is None:
                    out.failed += 1
                else:
                    previous = answers.get(rank)
                    if previous is not None and previous[2] != response.gflops:
                        out.mismatches += 1
                    answers[rank] = (response.graph, response.artifact, response.gflops)
        out.latencies_s.extend(latencies)
        out.replays.append((len(ranks), busy, latencies))
        # every replay writes the same records; keep one replay's bytes
        out.store_bytes = _dir_bytes(path) - bytes_before
        shutil.rmtree(path, ignore_errors=True)

    def close(self) -> None:
        for tag in ("primed", "run"):
            shutil.rmtree(self._store_path(tag), ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (SearchLarge, Corpus, ServeZipf)}
