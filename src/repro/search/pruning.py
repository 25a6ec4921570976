"""Pruning strategies (paper §VI-B) and successive-halving eval pruning.

"AlphaSparse provides a ban list for pruned operators, according to already
existing operators of graph and sparsity patterns of input matrices."
Rules encode the high-quality human experience the paper credits for the
2.5x search-time reduction and 1.2x performance gain of Table III: regular
matrices skip irregularity machinery, short-row matrices skip long-row
reductions, and so on.  Users can add their own rules.

:class:`SuccessiveHalvingPruner` prunes at a different layer: instead of
banning operators up front, it drops *candidates within one evaluation
batch* after cheap cost-projection rungs, so samplers that opt in spend full
measurements (functional execution + numeric verification) only on rung
survivors.  See :meth:`SearchEngine._measure_pruned` for the driving loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Set

from repro.sparse.matrix import IRREGULARITY_THRESHOLD, MatrixStats

__all__ = [
    "PruningRule",
    "PruningRules",
    "SuccessiveHalvingPruner",
    "default_rules",
]


@dataclass(frozen=True)
class PruningRule:
    """One ban rule: when ``predicate(stats)`` holds, ``banned`` operators
    are removed from the structure sampler's menu."""

    name: str
    predicate: Callable[[MatrixStats], bool]
    banned: frozenset
    reason: str = ""


class PruningRules:
    """A mutable collection of :class:`PruningRule` with a ban-list query."""

    def __init__(self, rules: List[PruningRule] | None = None) -> None:
        self.rules: List[PruningRule] = list(rules) if rules else []

    def add(
        self,
        name: str,
        predicate: Callable[[MatrixStats], bool],
        banned,
        reason: str = "",
    ) -> None:
        self.rules.append(PruningRule(name, predicate, frozenset(banned), reason))

    def ban_list(self, stats: MatrixStats) -> Set[str]:
        banned: Set[str] = set()
        for rule in self.rules:
            if rule.predicate(stats):
                banned |= rule.banned
        return banned

    def active_rules(self, stats: MatrixStats) -> List[PruningRule]:
        return [r for r in self.rules if r.predicate(stats)]


@dataclass(frozen=True)
class SuccessiveHalvingPruner:
    """Rank one batch's candidates into successive-halving waves.

    The tournament runs on the *cheap rung* scores (analytic cost
    projections): at each rung the top ``1/eta`` fraction survives, down
    to ``min_survivors``.  :meth:`waves` returns candidate indices grouped
    for measurement — wave 0 is the final-rung survivors, wave 1 the group
    eliminated at the last rung, and so on; concatenated, the waves list
    every candidate in descending projected score.  The engine fully
    measures wave 0 and promotes later waves only while no valid
    measurement exists, so projection failures (score 0) can never starve
    a batch: the tournament degrades to descending-order measurement until
    something validates.
    """

    #: fraction of candidates surviving each rung is ``1/eta``.
    eta: float = 2.0
    #: tournament floor — batches at or below this size are never pruned.
    min_survivors: int = 2

    def __post_init__(self) -> None:
        if self.eta <= 1.0:
            raise ValueError("eta must be > 1")
        if self.min_survivors < 1:
            raise ValueError("min_survivors must be >= 1")

    def waves(self, scores: Sequence[float]) -> List[List[int]]:
        """Indices into ``scores`` grouped into measurement waves."""
        order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
        cuts = [len(order)]
        while cuts[-1] > self.min_survivors:
            cuts.append(
                max(self.min_survivors, math.ceil(cuts[-1] / self.eta))
            )
        waves = [order[: cuts[-1]]]
        for rung in range(len(cuts) - 1, 0, -1):
            waves.append(order[cuts[rung]: cuts[rung - 1]])
        return [w for w in waves if w]


def default_rules() -> PruningRules:
    """The built-in experience distilled from the format literature."""
    rules = PruningRules()
    rules.add(
        "regular-skip-irregularity-machinery",
        lambda s: s.row_variance <= IRREGULARITY_THRESHOLD,
        {
            "WARP_SEG_RED",
            "WARP_BITMAP_RED",
            "THREAD_BITMAP_RED",
            "BIN",
            "ROW_DIV",
            "BMT_NNZ_BLOCK",
            "BMW_NNZ_BLOCK",
            "BMTB_NNZ_BLOCK",
        },
        "regular matrices gain nothing from load-balancing splits or "
        "segmented reductions (paper: 'matrices with short rows do not "
        "need to try operators for long row reduction')",
    )
    rules.add(
        "short-rows-skip-block-wide-reduction",
        lambda s: s.max_row_length < 128,
        {"SHMEM_TOTAL_RED"},
        "a whole-thread-block reduction only pays off for very long rows",
    )
    rules.add(
        "short-rows-skip-column-splits",
        lambda s: s.avg_row_length < 32,
        {"BMT_COL_BLOCK", "BMTB_COL_BLOCK", "COL_DIV"},
        "column splitting subdivides rows that are already short",
    )
    rules.add(
        "irregular-skip-naive-padding",
        lambda s: s.row_variance > 100 * IRREGULARITY_THRESHOLD,
        {"BMTB_PAD"},
        "padding whole thread-block chunks explodes on extremely skewed rows",
    )
    rules.add(
        "tiny-skip-division",
        lambda s: s.n_rows < 256,
        {"ROW_DIV", "COL_DIV", "BIN"},
        "sub-matrices of a tiny matrix cannot fill the GPU",
    )
    return rules
