"""Generated sparse-kernel programs.

A :class:`GeneratedProgram` is AlphaSparse's output artifact: one kernel per
design leaf (branching graphs produce several, launched back-to-back just
like HYB's two-kernel schedule), each carrying its machine-designed format,
its execution plan and its generated source.  Programs run under any
registered :class:`~repro.workloads.Workload`; the default (None) is SpMV,
bit-identical to the historical single-operation behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.format import MachineDesignedFormat
from repro.gpu.arch import GPUSpec
from repro.gpu.executor import ExecutionPlan, ExecutionResult, execute
from repro.workloads import DEFAULT_WORKLOAD, Workload

__all__ = ["KernelUnit", "GeneratedProgram", "ProgramResult"]


@dataclass
class KernelUnit:
    """One kernel of the program: plan + format + source + provenance."""

    label: str
    plan: ExecutionPlan
    format: MachineDesignedFormat
    source: str
    applied_operators: List[str] = field(default_factory=list)


@dataclass
class ProgramResult:
    """Aggregated result of running every kernel of a program."""

    y: np.ndarray
    total_time_s: float
    gflops: float
    kernel_results: List[ExecutionResult]


@dataclass
class GeneratedProgram:
    """The machine-designed sparse-kernel program for one input matrix."""

    matrix_name: str
    n_rows: int
    n_cols: int
    useful_nnz: int
    kernels: List[KernelUnit]
    #: design-level analysis (:class:`repro.gpu.analysis.DesignAnalysis`)
    #: shared by every candidate of the same design; carries the cached
    #: numeric-verification verdict.  None for standalone builds.
    analysis: Optional[object] = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------
    def run(
        self,
        x: np.ndarray,
        gpu: GPUSpec,
        workload: Optional[Workload] = None,
    ) -> ProgramResult:
        """Execute every kernel; kernels launch back-to-back so the program
        time is the sum of kernel times (the HYB-style schedule).

        ``workload`` selects the operation (None = the default SpMV); the
        result shape and the GFLOPS numerator follow the workload.
        """
        wl = workload or DEFAULT_WORKLOAD
        y = np.zeros(wl.result_shape(self.n_rows, self.n_cols), dtype=np.float64)
        results: List[ExecutionResult] = []
        total = 0.0
        for unit in self.kernels:
            res = execute(unit.plan, x, gpu, workload=workload)
            y += res.y
            total += res.time_s
            results.append(res)
        gflops = wl.flops(self.useful_nnz) / total / 1e9 if total > 0 else 0.0
        return ProgramResult(
            y=y, total_time_s=total, gflops=gflops, kernel_results=results
        )

    def validate(
        self,
        x: np.ndarray,
        reference: np.ndarray,
        gpu: GPUSpec,
        workload: Optional[Workload] = None,
    ) -> bool:
        """Check the program reproduces the workload's reference result."""
        result = self.run(x, gpu, workload=workload)
        return bool(np.allclose(result.y, reference, rtol=1e-10, atol=1e-12))

    # ------------------------------------------------------------------
    def conversion_cost_s(self, gpu: GPUSpec) -> float:
        """Estimated one-off cost of building the machine-designed format
        from raw triplets (paper §IX names efficient conversion routines as
        future work).  Modelled as streaming the source triplets in and the
        format arrays out at DRAM bandwidth, plus a sort term for reordered
        layouts."""
        triplet_bytes = self.useful_nnz * 12.0  # row + col + value
        out_bytes = float(self.format_bytes)
        bw = gpu.dram_bandwidth_gbps * 1e9
        stream_s = (triplet_bytes + out_bytes) / bw
        sort_passes = sum(
            1
            for unit in self.kernels
            for op in unit.applied_operators
            if op in ("SORT", "SORT_SUB", "SORT_BMTB")
        )
        # radix-style sort: ~4 passes over keys per sort operator
        sort_s = sort_passes * 4.0 * (self.useful_nnz * 8.0) / bw
        return stream_s + sort_s

    def iterations_to_amortize(
        self, gpu: GPUSpec, baseline_time_s: float, own_time_s: float
    ) -> float:
        """SpMV iterations needed before the conversion cost pays for
        itself against a baseline kernel (inf when not faster)."""
        gain = baseline_time_s - own_time_s
        if gain <= 0:
            return float("inf")
        return self.conversion_cost_s(gpu) / gain

    @property
    def format_bytes(self) -> int:
        return sum(unit.format.total_bytes for unit in self.kernels)

    @property
    def n_kernels(self) -> int:
        return len(self.kernels)

    def source(self) -> str:
        """Concatenated CUDA-like source of every kernel."""
        return "\n\n".join(unit.source for unit in self.kernels)

    def describe(self) -> str:
        lines = [
            f"GeneratedProgram for {self.matrix_name or '<unnamed>'}: "
            f"{self.n_kernels} kernel(s), {self.format_bytes} format bytes"
        ]
        for unit in self.kernels:
            ops = " -> ".join(unit.applied_operators)
            lines.append(f"  [{unit.label}] {ops}")
        return "\n".join(lines)
