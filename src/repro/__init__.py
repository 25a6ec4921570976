"""repro — a reproduction of AlphaSparse (Du et al., SC 2022).

AlphaSparse generates high-performance SpMV formats *and* kernels directly
from a sparse matrix by searching the original design space (format x
kernel x parameters) expressed as an Operator Graph.  This package
reimplements the full system in Python: the operator IR and Designer, the
Format & Kernel Generator with Model-Driven Format Compression, the
three-level Search Engine with a gradient-boosted-tree cost model, every
baseline format of the paper's evaluation, and a simulated-GPU substrate
(the environment has no CUDA device; see DESIGN.md for the substitution
argument).

Quickstart::

    from repro import SearchEngine, A100, read_matrix_market

    matrix = read_matrix_market("my_matrix.mtx")
    result = SearchEngine(A100).search(matrix)
    print(result.best_gflops, result.best_graph.describe())
    print(result.best_program.source())
"""

from repro.sparse import (
    SparseMatrix,
    MatrixStats,
    read_matrix_market,
    write_matrix_market,
    corpus,
    named_matrix,
)
from repro.gpu import A100, RTX2080, GPUSpec, gpu_by_name, execute
from repro.core import (
    OperatorGraph,
    GraphNode,
    Designer,
    MatrixMetadataSet,
    GeneratedProgram,
    build_program,
    ModelDrivenCompressor,
)
from repro.search import SearchBudget, SearchEngine, SearchResult
from repro.baselines import (
    BASELINE_REGISTRY,
    PerfectFormatSelector,
    get_baseline,
    SOTA_FORMATS,
    PFS_MEMBERS,
)
from repro.store import JournalStore
from repro.serve import Frontend
from repro.workloads import WORKLOADS, Workload, get_workload

__version__ = "1.0.0"

__all__ = [
    "SparseMatrix",
    "MatrixStats",
    "read_matrix_market",
    "write_matrix_market",
    "corpus",
    "named_matrix",
    "A100",
    "RTX2080",
    "GPUSpec",
    "gpu_by_name",
    "execute",
    "OperatorGraph",
    "GraphNode",
    "Designer",
    "MatrixMetadataSet",
    "GeneratedProgram",
    "build_program",
    "ModelDrivenCompressor",
    "SearchBudget",
    "SearchEngine",
    "SearchResult",
    "BASELINE_REGISTRY",
    "PerfectFormatSelector",
    "get_baseline",
    "SOTA_FORMATS",
    "PFS_MEMBERS",
    "JournalStore",
    "Frontend",
    "WORKLOADS",
    "Workload",
    "get_workload",
    "__version__",
]
