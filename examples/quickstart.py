"""Quickstart: AlphaSparse end to end.

Feed a sparse matrix in, get a machine-designed format and SpMV kernel out
(paper §III: "Users only need to input a Matrix Market file ... AlphaSparse
will output a matrix stored in a specific format and a kernel
implementation").

Run:  python examples/quickstart.py [path/to/matrix.mtx]
Without an argument a SuiteSparse-like LP matrix is generated.
"""

import sys
import tempfile

import numpy as np

from repro import (
    A100,
    PerfectFormatSelector,
    SearchBudget,
    SearchEngine,
    get_workload,
    named_matrix,
    read_matrix_market,
)
from repro.store import JournalStore


def main() -> None:
    if len(sys.argv) > 1:
        matrix = read_matrix_market(sys.argv[1])
    else:
        matrix = named_matrix("scfxm1-2r")
    stats = matrix.stats
    print(f"matrix: {matrix.name}  {matrix.n_rows}x{matrix.n_cols}  "
          f"nnz={matrix.nnz}  row variance={stats.row_variance:.1f} "
          f"({'irregular' if stats.is_irregular else 'regular'})")

    # --- search for a machine-designed format + kernel -----------------
    engine = SearchEngine(A100, budget=SearchBudget(max_total_evals=160))
    result = engine.search(matrix)
    print(f"\nsearch: {result.total_evaluations} program evaluations, "
          f"{result.structures_tried} graph structures, "
          f"{result.wall_time_s:.1f}s")
    print(f"best machine-designed SpMV: {result.best_gflops:.1f} GFLOPS")
    print("\nwinning Operator Graph:")
    print(result.best_graph.describe())

    # --- compare against the traditional auto-tuner --------------------
    pfs = PerfectFormatSelector().select(matrix, A100)
    print(f"\nPerfect Format Selector picks {pfs.selected_format}: "
          f"{pfs.gflops:.1f} GFLOPS")
    print(f"AlphaSparse speedup over PFS: "
          f"{result.best_gflops / pfs.gflops:.2f}x")

    # --- verify and show the artifact -----------------------------------
    x = np.random.default_rng(0).random(matrix.n_cols)
    out = result.best_program.run(x, A100)
    assert np.allclose(out.y, matrix.spmv_reference(x))
    print("\nresult verified against A @ x")

    unit = result.best_program.kernels[0]
    print("\nmachine-designed format:")
    print(unit.format.describe())
    print("\ngenerated kernel (CUDA-like rendering):")
    print(unit.source)

    # --- the same search, for a different workload ----------------------
    # The operation being tuned is pluggable: SpMM (dense multi-vector
    # RHS) and transpose SpMV ship alongside SpMV.  One engine = one
    # workload; caches and stores are keyed so they never cross.
    spmm = get_workload("spmm16")
    with SearchEngine(A100, budget=SearchBudget(max_total_evals=160),
                      workload=spmm) as spmm_engine:
        spmm_result = spmm_engine.search(matrix)
    X = spmm.make_operand(matrix)
    spmm_out = spmm_result.best_program.run(X, A100, workload=spmm)
    assert spmm.allclose(spmm_out.y, spmm.reference(matrix, X))
    print(f"\nbest machine-designed {spmm.display}: "
          f"{spmm_result.best_gflops:.1f} GFLOPS (verified against A @ X)")

    # --- store-backed re-search: the one-time search is reusable --------
    # Persisting designs to a JournalStore means a *new* engine — think a
    # new process, hours later — warm-starts from disk: zero Designer
    # runs, byte-identical result.  (`python -m repro serve` answers
    # requests straight from such a store.)
    with tempfile.TemporaryDirectory() as store_dir:
        budget = SearchBudget(max_total_evals=160)
        with SearchEngine(A100, budget=budget,
                          store=JournalStore(store_dir)) as warmup:
            warmup.search(matrix)
        with SearchEngine(A100, budget=budget,
                          store=JournalStore(store_dir)) as warmed:
            again = warmed.search(matrix)
        print(f"\nstore-backed re-search: {again.designer_runs} Designer "
              f"runs ({again.store_hits} designs loaded from the store), "
              f"best {again.best_gflops:.1f} GFLOPS "
              f"({'identical' if again.best_gflops == result.best_gflops else 'DIFFERENT'})")


if __name__ == "__main__":
    main()
