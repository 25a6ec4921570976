"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload search-large --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the workload is set up five times (``setup_s`` is the
median), measured for ``--seconds`` with tracing off, and every end-to-end
metric is printed.  With ``--trace 1`` it is set up once, measured untraced,
then the same work is repeated with layer spans recorded; the per-layer
metrics, a self-time table and a Chrome trace-event file (under
``.perfbench_work/``) come from that traced pass.

Every winning program and served artifact is re-verified afterwards; the
last line of output is one JSON object, and the exit code is 1 if any
output was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=["search-large", "corpus", "serve-zipf"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program sources under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)

    from perfbench import report
    from perfbench.spans import Tracer, self_time_table, write_chrome_trace
    from perfbench.suite import WORKLOADS

    work_dir = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_dir, exist_ok=True)
    cls = WORKLOADS[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}")
    print("environment " + json.dumps(report.fingerprint(ROOT), sort_keys=True))

    workload = None
    try:
        setup_times = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            if workload is not None:
                workload.close()
            workload = cls(args.seed, work_dir)
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)

        if not args.trace:
            result = workload.run(seconds=args.seconds)
            wrong = workload.check(result)
            metrics = report.end_to_end(result, setup_times)
            print(f"setup times (s): {', '.join(f'{t:.3f}' for t in setup_times)}")
            print(f"{result.units} units in {result.rounds} rounds, {result.wall_s:.2f} s wall")
            print("end-to-end metrics:")
            print("\n".join(report.metric_lines(metrics, report.ALIASES.get(args.workload))))
            print("\n".join(report.metric_lines(report.extra_figures(args.workload, result))))
        else:
            untraced = workload.run(seconds=args.seconds)
            wrong = workload.check(untraced)
            tracer = Tracer()
            with tracer.patched():
                result = workload.run(rounds=untraced.rounds)
            wrong += workload.check(result)
            metrics = report.per_layer(result, tracer.spans, untraced)
            trace_path = os.path.join(
                work_dir, f"trace-{args.workload}-seed{args.seed}.json"
            )
            write_chrome_trace(tracer.spans, trace_path)
            print(f"traced pass: {result.units} units, {len(tracer.spans)} spans -> {trace_path}")
            # busy time: per-replay store copies are not work
            print("self time by layer (traced pass, busy time):")
            print("\n".join(self_time_table(tracer.spans, result.busy_s)))
            print("per-layer metrics:")
            print("\n".join(report.metric_lines(metrics)))
    finally:
        if workload is not None:
            workload.close()

    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": result.units,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": report.UNITS[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    if wrong:
        print(f"error: {wrong} wrong output(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
