"""End-to-end benchmark of the §VII-A study and the online epoch.

Run from the root of a checkout (no install step; ``src/`` is put on the
path here):

    python3 benchmarks/e2e/run.py --workload study-smoke --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The next-to-last line of standard
output describes the run and its host; the last line is the result
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 1 when an operation failed a check, 2 when the checkout has no
``src/repro``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
WORKLOAD_NAMES = ("study-paper", "study-smoke", "epoch-steady", "epoch-drift")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC} holds no repro package; run from a full checkout", file=sys.stderr)
        return 2
    # the checkout's sources, never an installed copy
    sys.path[:0] = [str(SRC), str(HERE)]
    import harness

    trace = bool(args.trace)
    run = harness.measure(
        harness.WORKLOADS[args.workload], seed=args.seed, seconds=args.seconds, trace=trace
    )
    result = harness.result_object(run, trace)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": run.ops,
        "busy_s": sum(run.busy_s),
        **harness.environment(),
    }
    print(json.dumps(info))
    print(json.dumps(result))
    return harness.exit_code(result)


if __name__ == "__main__":
    sys.exit(main())
