"""Benchmark of `pointpose`: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload oracle --seed 3 --seconds 15 --trace 0

Run from the repository root. The workload's inputs are generated from
`--seed` (detect always uses one fixed input, see NOTES.md); set-up is
repeated `SETUP_REPEATS` times and its median reported as `setup_s`;
operations then run for `--seconds` (at least one), each checked against
the recorded reference. `--trace 0` prints the end-to-end metrics;
`--trace 1` runs each operation untraced and traced, alternating which
goes first, and prints the per-layer metrics and the tracing overhead. A
detail line (environment, per-operation times, accuracy) precedes the
result line. Exit code 1 on a wrong output, 2 on bad usage or a missing
source tree.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = len(os.sched_getaffinity(0))

# pin BLAS threads before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUP_REPEATS = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def use_source_tree() -> bool:
    """Put `src/` and this directory on the import path; False if `src/` is missing."""
    if not (ROOT / "src" / "pointpose" / "pipeline.py").is_file():
        print(f"error: no pointpose source tree under {ROOT / 'src'}", file=sys.stderr)
        return False
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_source_tree():
        return 2
    from harness import run_workload   # imports numpy: after the pinning above
    import scipy.spatial.transform  # noqa: F401  imported lazily by density_peak
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    return run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace), ROOT / ".bench_work", SETUP_REPEATS)


if __name__ == "__main__":
    sys.exit(main())
