"""Record the reference outputs that every benchmark run is checked against.

    python3 bench/make_refs.py --workload oracle --seeds 0-23

For each seed the workload is set up and its first `DEPTH` operations are
run; their outputs are merged into `bench/refs/<workload>.json` under the
seed. The `eval` reference is the serial `pipeline.evaluate` CSV (without
timing columns) of the scene files; recording fails unless `cli eval`
with its process pool produces the same CSV. Re-record only when a change
is meant to alter outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import run   # pins BLAS threads before numpy is imported

# operations recorded per seed: at least as many as one run reaches
DEPTH = {"oracle": 12, "detect": 1, "train": 5, "eval": 1}


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def record(cls, seed: int, workdir: Path):
    wl = cls(seed, workdir)
    wl.setup()
    if cls.name == "eval":
        from workloads import csv_mismatch
        serial = wl.serial_csv()
        pooled = wl.run_op(0).out["csv"]
        reason = csv_mismatch(pooled, serial)
        if reason is not None:
            raise SystemExit(f"seed {seed}: cli eval differs from pipeline.evaluate: {reason}")
        return [{"csv": serial}]
    return [wl.run_op(i).out for i in range(DEPTH[cls.name])]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="a seed or an inclusive range lo-hi")
    args = p.parse_args(argv)
    if not run.use_source_tree():
        return 2
    from workloads import REFS_DIR, WORKLOADS, load_refs
    cls = WORKLOADS[args.workload]
    refs = load_refs(cls.name)
    workdir = run.ROOT / ".bench_work" / f"refs-{cls.name}"
    workdir.mkdir(parents=True, exist_ok=True)
    path = REFS_DIR / f"{cls.name}.json"
    try:
        for seed in seed_range(args.seeds):
            refs[str(seed)] = record(cls, seed, workdir)
            REFS_DIR.mkdir(exist_ok=True)
            ordered = dict(sorted(refs.items(), key=lambda kv: int(kv[0])))
            path.write_text(json.dumps(ordered, indent=1) + "\n")
            print(f"{cls.name} seed {seed}: {len(refs[str(seed)])} operations", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
