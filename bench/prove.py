"""Run the benchmark over a range of seeds and write a BENCH result file.

    python3 bench/prove.py --seeds 0-9 --out bench/results/BENCH_first.json

Each workload runs once per seed with tracing off, then once traced (first
seed) for the per-layer figures. For every end-to-end metric the file
holds the per-run values, their median and quartiles, and the spread:
(Q3 - Q1) / median with `statistics.quantiles(values, n=4)`, the figure
compared against the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: no result\n{proc.stderr[-2000:]}")
    return {"exit": proc.returncode, "wall_s": time.perf_counter() - t0,
            "detail": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-9", help="inclusive range lo-hi")
    p.add_argument("--workloads", help="comma list (default: all in BENCHMARK.json)")
    p.add_argument("--no-trace", action="store_true", help="skip the traced run")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    lo, hi = (int(v) for v in args.seeds.split("-"))
    names = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    report = {"run_seconds": bench["run_seconds"], "seeds": [lo, hi], "workloads": {}}
    for name in names:
        runs = []
        for seed in range(lo, hi + 1):
            r = run_once(name, seed, bench["run_seconds"], 0)
            runs.append(r)
            m = {k: round(v["value"], 4) for k, v in r["result"]["metrics"].items()}
            print(f"{name} seed {seed}: exit {r['exit']} wall {r['wall_s']:.1f}s {m}",
                  flush=True)
        stats = {k: spread([r["result"]["metrics"][k]["value"] for r in runs])
                 for k in bounds}
        entry = {"runs": runs, "end_to_end": stats,
                 "failed": sum(r["result"]["failed"] for r in runs),
                 "attempted": sum(r["result"]["attempted"] for r in runs)}
        if not args.no_trace:
            entry["traced"] = run_once(name, lo, bench["run_seconds"], 1)
        report["workloads"][name] = entry
        for k, s in stats.items():
            flag = "" if s["spread"] <= bounds[k] / 3 else "  (above a third of the bound)"
            print(f"  {k}: median {s['median']:.4f} spread {s['spread']:.4f} "
                  f"bound {bounds[k]}{flag}", flush=True)
    report["env"] = runs[0]["detail"]["env"]
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
