"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/baseline.py [--seeds 1-10] [--write perfbench/baseline.json]

Runs ``perfbench/run.py`` once per workload of BENCHMARK.json and seed, for
its run_seconds, one process at a time, and prints for every end-to-end
metric the median, the quartiles and the spread (interquartile range over
median) next to the metric's bound.  It also makes one traced run per
workload (first seed) for the per-layer metrics.  ``--write`` stores the
summary as JSON, which is how the recorded baseline was produced.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["process_s"] = elapsed
    result["log"] = lines[:-1]
    return result


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--write", type=Path)
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    names = [w["name"] for w in spec["workloads"]]
    # seeds in the outer loop: the host's speed drifts over minutes, so
    # every workload's runs should span the whole session, not one stretch
    all_runs = {name: [] for name in names}
    for s in seeds:
        for name in names:
            all_runs[name].append(run_once(name, s, seconds, 0))

    summary = {"seeds": seeds, "run_seconds": seconds, "workloads": {}}
    for workload, runs in all_runs.items():
        entry = {"correct": all(r["correct"] for r in runs),
                 "failed": sum(r["failed"] for r in runs),
                 "attempted": [r["attempted"] for r in runs],
                 "process_s": summarize([r["process_s"] for r in runs]),
                 "end_to_end": {}}
        print(f"{workload}: seeds {args.seeds}, correct={entry['correct']}, "
              f"jobs {entry['attempted']}, process median "
              f"{entry['process_s']['median']:.1f} s")
        for name in bounds:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            entry["end_to_end"][name] = s
            print(f"  {name:<12} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} "
                  f"(bound {bounds[name]}, a third {bounds[name] / 3:.4f}) "
                  f"values {' '.join(f'{v:.4g}' for v in s['values'])}")
        traced = run_once(workload, seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"]
                              for k, v in traced["metrics"].items()}
        entry["traced_correct"] = traced["correct"]
        print(f"  traced run: correct={traced['correct']}, "
              f"{traced['process_s']:.1f} s")
        line = next(x for x in runs[0]["log"] if x.startswith("provenance: "))
        prov = json.loads(line[len("provenance: "):])
        entry["provenance"] = {k: v for k, v in prov.items()
                               if k not in ("seed", "trace", "workload", "smoke")}
        summary["workloads"][workload] = entry
    if args.write is not None:
        args.write.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
