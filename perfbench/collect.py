"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --seeds 1-10 [--workload NAME ...]
                                 [--out summary.json]

Runs ``run.py`` once per (workload, seed), one at a time, with the run
length from BENCHMARK.json and ``--trace 0``.  For every end-to-end
metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
and flags a spread above a third of the metric's bound.  The summary JSON
holds every value of every run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import quartiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(med) if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in _seed_list(args.seeds):
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900,
                check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarize([r["metrics"][name]["value"]
                                       for r in runs])
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
        summary[workload] = {"correct": all(r["correct"] for r in runs),
                             "failed": sum(r["failed"] for r in runs),
                             "attempted": sum(r["attempted"] for r in runs),
                             "metrics": metrics}
        print(f"{workload}: {'metric':40s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>8s}  bound")
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = ("  <-- above bound/3" if bound is not None
                    and m["spread"] > bound / 3 else "")
            print(f"  {name:48s} {m['median']:12.6g} {m['q1']:12.6g} "
                  f"{m['q3']:12.6g} {m['spread']:8.2%}  "
                  f"{bound if bound is not None else '':}{flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
