"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py --workload tensor [--runs 10] [--first-seed 1] [--record]

Runs run.py once per seed (seeds first-seed .. first-seed+runs-1) with the
BENCHMARK.json run length and prints, per metric, the median and the
distance between the first and third quartiles as a share of the median,
next to the metric's bound.  A benchmark is steady when every spread
except setup_s stays below a third of its bound.  ``--record`` stores the
figures, with the machine they came from, as the workload's entry in
BASELINE.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} failed cases", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    entry = {"seeds": [args.first_seed, args.first_seed + args.runs - 1], "metrics": {}}
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        if metric["name"] == "setup_s":  # judged by its median, not its spread
            mark = ""
        else:
            mark = "ok" if spread < metric["bound"] / 3 else "WIDE"
        print(f"{args.workload:<8} {metric['name']:<16} median {med:10.4f} {metric['unit']:<3}"
              f" spread {spread:7.4f}  bound {metric['bound']}  {mark}")
        entry["metrics"][metric["name"]] = {
            "unit": metric["unit"], "median": med, "q1": q1, "q3": q3, "values": vals,
        }
    if args.record:
        _record(args.workload, entry)
    return 0


def _cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def _record(workload: str, entry: dict) -> None:
    path = os.path.join(HERE, "BASELINE.json")
    data = {"workloads": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    entry["machine"] = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
    }
    data["workloads"][workload] = entry
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    raise SystemExit(main())
