"""The supercluster benchmark: closed-loop CLI workloads, one pass per process.

    python3 perfbench/run.py --workload table|certify|tensor|smoke|all \\
        [--seed N] [--seconds S] [--trace 0|1]

One client sends the next case only after the previous one has returned, as
a researcher at the CLI does.  Each pass runs the workload's fixed case set
in a fresh ``worker.py`` process; passes repeat while another one fits in
``--seconds`` (at least one runs), and each end-to-end metric is a median
over the passes.  Times are in reference seconds (speed.py): each measured
interval scaled by how fast a fixed probe ran in and around it, so that a
neighbour's load on the shared host does not read as a change of the engine.

  setup_s         process start until the workload is ready (interpreter,
                  ``import supercluster``, ``field_make`` of its fields);
                  the median also takes SETUP_PROBES set-up-only processes
  wall_s          first case to last result of the case set, less the probe
  slowest_case_s  the longest single case: each case's median over the
                  passes, then the largest of those
  peak_rss_mb     maximum RSS of the process running the cases; the
                  engine's forked pool workers are not included

``fail_ratio`` (failed / attempted cases) is printed with them; it is 0 on a
correct engine, so the result reports it as ``failed`` of ``attempted``.

With ``--trace 1`` a run makes one untraced and one traced pass and reports
the per-layer metrics of layers.py, with ``trace.overhead_ratio`` = traced
wall_s / untraced wall_s.  ``--workload smoke --trace 1`` runs a tiny grid
through both in a few seconds.  ``--workload all`` runs table, certify and
tensor in turn and prints every metric by workload.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import layers
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 9
# A run must end within 180 s; no wait on a worker may reach past this.
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("slowest_case_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _spawn(workload: str, seed: int, jobs: int, mode: str, deadline: float) -> tuple[float, dict]:
    """Run one worker; returns (monotonic spawn time, its JSON report)."""
    cmd = [
        sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
        "--jobs", str(jobs), "--mode", mode,
    ]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and its pool children
        proc.communicate()
        raise BenchError(f"{mode} pass of {workload} overran the {DEADLINE_S:.0f} s budget")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode} ({' '.join(cmd[1:])})")
    lines = out.decode("utf-8").strip().splitlines()
    if not lines:
        raise BenchError("worker printed no report")
    return spawned, json.loads(lines[-1])


def _pass(workload, seed, jobs, mode, deadline, probe) -> dict:
    """One worker's report, with its setup_s in reference seconds."""
    around = speed.batch(probe, speed.SETUP_SAMPLE_S)
    spawned, report = _spawn(workload, seed, jobs, mode, deadline)
    around += report["ready_probe_s"]
    report["setup_s"] = (report["ready"] - spawned) * speed.REFERENCE_S / statistics.fmean(around)
    return report


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object the last line prints."""
    if not os.path.isfile(os.path.join(ROOT, "src", "supercluster", "__init__.py")):
        raise BenchError(f"no engine source under {ROOT}/src")
    jobs = len(os.sched_getaffinity(0))
    deadline = time.monotonic() + DEADLINE_S
    _spawn(workload, seed, jobs, "setup", deadline)  # compiles bytecode; not timed
    probe = speed.SpeedProbe()

    if trace:
        plain = _pass(workload, seed, jobs, "pass", deadline, probe)
        traced = _pass(workload, seed, jobs, "traced", deadline, probe)
        passes = [plain, traced]
        metrics = dict(traced["layers"])
        metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
        units = dict(layers.names())
    else:
        # Start a pass only if it should end within the window: a run lasts
        # about --seconds, or one pass when a single pass is longer.
        passes = []
        start = time.monotonic()
        while True:
            began = time.monotonic()
            passes.append(_pass(workload, seed, jobs, "pass", deadline, probe))
            now = time.monotonic()
            if now - start + (now - began) > seconds:
                break
        setups = [p["setup_s"] for p in passes]
        setups += [
            _pass(workload, seed, jobs, "setup", deadline, probe)["setup_s"]
            for _ in range(SETUP_PROBES)
        ]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "slowest_case_s": max(
                statistics.median(times) for times in zip(*(p["case_s"] for p in passes))
            ),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        units = dict(END_TO_END)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for name, value in metrics.items():
        print(f"{workload:<8} {name:<40} {value:>14.6g} {units[name]}")
    print(f"{workload:<8} {'fail_ratio':<40} {failed / attempted:>14.6g} ratio"
          f"  ({failed} of {attempted} cases over {len(passes)} passes)")
    print(f"{workload:<8} times in reference seconds; measured wall_s"
          f" {statistics.median(p['measured_wall_s'] for p in passes):.4g} s, speed probe"
          f" {statistics.median(p['probe_s'] for p in passes) * 1000:.4g} ms"
          f" (reference {speed.REFERENCE_S * 1000:.4g} ms)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["table", "certify", "tensor", "smoke", "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    workloads = ["table", "certify", "tensor"] if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
