"""One pass of a workload in a fresh interpreter; reports as one JSON line.

Started by run.py, once per pass, so the engine's module-level memos start
empty as they do for every CLI invocation.  Every case goes in-process
through ``supercluster.cli.main(argv)`` with stdout captured.

    python3 perfbench/worker.py --workload W --seed S --jobs J --mode M

Modes: ``setup`` stops once the workload is ready (interpreter, ``import
supercluster``, ``field_make`` for the workload's fields); ``pass`` runs and
checks every case; ``traced`` does the same under the layer tracer and
writes its spans and summary under ``perfbench_out/``.

Case times are reported in reference seconds: the speed probe of speed.py
runs from a timer signal through the cases, and each case's measured time,
less the probe's, is scaled by how fast the probe ran in and around it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench_out")


def run_case(main, argv):
    """(exit code or error text, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:  # argparse usage errors exit 2
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a failed case is counted; the pass goes on
        rc = f"{type(exc).__name__}: {exc}"
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "pass", "traced"], required=True)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "supercluster", "__init__.py")):
        print(f"worker: no engine source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import supercluster
    from supercluster import cli, gf

    if not os.path.abspath(supercluster.__file__).startswith(SRC + os.sep):
        print(f"worker: imported supercluster from {supercluster.__file__}", file=sys.stderr)
        return 2

    import cases

    tracer = None
    if args.mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    for p, k in cases.FIELDS[args.workload]:
        gf.field_make(p, k)
    ready = time.monotonic()
    # Speed samples right after set-up, for run.py to scale setup_s with.
    probe = speed.SpeedProbe()
    ready_probe_s = speed.batch(probe, speed.SETUP_SAMPLE_S)
    if args.mode == "setup":
        print(json.dumps({"ready": ready, "ready_probe_s": ready_probe_s}))
        return 0

    todo = cases.build(args.workload, args.seed, args.jobs)
    results = []
    spans = []  # (start, end, seconds the speed probe took in between)
    timeline = speed.Timeline(probe)
    with timeline:
        for index, case in enumerate(todo):
            if tracer is not None:
                tracer.case = index
            start, paused = time.perf_counter(), timeline.paused
            results.append(run_case(cli.main, case.argv))
            spans.append((start, time.perf_counter(), timeline.paused - paused))
    measured_s = [end - start - paused for start, end, paused in spans]
    case_s = [
        seconds * timeline.factor(start, end)
        for seconds, (start, end, _) in zip(measured_s, spans)
    ]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "ready": ready,
        "ready_probe_s": ready_probe_s,
        "wall_s": sum(case_s),
        "case_s": case_s,
        "measured_wall_s": sum(measured_s),
        "probe_s": statistics.median(s for _, s in timeline.samples),
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(todo),
    }
    if tracer is not None:
        tracer.uninstall()
        import layers

        os.makedirs(OUT_DIR, exist_ok=True)
        stem = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}")
        tracer.write(
            stem + ".spans.jsonl",
            stem + ".summary.json",
            {i: c.argv for i, c in enumerate(todo)},
        )
        report["layers"] = layers.values(tracer.summary())

    references = cases.load_references()
    rng = random.Random(args.seed)
    failures = []
    for case, (rc, out, err) in zip(todo, results):
        try:
            reason = cases.check(case, rc, out, references, rng)
        except Exception as exc:  # output the checks cannot even parse
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(reason)
            tail = "".join(f"  | {line}\n" for line in err.splitlines()[-20:])
            print(
                f"FAILED {args.workload} case {case.name or '(seeded)'}: {reason}\n"
                f"  argv: {' '.join(case.argv)}\n{tail}",
                file=sys.stderr,
            )
    report["failed"] = len(failures)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
