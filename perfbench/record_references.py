"""Record the stdout digest of every deterministic benchmark case.

    python3 perfbench/record_references.py

Writes references.json from the engine under src/.  The committed file was
recorded from the seed engine; the benchmark counts any later difference
as a failed case, which holds the engine to byte-identical output.  Re-record
only when a change is meant to alter output, and say so in its description.
"""

from __future__ import annotations

import json
import os
import sys
import time

import cases
from worker import SRC, run_case


def main() -> int:
    sys.path.insert(0, SRC)
    from supercluster import cli

    digests = {}
    for workload in cases.WORKLOADS:
        for case in cases.build(workload, seed=0, jobs=len(os.sched_getaffinity(0))):
            if not case.name:
                continue
            start = time.perf_counter()
            rc, out, err = run_case(cli.main, case.argv)
            seconds = time.perf_counter() - start
            if rc != 0:
                print(f"{case.name}: exit {rc}\n{err}", file=sys.stderr)
                return 1
            digests[case.name] = cases.digest(out)
            print(f"{case.name:<28} {seconds:8.2f} s  {digests[case.name]}")
    with open(cases.REFERENCES, "w", encoding="utf-8") as fh:
        json.dump({"stdout_sha256": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
