"""verify's checks in two processes, for run_verify with jobs >= 2.

verify loads this module only on that path, so the commands that never
fork do not compile it.  warm_up builds the oracle data every check reads
before the fork, so that the child shares it copy-on-write.
run_in_lanes then forks one child for lane B, the checks that draw nothing
from the run's rng; the parent runs lane A meanwhile.  The child writes one
JSON line per check to a pipe and leaves through os._exit; the parent
reads the pipe to its end, reaps the child and writes the child's
tracebacks to its own stderr.
"""

from __future__ import annotations

import json
import os
import signal
import sys

from .errors import ResourceCapExceeded
from .verify import _outcomes, _run_here


def warm_up(ctx) -> None:
    """Build the partitions and the brute table of ctx in the order the
    checks first use them.  An error here is left for the checks to meet
    and report."""
    for build in (lambda: ctx.adjoint, lambda: ctx.coadjoint, lambda: ctx.table):
        try:
            build()
        except Exception:
            pass


def _run_child(lane, fd: int):
    """The forked child's whole life: run lane, write one JSON line
    [key, passed, detail, traceback text] per check to fd (passed is null
    for a cap, which ends the lane), and leave through os._exit, so that
    nothing of the parent's stack, buffers or exit handlers runs here."""
    status = 1
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as out:
            for key, ok, detail, tb in _outcomes(lane):
                out.write(json.dumps([key, ok, str(detail), tb]) + "\n")
                out.flush()
        status = 0
    finally:
        os._exit(status)


def _exit_text(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
    return f"check process {how} before reporting"


def run_in_lanes(checks, parent_keys) -> dict:
    """{key: (passed, detail)} of every (key, check) of checks; those named
    in parent_keys (lane A) run here, in their order, the others (lane B)
    in one forked child.  Should a check hit a resource cap, the cap a
    single lane would have met first (the earliest in check order) is
    raised, once the child has been killed and reaped.  A check the child
    did not report before it ended fails with the child's exit status."""
    position = {key: i for i, (key, _) in enumerate(checks)}
    lane_a = [(key, check) for key, check in checks if key in parent_keys]
    lane_b = [(key, check) for key, check in checks if key not in parent_keys]
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:  # the child, which never returns from _run_child
        os.close(read_fd)
        _run_child(lane_b, write_fd)
    os.close(write_fd)
    outcomes = {}
    reaped = False
    try:
        with os.fdopen(read_fd, encoding="utf-8") as pipe:
            capped = _run_here(lane_a, outcomes)  # (key, cap) of the earliest cap met
            # After a cap here, only the child's checks before it still count.
            lines = iter(pipe)
            while capped is None or any(
                position[key] < position[capped[0]] and key not in outcomes
                for key, _ in lane_b
            ):
                line = next(lines, "")
                if not line.endswith("\n"):  # the child ended, maybe mid-line
                    break
                key, ok, detail, tb = json.loads(line)
                if ok is None:
                    if capped is None or position[key] < position[capped[0]]:
                        capped = (key, ResourceCapExceeded(detail))
                    break
                sys.stderr.write(tb)
                outcomes[key] = (ok, detail)
        if capped is not None:
            raise capped[1]
        status = os.waitpid(pid, 0)[1]
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for key, _ in lane_b:
        outcomes.setdefault(key, (False, _exit_text(status)))
    return outcomes
