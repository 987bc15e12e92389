"""verify's checks in two processes, for run_verify with jobs >= 2.

verify loads this module only on that path, so the commands that never
fork do not compile it.  run_in_lanes builds the oracle context's brute
table (and with it both partitions) before the fork, so that the child
shares it copy-on-write, then forks one child for lane B, the checks that
draw nothing from the run's rng; the parent runs lane A meanwhile.  The
child writes one JSON line per outcome to a pipe and leaves through
os._exit.  The parent reads the pipe to its end, reaps the child and hands
both lanes' outcomes to verify._report, the one path that reports a run
with any jobs.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal

from .verify import _outcomes, _report


def _run_child(lane, fd: int):
    """The forked child's whole life: run lane, write one JSON line
    [key, [passed, detail, traceback text]] per check to fd, and leave
    through os._exit, so that nothing of the parent's stack, buffers or
    exit handlers runs here."""
    status = 1
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as out:
            for outcome in _outcomes(lane):
                out.write(json.dumps(outcome) + "\n")
                out.flush()
        status = 0
    finally:
        os._exit(status)


def _exit_text(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
    return f"check process {how} before reporting"


def run_in_lanes(ctx, checks, parent_keys) -> list:
    """verify._report of every (key, check) of checks over ctx; those named
    in parent_keys (lane A) run here, in their order, the others (lane B)
    in one forked child.  A check the child did not report before it
    ended fails with the child's exit status."""
    with contextlib.suppress(Exception):  # an error here is met and reported by a check
        ctx.table  # built here, the child shares it copy-on-write
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
    try:
        with os.fdopen(read_fd, encoding="utf-8") as pipe:
            outcomes = dict(_outcomes(lane_a))
            # a line the child did not end was cut short when it died
            outcomes.update(json.loads(line) for line in pipe if line.endswith("\n"))
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return _report(checks, outcomes, _exit_text(os.waitpid(pid, 0)[1]))
