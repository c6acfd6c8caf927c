"""Two independent halves of a job at once: one in a forked child, one
in this process.

The child is forked from this process, so it starts with everything the
parent holds, and it hands back one pickled result through a pipe.  A
fork costs a few milliseconds, so small jobs run both halves here.
"""

from __future__ import annotations

import os

# The least field degree at which a job forks.  On 2 vCPUs, with the
# second one free, both sites of a synth job cost the same in process
# and forked near 5,000 padded coloring edges, which n = 46 to 52 reach,
# at about 12 ms a site.  A job of n <= 19 takes 2 ms a site in process
# and 5 ms forked; a B163 job forked takes 0.61x for its colorings and
# 0.69x for its report and write.  With the second vCPU busy a fork
# pays at no n: a whole B163 synth then took 1.04-1.07x as long forked.
FANOUT_MIN_DEGREE = 50


def fork_join(n: int, child, parent) -> tuple:
    """``(child(), parent())`` for a job over a field of degree ``n``,
    with ``child()`` run in a forked process while ``parent()`` runs
    here when n is at least FANOUT_MIN_DEGREE; otherwise both run here,
    ``child()`` first.

    An exception in the child is raised here, with its type and message;
    a failed fork, or a child that ends without a result, raises
    RuntimeError.  The child is reaped on every path, killed first if
    ``parent()`` raises.
    """
    if n < FANOUT_MIN_DEGREE:
        return child(), parent()
    # Loaded here, not with the module: a job too small to fork has no
    # use for them, and pickle adds 0.35 MB to its 17 MB peak.
    import pickle
    import signal

    rfd, wfd = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:  # out of processes or memory
        os.close(rfd)
        os.close(wfd)
        raise RuntimeError(f"cannot fork: {exc}") from exc
    if pid == 0:
        os.close(rfd)
        _run_child(wfd, child)
    os.close(wfd)
    try:
        with os.fdopen(rfd, "rb") as pipe:
            mine = parent()
            payload = pipe.read()
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not payload:
        raise RuntimeError(f"forked child exited with code {code}")
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return value, mine


def _run_child(wfd: int, child):
    """Send ``(True, child())``, or ``(False, exception)``, down ``wfd``
    and leave the process: never return into the caller's frames, and
    never run the parent's exit handlers or flush its buffers."""
    import pickle

    code = 1
    try:
        try:
            result = (True, child())
        except BaseException as exc:  # raised again in the parent
            result = (False, exc)
        with os.fdopen(wfd, "wb") as pipe:
            pipe.write(pickle.dumps(result))
        code = 0
    finally:
        os._exit(code)
