"""Leave no process behind.

The sharded workload spawns workers through ``multiprocessing``, which
also starts a resource tracker that ends only *after* the process that
started it — an orphan no one waits for.  A killed worker, or a run
that dies half way, can leave more.  So the benchmark runs as a child
of a supervisor that makes itself the *subreaper* of its descendants:
whatever outlives its parent is handed to the supervisor, which waits
until every one has ended — and kills what does not end by itself —
before it exits, on every path out."""

import ctypes
import os
import signal
import subprocess
import sys
import time

_PR_SET_CHILD_SUBREAPER = 36
GRACE_SECONDS = 5.0  # how long descendants get to end by themselves


def adopt_orphans():
    """Make this process the parent of every descendant whose own
    parent ends (Linux).  Returns False where that cannot be done."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        return prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def children():
    """Process ids whose parent is this process, zombies included."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                # "pid (comm) state ppid ..."; comm may hold anything
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue  # ended while we looked
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def reap(grace):
    """Wait until this process has no children left.  Those still
    running ``grace`` seconds from now are killed; what they leave
    behind is handed to us in turn and treated the same."""
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # none left
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


class _Stopped(Exception):
    pass


def _stop(signum, _frame):
    raise _Stopped(signum)


def supervise(command, env, grace=GRACE_SECONDS):
    """Run ``command`` to its end, then wait for (or kill) everything
    it left; returns its exit code.  A signal that asks us to stop
    kills all of it at once."""
    if not adopt_orphans():
        sys.stderr.write("bench: cannot adopt orphans here; a process may be left behind\n")
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _stop)
    try:
        code = subprocess.Popen(command, env=env).wait()
        if code < 0:  # ended by a signal
            code = 128 - code
    except _Stopped as stopped:
        code, grace = 128 + stopped.args[0], 0.0
    finally:
        for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
            signal.signal(signum, signal.SIG_IGN)
        reap(grace)
    return code
