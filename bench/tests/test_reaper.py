"""The supervisor waits for, or kills, whatever a run leaves behind."""

import os
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Supervises a child that starts a process and ends without waiting
#: for it; prints the exit code it was given.
SUPERVISOR = """
import sys
sys.path.insert(0, %r)
from routerbench import reaper
child = ("import subprocess, sys; p = subprocess.Popen([sys.executable, '-c', %%r]); "
         "open(sys.argv[1], 'w').write(str(p.pid)); sys.exit(7)" %% sys.argv[2])
print(reaper.supervise([sys.executable, "-c", child, sys.argv[1]], None, grace=0.5))
""" % BENCH


def supervise(tmp_path, orphan_source):
    pid_file = tmp_path / "pid"
    started = time.monotonic()
    done = subprocess.run([sys.executable, "-c", SUPERVISOR, str(pid_file), orphan_source],
                          stdout=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode == 0 and done.stdout.strip() == "7"  # the child's own code
    return int(pid_file.read_text()), time.monotonic() - started


def gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False  # running, or a zombie no one waited for


def test_an_orphan_that_ends_by_itself_is_waited_for(tmp_path):
    pid, _elapsed = supervise(tmp_path, "import time; time.sleep(0.2)")
    assert gone(pid)


def test_an_orphan_that_does_not_end_is_killed_after_the_grace(tmp_path):
    pid, elapsed = supervise(tmp_path, "import time; time.sleep(600)")
    assert gone(pid)
    assert 0.5 <= elapsed < 30
