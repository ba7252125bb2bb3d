"""What the harness can say about the machine it ran on."""

import os
import platform
import sys


def fingerprint():
    """Processor count, Python build and load average at start: enough
    to tell two result files from different hosts apart."""
    try:
        load = "%.2f" % os.getloadavg()[0]
    except OSError:
        load = "unknown"
    return {
        "nproc": os.cpu_count() or 1,
        "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
        "build": " ".join(platform.python_build()),
        "machine": platform.machine(),
        "loadavg_1m": load,
        "hashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "switchinterval": sys.getswitchinterval(),
    }
