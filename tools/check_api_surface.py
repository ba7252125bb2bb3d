#!/usr/bin/env python
"""Guard the public API surface of repro.core, repro.runtime, and
repro.control.

``repro.core.__all__`` (bare names) plus ``repro.runtime.__all__``
(``runtime.``-qualified) and ``repro.control.__all__``
(``control.``-qualified) are the supported surface;
``docs/api_surface.txt`` is its checked-in copy, one name per line,
sorted.  CI runs this script so any API addition or removal shows up as
an explicit diff in review.  Run with ``--update`` after an intentional
change.
"""

from __future__ import annotations

import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SURFACE_FILE = os.path.join(REPO_ROOT, "docs", "api_surface.txt")


def current_surface():
    """The live surface: sorted ``repro.core.__all__`` plus the
    qualified ``repro.runtime.__all__`` and ``repro.control.__all__``."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    try:
        import repro.control
        import repro.core
        import repro.runtime
    finally:
        sys.path.pop(0)
    names = list(repro.core.__all__)
    names += ["runtime.%s" % name for name in repro.runtime.__all__]
    names += ["control.%s" % name for name in repro.control.__all__]
    return sorted(names)


def recorded_surface():
    """The checked-in surface, or None if the file is missing."""
    if not os.path.exists(SURFACE_FILE):
        return None
    with open(SURFACE_FILE) as handle:
        return [line.strip() for line in handle if line.strip()]


def main(argv=None):
    """Compare (or with --update, rewrite) the recorded surface."""
    argv = sys.argv[1:] if argv is None else argv
    live = current_surface()
    if "--update" in argv:
        with open(SURFACE_FILE, "w") as handle:
            handle.write("\n".join(live) + "\n")
        print("wrote %s (%d names)" % (SURFACE_FILE, len(live)))
        return 0

    recorded = recorded_surface()
    if recorded is None:
        print("missing %s; run: python tools/check_api_surface.py --update" % SURFACE_FILE)
        return 1
    added = sorted(set(live) - set(recorded))
    removed = sorted(set(recorded) - set(live))
    if not added and not removed:
        print("repro.core API surface unchanged (%d names)" % len(live))
        return 0
    print("repro.core API surface drifted from docs/api_surface.txt:")
    for name in added:
        print("  + %s" % name)
    for name in removed:
        print("  - %s" % name)
    print("if intentional, run: python tools/check_api_surface.py --update")
    return 1


if __name__ == "__main__":
    sys.exit(main())
