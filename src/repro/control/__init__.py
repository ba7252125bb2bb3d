"""The control plane: incremental configuration updates on a live
router.

§5.1's hot-swap installs "an entirely new configuration" for any
change; under control-plane churn (route flaps, ACL pushes) that price
is paid thousands of times a second for deltas that touch one table.
:class:`ControlPlane` routes each update by its shape instead: pure
data deltas patch compiled tables in place under the live fast path,
and structural deltas change the live router's elements and wiring in
place, emitting again only the chains that hold an element the edit
replaced, rewired or removed.
"""

from .plane import ControlPlane, ControlPlaneError

__all__ = ["ControlPlane", "ControlPlaneError"]
