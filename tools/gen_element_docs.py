"""Regenerate docs/ELEMENTS.md from the element registry.

Run from the repository root:  python tools/gen_element_docs.py
"""

import inspect
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


TITLES = {
    "infrastructure": "Infrastructure (queues, fan-out, sources, sinks)",
    "ip": "IP forwarding path",
    "classifiers": "Classification",
    "arp": "ARP",
    "ethernet": "Ethernet",
    "icmp": "ICMP errors",
    "ping": "ICMP echo",
    "routing": "Routing tables",
    "combos": "Combination elements (installed by click-xform)",
    "devices": "Devices",
    "aqm": "Active queue management",
    "align": "Alignment (click-align)",
    "scheduling": "Schedulers and metadata",
    "dump": "Traces (pcap)",
    "udpip": "UDP/IP encapsulation",
}


def generate():
    """The docs/ELEMENTS.md contents for the current registry."""
    from repro.elements.registry import ELEMENT_CLASSES

    groups = {}
    for name, cls in sorted(ELEMENT_CLASSES.items()):
        module = cls.__module__.rsplit(".", 1)[-1]
        groups.setdefault(module, []).append((name, cls))

    lines = [
        "# Element reference",
        "",
        "All element classes in the registry, grouped by module.  Each entry",
        "shows the class-level specifications the tools scrape (§5.3): the",
        "processing code, flow code, and port counts, and the run-time state the",
        "class declares in `STATE`: each field with what a hot-swap does to it",
        "(`carry` or `reset`) and how a sharded plane merges it (`sum`, `max` or",
        "`first`).  This file is generated from the registry by",
        "`python tools/gen_element_docs.py`; a test keeps it in sync.",
        "",
    ]
    for module in sorted(groups):
        lines.append("## %s" % TITLES.get(module, module))
        lines.append("")
        lines.append("| class | processing | flow | ports | state | summary |")
        lines.append("|---|---|---|---|---|---|")
        for name, cls in groups[module]:
            doc = (inspect.getdoc(cls) or "").split("\n")[0].strip()
            if len(doc) > 90:
                doc = doc[:87] + "..."
            doc = doc.replace("|", "\\|")
            state = ", ".join(
                "`%s` %s/%s" % (field, swap, merge) for field, (swap, merge) in cls.STATE.items()
            )
            lines.append(
                "| `%s` | `%s` | `%s` | `%s` | %s | %s |"
                % (name, cls.processing, cls.flow_code, cls.port_counts, state or "—", doc)
            )
        lines.append("")
    return "\n".join(lines) + "\n"


def main():
    """Write the generated reference next to the other docs."""
    import repro.elements  # noqa: F401 - populate the registry

    path = os.path.join(os.path.dirname(__file__), "..", "docs", "ELEMENTS.md")
    with open(path, "w") as handle:
        handle.write(generate())
    print("wrote", os.path.normpath(path))


if __name__ == "__main__":
    main()
