"""The userlevel driver: run a configuration from the command line.

The analogue of the ``click`` userlevel binary: parse a configuration
(plain or archive), build the runtime router, drive the polling
scheduler for a number of iterations, then report handler values.
Devices named in the configuration are created as loopback devices
unless a pcap file is mapped onto them with ``--device``.

    click-run router.click --iterations 1000 \\
        --device eth0=in.pcap --save-device eth1=out.pcap \\
        --handler c.count
"""

from __future__ import annotations

import argparse
import sys

from ..elements.devices import LoopbackDevice
from ..elements.runtime import Router
from ..net.pcap import read_pcap, write_pcap
from ..runtime.shard import device_names_of
from .flatten import flatten
from .toolchain import load_config


def run_config(
    text,
    iterations=1000,
    device_captures=None,
    filename="<config>",
):
    """Build and drive a configuration; returns (router, devices)."""
    graph = load_config(text, filename)
    if graph.element_classes:
        graph = flatten(graph)
    devices = {}
    for name in sorted(device_names_of(graph)):
        devices[name] = LoopbackDevice(name, tx_capacity=1 << 30)
    for name, blob in (device_captures or {}).items():
        if name not in devices:
            devices[name] = LoopbackDevice(name, tx_capacity=1 << 30)
        for _, frame in read_pcap(blob):
            devices[name].receive_frame(frame)
    router = Router(graph, devices=devices)
    router.run_tasks(iterations)
    return router, devices


def main(argv=None):
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        description="Run a Click configuration (userlevel driver)."
    )
    parser.add_argument("file", nargs="?", default="-", help="configuration (default stdin)")
    parser.add_argument("-n", "--iterations", type=int, default=1000)
    parser.add_argument(
        "-d", "--device", action="append", default=[], metavar="DEV=PCAP",
        help="feed a device from a pcap capture (repeatable)",
    )
    parser.add_argument(
        "-s", "--save-device", action="append", default=[], metavar="DEV=PCAP",
        help="write a device's transmitted frames to a pcap file",
    )
    parser.add_argument(
        "-H", "--handler", action="append", default=[], metavar="ELEMENT.HANDLER",
        help="print a read handler's value after the run (repeatable)",
    )
    args = parser.parse_args(argv)

    text = sys.stdin.read() if args.file == "-" else open(args.file).read()
    captures = {}
    for spec in args.device:
        name, _, path = spec.partition("=")
        with open(path, "rb") as handle:
            captures[name] = handle.read()

    router, devices = run_config(
        text, iterations=args.iterations, device_captures=captures, filename=args.file
    )

    for spec in args.save_device:
        name, _, path = spec.partition("=")
        frames = devices[name].transmitted if name in devices else []
        with open(path, "wb") as handle:
            handle.write(write_pcap(frames))

    for path in args.handler:
        sys.stdout.write("%s: %s\n" % (path, router.read_handler(path)))
    if not args.handler:
        for name, device in sorted(devices.items()):
            sys.stdout.write("%s: %d transmitted\n" % (name, len(device.transmitted)))
    return 0
