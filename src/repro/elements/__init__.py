"""The element library: every packet-processing class the IP router and
the evaluation configurations use, plus the runtime Router that drives
them.

Importing this package populates the global element registry."""

from . import align, aqm, arp, classifiers, combos, devices, dump, ethernet, hotswap, icmp, infrastructure, ip, ping, routing, scheduling, udpip  # noqa: F401
from .hotswap import HotswapError, SwapReport, hotswap as hotswap_router
from .classifiers import (
    CLASSIFIER_CLASS_NAMES,
    Classifier,
    FastClassifierBase,
    IPClassifier,
    IPFilter,
    make_fast_classifier_class,
)
from .devices import LoopbackDevice
from .element import ConfigError, Element, ElementError, InputPort, OutputPort
from .registry import ELEMENT_CLASSES, default_specs, export_specs, lookup, parse_spec_file, register
from .runtime import Router, build_router, compile_archive_classes

__all__ = [
    "HotswapError",
    "SwapReport",
    "hotswap_router",
    "CLASSIFIER_CLASS_NAMES",
    "Classifier",
    "FastClassifierBase",
    "IPClassifier",
    "IPFilter",
    "make_fast_classifier_class",
    "LoopbackDevice",
    "ConfigError",
    "Element",
    "ElementError",
    "InputPort",
    "OutputPort",
    "ELEMENT_CLASSES",
    "default_specs",
    "export_specs",
    "lookup",
    "parse_spec_file",
    "register",
    "Router",
    "build_router",
    "compile_archive_classes",
]
