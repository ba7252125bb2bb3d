"""Meta tests: the documentation deliverables stay intact.

Every public module, class, and function must carry a doc comment; the
project documents (README / DESIGN / EXPERIMENTS) must exist and cover
every figure.
"""

import glob
import importlib
import inspect
import os
import pkgutil
import re

import pytest

import repro

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _public_modules():
    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        modules.append(importlib.import_module(info.name))
    return modules


class TestDocstrings:
    def test_every_module_has_a_docstring(self):
        for module in _public_modules():
            assert module.__doc__ and module.__doc__.strip(), module.__name__

    def test_every_public_class_and_function_documented(self):
        undocumented = []
        for module in _public_modules():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-export; documented at its definition
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append("%s.%s" % (module.__name__, name))
        assert not undocumented, "undocumented public items: %s" % ", ".join(undocumented)

    def test_public_methods_of_key_classes_documented(self):
        from repro.classifier.tree import DecisionTree
        from repro.elements.element import Element
        from repro.elements.runtime import Router
        from repro.graph.router import RouterGraph

        for cls in (Element, Router, RouterGraph, DecisionTree):
            for name, member in vars(cls).items():
                if name.startswith("_") or not inspect.isfunction(member):
                    continue
                assert member.__doc__ or name in (
                    "configure", "initialize", "push", "pull",
                ), "%s.%s lacks a docstring" % (cls.__name__, name)


class TestProjectDocuments:
    @pytest.mark.parametrize(
        "filename", ["README.md", "DESIGN.md", "EXPERIMENTS.md",
                     "docs/LANGUAGE.md", "docs/TOOLS.md"]
    )
    def test_document_exists(self, filename):
        path = os.path.join(REPO_ROOT, filename)
        assert os.path.exists(path), filename
        assert len(open(path).read()) > 500

    def test_experiments_covers_every_figure(self):
        text = open(os.path.join(REPO_ROOT, "EXPERIMENTS.md")).read()
        for figure in ("Figure 8", "Figure 9", "Figure 10", "Figure 11",
                       "Figure 12", "Figure 13", "Figure 3", "firewall"):
            assert figure in text, figure

    def test_design_maps_experiments_to_benches(self):
        """Every bench module is a written-up experiment, and no living
        document or source file points at a bench file that is gone
        (CHANGES.md, EXPERIMENTS.md and bench/README.md are history)."""

        def read(*parts):
            with open(os.path.join(REPO_ROOT, *parts)) as fh:
                return fh.read()

        design, experiments = read("DESIGN.md"), read("EXPERIMENTS.md")
        benches = {
            name
            for name in os.listdir(os.path.join(REPO_ROOT, "benchmarks"))
            if name.endswith(".py")
        }
        for name in benches:
            if name.startswith("bench_fig"):
                assert name in design, "DESIGN.md experiment index missing %s" % name
            elif name.startswith("bench_"):
                assert name in design or name in experiments, (
                    "%s is in neither DESIGN.md nor EXPERIMENTS.md" % name
                )

        living = [os.path.join(REPO_ROOT, name) for name in ("README.md", "DESIGN.md")]
        living += glob.glob(os.path.join(REPO_ROOT, "docs", "*.md"))
        living += glob.glob(os.path.join(REPO_ROOT, "src", "**", "*.py"), recursive=True)
        for path in living:
            text = read(path)
            for name in re.findall(r"\b(?:benchmarks/|(?=bench_))(\w+\.py)", text):
                assert name in benches, "%s names %s" % (path, name)
            for name in re.findall(r"\bBENCH_\w+\.json", text):
                assert os.path.exists(os.path.join(REPO_ROOT, name)), "%s names %s" % (path, name)

    def test_element_reference_in_sync_with_registry(self):
        """docs/ELEMENTS.md is generated; regenerate on drift."""
        import sys

        sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
        try:
            import gen_element_docs
        finally:
            sys.path.pop(0)
        expected = gen_element_docs.generate()
        actual = open(os.path.join(REPO_ROOT, "docs", "ELEMENTS.md")).read()
        assert actual == expected, (
            "docs/ELEMENTS.md is stale; run: python tools/gen_element_docs.py"
        )
