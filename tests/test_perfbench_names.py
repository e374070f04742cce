"""The library names the benchmark looks up must exist.

``perfbench/spans.py`` wraps the functions it traces by module and
attribute path, and the workloads and the scaling report call the
library through module attributes, so a deleted or renamed function
breaks the benchmark without failing any library test.  These tests read
the benchmark's files without changing them: they load ``spans.py`` and
``workloads.py`` by path (no bytecode is written) and resolve, by
``ast``, every attribute the benchmark scripts take from a ``subrec``
module.
"""

import ast
import importlib
import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_span_resolves(monkeypatch):
    spans = _load("spans", monkeypatch)
    assert spans.SPANS
    for span, module_name, path in spans.SPANS:
        assert callable(_resolve(module_name, path)), span


def test_workloads_import_and_name_their_library_calls(monkeypatch):
    workloads = _load("workloads", monkeypatch)
    assert set(workloads.WORKLOADS) == {"certify", "wide", "discover"}


def _library_attributes(source):
    """(module, attribute path) of every attribute chain that starts at a
    name bound to a ``subrec`` module by ``import`` or ``from subrec import``."""
    tree = ast.parse(source)
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "subrec":
            roots.update({alias.asname or alias.name: f"subrec.{alias.name}"
                          for alias in node.names})
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "subrec" or alias.name.startswith("subrec."):
                    importlib.import_module(alias.name)  # binds the submodule
                    if alias.asname:
                        roots[alias.asname] = alias.name
                    else:
                        roots["subrec"] = "subrec"
    found = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in roots:
            found.add((roots[node.id], ".".join(reversed(parts))))
    return found


@pytest.mark.parametrize("script", ["workloads", "scaling"])
def test_library_attributes_used_by_the_benchmark_scripts_resolve(script):
    used = _library_attributes((PERFBENCH / f"{script}.py").read_text(encoding="utf-8"))
    assert used
    for module_name, path in sorted(used):
        _resolve(module_name, path)
