"""Names that code outside the package relies on.

The benchmark's tracer (`bench/spans.py`) wraps each of its ENTRY_POINTS and
silently skips one it cannot find, which would leave that layer's metrics at
zero; every other name a `bench/` script reads from the package must still
resolve; the package root exports exactly the names the README documents.
"""

import ast
import glob
import importlib
import importlib.util
import os
import re

import pytest

import lmn

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_entry_points():
    """ENTRY_POINTS read from bench/spans.py without running its tracer."""
    spec = importlib.util.spec_from_file_location("bench_spans", os.path.join(ROOT, "bench", "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.ENTRY_POINTS


@pytest.mark.parametrize("module_name,attr,span", _bench_entry_points(),
                         ids=str)
def test_bench_entry_point_resolves(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} (span {span}) is gone"


# the package modules the bench scripts import and call through by name
_BENCH_MODULES = ("data_io", "training", "subtitle_memory", "word_memory")


def _bench_names():
    """(module, name) for each `data_io.X`, `training.X`, `subtitle_memory.X`
    and `word_memory.X` reference in bench/*.py, and for each name a bench
    script imports with `from lmn... import`."""
    names = set()
    for path in sorted(glob.glob(os.path.join(ROOT, "bench", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in _BENCH_MODULES):
                names.add((f"lmn.{node.value.id}", node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lmn":
                names.update((node.module, alias.name) for alias in node.names)
    return sorted(names)


@pytest.mark.parametrize("module_name,attr", _bench_names(), ids=lambda v: v)
def test_bench_name_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    found = hasattr(module, attr) or importlib.util.find_spec(f"{module_name}.{attr}") is not None
    assert found, f"bench/ reads {module_name}.{attr}, which is gone"


def test_package_exports_are_the_documented_surface():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`([A-Za-z_]\w*)`", section))
    assert documented == set(lmn.__all__)
    assert all(hasattr(lmn, name) for name in lmn.__all__)
