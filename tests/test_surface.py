"""Names that code outside the package relies on.

The benchmark's tracer (`bench/spans.py`) wraps each of its ENTRY_POINTS and
silently skips one it cannot find, which would leave that layer's metrics at
zero; every other name a `bench/` script reads from the package must still
resolve, and so must every attribute a bench script reads from a workload's
`ModelConfig`, and every keyword a bench script passes to the oracle
`tests/reference.py`; the package root exports exactly the names the README
documents, and the README names exactly the model switches `lmn train` takes.
"""

import argparse
import ast
import glob
import importlib
import importlib.util
import inspect
import os
import re

import pytest

import lmn
import reference
from lmn import word_memory
from lmn.cli import build_parser

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


def _bench_model_reads():
    """Each `<x>.model.<attr>` a bench script reads: the attributes of a
    workload's `ModelConfig`."""
    attrs = set()
    for path in sorted(glob.glob(os.path.join(ROOT, "bench", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "model"):
                attrs.add(node.attr)
    return sorted(attrs)


@pytest.mark.parametrize("attr", _bench_model_reads())
def test_bench_model_read_resolves(attr):
    assert hasattr(lmn.ModelConfig(), attr), f"bench/ reads ModelConfig.{attr}, which is gone"


def _bench_reference_calls():
    """(path, positional count, keyword names) of each bench/*.py call to
    `reference_forward`."""
    calls = []
    for path in sorted(glob.glob(os.path.join(ROOT, "bench", "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "reference_forward" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                calls.append((os.path.basename(path), len(node.args),
                              [kw.arg for kw in node.keywords]))
    return calls


def test_bench_reference_call_binds():
    """The bench's desk gate calls the oracle by keyword; a parameter it
    passes that the oracle dropped would raise TypeError only in a bench run."""
    calls = _bench_reference_calls()
    assert calls, "bench/ no longer calls reference_forward"
    signature = inspect.signature(reference.reference_forward)
    for path, positional, keywords in calls:
        try:
            signature.bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"bench/{path} calls reference_forward: {exc}")


def test_word_memory_has_no_gram_threshold():
    # bench/spans.py::_gram_path reads word_memory.GRAM_MIN_VOCAB with getattr:
    # a constant of that name would switch the bench's per-layer FLOP formula
    # from the Gram product to the two |V| x d products, with no error
    assert not hasattr(word_memory, "GRAM_MIN_VOCAB")


def _readme():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def test_package_exports_are_the_documented_surface():
    readme = _readme()
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`([A-Za-z_]\w*)`", section))
    assert documented == set(lmn.__all__)
    assert all(hasattr(lmn, name) for name in lmn.__all__)


def test_readme_names_the_model_switches():
    paragraph = _readme().split("\nModel switches:", 1)[1].split("\n\n", 1)[0]
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (group,) = [g for g in commands.choices["train"]._action_groups
                if g.title == "model settings (ModelConfig)"]
    flags = {flag for action in group._group_actions for flag in action.option_strings}
    assert set(re.findall(r"--[a-z][a-z-]*", paragraph)) == flags


def test_cli_imports_only_the_public_library():
    """The CLI parses, checks paths and prints: it calls the library's
    public functions, never a private name or a layer module."""
    path = os.path.join(ROOT, "src", "lmn", "cli.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    layers = ("frame_encoder", "subtitle_memory")
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            bad += [f"from {module} import {alias.name}" for alias in node.names
                    if module.split(".")[-1] in layers or alias.name in layers
                    or alias.name.startswith("_")]
        elif isinstance(node, ast.Import):
            bad += [f"import {alias.name}" for alias in node.names
                    if alias.name.split(".")[-1] in layers]
    assert bad == []
