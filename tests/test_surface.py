"""Names that code outside the package relies on.

The benchmark's tracer (`bench/spans.py`) wraps each of its ENTRY_POINTS and
silently skips one it cannot find, which would leave that layer's metrics at
zero; the package root exports exactly the names the README documents.
"""

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


def test_package_exports_are_the_documented_surface():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`([A-Za-z_]\w*)`", section))
    assert documented == set(lmn.__all__)
    assert all(hasattr(lmn, name) for name in lmn.__all__)
