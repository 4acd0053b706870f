"""Smoke checks on the example scripts and the benchmark modules.

Each example guards its work behind ``if __name__ == "__main__"``, so
importing the module executes only definitions — verifying that every
example's imports and top-level code stay in sync with the library API
without paying for full runs in the unit-test suite.  The benchmarks
(outside ``testpaths``) get the same import check, so a library change
that breaks one fails here rather than at the next benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_FILES = sorted((ROOT / "examples").glob("*.py"))
BENCHMARK_FILES = sorted((ROOT / "benchmarks").glob("*.py"))


def _import_file(path, prefix):
    spec = importlib.util.spec_from_file_location(f"{prefix}_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    saved_path = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
        sys.path[:] = saved_path
    return module


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
def test_example_imports_cleanly(path):
    module = _import_file(path, "example")
    assert hasattr(module, "main"), f"{path.name} must define main()"


@pytest.mark.parametrize("path", BENCHMARK_FILES, ids=lambda p: p.stem)
def test_benchmark_imports_cleanly(path):
    _import_file(path, "benchmark")


def test_expected_examples_present():
    names = {p.stem for p in EXAMPLE_FILES}
    assert {
        "quickstart",
        "side_channel_attack",
        "attack_detection",
        "cross_subsystem_analysis",
        "gcode_playground",
    } <= names
