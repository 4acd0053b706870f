"""Every name a package exports in ``__all__`` resolves.

Guards deletions against stale exports: a name left in ``__all__``
after its definition is gone fails here, not at a user's import.
"""

import importlib

import pytest

PACKAGES = (
    "repro",
    "repro.artifacts",
    "repro.dsp",
    "repro.flows",
    "repro.gan",
    "repro.graph",
    "repro.manufacturing",
    "repro.nn",
    "repro.pipeline",
    "repro.runtime",
    "repro.security",
    "repro.streaming",
    "repro.utils",
)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ lists undefined names: {missing}"
    assert len(set(module.__all__)) == len(module.__all__)
