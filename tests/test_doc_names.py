"""Every backticked ``repro.<dotted>`` name in the docs exists.

A doc row that cites a deleted module, or a method under the wrong
owner, fails here instead of sending a reader to code that is not there.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/paper_mapping.md")
# The leading dotted name of a backticked span; call syntax after it
# (`repro.x.f(a, b)`) is ignored.
NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)[^`]*`")


def _resolves(dotted):
    """Import the longest module prefix of *dotted*, then walk attributes."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_names_resolve(doc):
    names = sorted(set(NAME.findall((ROOT / doc).read_text(encoding="utf-8"))))
    assert names, f"{doc} cites no repro names; is the pattern stale?"
    missing = [name for name in names if not _resolves(name)]
    assert not missing, f"{doc} cites names that do not exist: {missing}"
