"""Start-up guard: no ``repro`` module needs networkx or scipy.

The CWT runs on ``numpy.fft``, the AUC counts with numpy, and Algorithm 1
walks the architecture's own successor map, so a fresh interpreter that
imports every module under ``repro`` and runs all three must not have
loaded ``scipy`` (which alone cost about a third of every CLI start-up)
or ``networkx`` (about a quarter).
"""

#: Packages no ``repro`` module may load.
BANNED = ("scipy", "networkx")

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

IMPORT_ALL = """
import importlib, json, pkgutil, sys
import numpy as np
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
from repro.dsp.features import FrequencyFeatureExtractor
from repro.security.roc import roc_auc
FrequencyFeatureExtractor(12000.0).raw_feature_matrix(
    np.random.default_rng(0).normal(size=(2, 600))
)
roc_auc([1.0, 2.0, 2.0], [2.0, -np.inf])
from repro.graph import generate
from repro.manufacturing import monitored_flow_names, printer_architecture
generate(printer_architecture(), monitored_flow_names())
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in %r)))
""" % (BANNED,)


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_no_module_imports_networkx_or_scipy():
    proc = _run("-c", IMPORT_ALL)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_cli_help_exits_zero():
    proc = _run("-m", "repro.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout
