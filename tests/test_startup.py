"""Start-up guard: no ``repro`` module needs scipy.

The CWT runs on ``numpy.fft`` and the AUC counts with numpy, so a fresh
interpreter that imports every module under ``repro`` and runs both must
not have loaded ``scipy`` (which alone cost about a third of every CLI
start-up).
"""

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
from repro.dsp.wavelet import average_band_energy_batch
from repro.security.detection import roc_auc
average_band_energy_batch(
    np.random.default_rng(0).normal(size=(2, 600)), 12000.0, np.geomspace(50, 5000, 100)
)
roc_auc([1.0, 2.0, 2.0], [2.0, -np.inf])
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_no_module_imports_scipy():
    proc = _run("-c", IMPORT_ALL)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_cli_help_exits_zero():
    proc = _run("-m", "repro.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout
