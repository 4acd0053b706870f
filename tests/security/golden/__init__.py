"""Golden regression fixtures for the Algorithm 3 likelihood tables.

``fixture.json`` pins the correct/incorrect likelihood tables of a
fixed-seed mini experiment run through the parallel engine
(:func:`repro.security.engine.security_analysis`, one call per ``h``).
The regression test recomputes them and compares against the committed
numbers, so any change to the Parzen scoring, the RNG derivation, or
the engine's assembly is caught even when it is numerically
"plausible".  The same tables from one
:func:`~repro.security.engine.security_analysis_h_sweep` pass must be
bitwise equal to the per-``h`` calls.

Regenerate (only after an intentional numerical change) with::

    PYTHONPATH=src python -m tests.security.golden --regen
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.flows.dataset import FlowPairDataset
from repro.security.engine import security_analysis, security_analysis_h_sweep

FIXTURE_PATH = Path(__file__).parent / "fixture.json"

#: Everything that pins the experiment. Changing any of these requires
#: regenerating the fixture.
GOLDEN_ROOT_ENTROPY = 20190325
GOLDEN_H_VALUES = (0.2, 0.6)
GOLDEN_G_SIZE = 64
GOLDEN_PAIR = "golden"


def golden_sampler(condition, n, rng):
    """Deterministic generator stand-in: condition selects the mode."""
    center = float(
        np.dot(np.asarray(condition, dtype=float).ravel(), [0.25, 0.75])
    )
    return rng.normal(center, 0.06, size=(n, 3))


def mini_dataset() -> FlowPairDataset:
    """Fixed 2-condition, 3-feature test set (60 rows, seed-pinned)."""
    rng = np.random.default_rng(42)
    half = 30
    f1 = rng.normal(0.25, 0.06, size=(half, 3))
    f2 = rng.normal(0.75, 0.06, size=(half, 3))
    c1 = np.tile([1.0, 0.0], (half, 1))
    c2 = np.tile([0.0, 1.0], (half, 1))
    return FlowPairDataset(
        np.vstack([f1, f2]), np.vstack([c1, c2]), name=GOLDEN_PAIR
    )


#: The engine arguments of every golden run besides the widths.
GOLDEN_RUN = dict(
    g_size=GOLDEN_G_SIZE, root_entropy=GOLDEN_ROOT_ENTROPY, pair=GOLDEN_PAIR
)


def _tables(results: dict) -> dict:
    """``{repr(h): {table name: nested list}}`` of ``{h: LikelihoodResult}``."""
    return {
        repr(float(h)): {
            "avg_correct": result.avg_correct.tolist(),
            "avg_incorrect": result.avg_incorrect.tolist(),
        }
        for h, result in results.items()
    }


def compute_golden() -> dict:
    """Recompute the pinned tables with the engine (serial, no cache),
    one :func:`security_analysis` call per width."""
    test_set = mini_dataset()
    results = {
        h: security_analysis(golden_sampler, test_set, h=h, **GOLDEN_RUN)
        for h in GOLDEN_H_VALUES
    }
    return {
        "root_entropy": GOLDEN_ROOT_ENTROPY,
        "g_size": GOLDEN_G_SIZE,
        "pair": GOLDEN_PAIR,
        "conditions": test_set.unique_conditions().tolist(),
        "tables": _tables(results),
    }


def compute_golden_sweep() -> dict:
    """The pinned tables from one :func:`security_analysis_h_sweep` pass
    over :data:`GOLDEN_H_VALUES`, keyed as ``compute_golden()["tables"]``."""
    sweep = security_analysis_h_sweep(
        golden_sampler, mini_dataset(), h_values=GOLDEN_H_VALUES, **GOLDEN_RUN
    )
    return _tables(sweep)


def load_fixture() -> dict:
    return json.loads(FIXTURE_PATH.read_text())


def write_fixture() -> Path:
    FIXTURE_PATH.write_text(json.dumps(compute_golden(), indent=2) + "\n")
    return FIXTURE_PATH
