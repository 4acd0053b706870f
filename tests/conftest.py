"""Shared fixtures.

Expensive artifacts (the simulated case-study dataset and a trained
CGAN) are session-scoped: the printer simulation and GAN training run
once and are reused by every test that needs realistic data.

The trained CGAN is additionally cached on disk (under pytest's cache
directory) behind a key derived from the training data, the
hyperparameters, and the training source code — so repeated local runs
and CI re-runs skip the ~20 s of GAN training entirely.  Any change to
the dataset, the trainer, or the numeric kernels changes the key and
forces a retrain; stale weights are never reused.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from repro.flows.dataset import FlowPairDataset
from repro.gan import ConditionalGAN
from repro.manufacturing import record_case_study_dataset

_CGAN_TRAIN_PARAMS = {"seed": 7, "iterations": 600, "batch_size": 32}

#: Source files whose behavior the trained weights depend on.  Hashing
#: them into the cache key invalidates cached weights whenever the
#: trainer or its numeric kernels change.
_CGAN_SOURCE_DEPS = ("gan", "nn")


@pytest.fixture(scope="session")
def case_study():
    """(dataset, extractor, encoder, runs) from a small simulated recording."""
    return record_case_study_dataset(n_moves_per_axis=15, seed=1234)


@pytest.fixture(scope="session")
def case_dataset(case_study):
    return case_study[0]


@pytest.fixture(scope="session")
def case_split(case_dataset):
    return case_dataset.split(0.3, seed=99)


def _trained_cgan_cache_key(train: FlowPairDataset) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(train.features).tobytes())
    digest.update(np.ascontiguousarray(train.conditions).tobytes())
    digest.update(repr(sorted(_CGAN_TRAIN_PARAMS.items())).encode())
    src_root = Path(__file__).resolve().parent.parent / "src" / "repro"
    for package in _CGAN_SOURCE_DEPS:
        for path in sorted((src_root / package).rglob("*.py")):
            digest.update(path.read_bytes())
    return digest.hexdigest()[:32]


@pytest.fixture(scope="session")
def trained_cgan(case_split, request, tmp_path_factory):
    """A CGAN trained on the case-study split, cached on disk by key.

    Weights round-trip exactly through ``save_cgan``/``load_cgan``
    (float64 ``.npz``), and every test that samples from the fixture
    passes an explicit seed, so a cache hit is observationally
    identical to a fresh training run.  Without pytest's cache plugin
    (``-p no:cacheprovider``) the model is kept for this session only.
    """
    from repro.gan.serialization import load_cgan, save_cgan

    train, _test = case_split
    cache = getattr(request.config, "cache", None)
    if cache is not None:
        cache_root = cache.mkdir("gansec-trained-cgan")
    else:
        cache_root = tmp_path_factory.mktemp("gansec-trained-cgan")
    model_dir = Path(cache_root) / _trained_cgan_cache_key(train)
    if (model_dir / "cgan.json").exists():
        try:
            return load_cgan(model_dir)
        except Exception:
            pass  # corrupt cache entry: retrain below and overwrite
    cgan = ConditionalGAN(train.feature_dim, train.condition_dim,
                          seed=_CGAN_TRAIN_PARAMS["seed"])
    cgan.train(
        train,
        iterations=_CGAN_TRAIN_PARAMS["iterations"],
        batch_size=_CGAN_TRAIN_PARAMS["batch_size"],
    )
    save_cgan(cgan, model_dir)
    return cgan


@pytest.fixture()
def toy_dataset():
    """Small synthetic 2-condition dataset with well-separated features.

    Condition [1,0] puts mass near 0.2, condition [0,1] near 0.8 — easy
    enough that even briefly-trained models behave predictably.
    """
    rng = np.random.default_rng(0)
    n = 120
    half = n // 2
    f1 = np.clip(rng.normal(0.2, 0.05, size=(half, 4)), 0, 1)
    f2 = np.clip(rng.normal(0.8, 0.05, size=(half, 4)), 0, 1)
    c1 = np.tile([1.0, 0.0], (half, 1))
    c2 = np.tile([0.0, 1.0], (half, 1))
    return FlowPairDataset(
        np.vstack([f1, f2]), np.vstack([c1, c2]), name="toy"
    )
