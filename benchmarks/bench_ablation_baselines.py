"""Ablation: CGAN vs direct density estimation vs simple baselines.

The paper's core modeling claim: the CGAN generator "never sees the
real data [and] estimates the distribution without overfitting on the
currently limited data, thus providing better distribution estimation".
This ablation pits the trained CGAN attacker against

* direct empirical resampling of the recorded data (Parzen on real
  samples),
* a per-condition diagonal Gaussian fit,
* a density-free nearest-centroid classifier, and
* an *unconditional* GAN (no conditioning — the control showing the
  conditional structure is what carries the security signal),

in both a data-rich and a data-poor (weak attacker) regime.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import BENCH_SEED, shape_check
from repro.gan import GAN, ConditionalGAN
from repro.security import EmissionModel
from repro.security.baselines import (
    EmpiricalConditionalSampler,
    GaussianConditionalSampler,
    NearestCentroidAttacker,
)
from repro.utils.tables import format_table

ITERATIONS = 1500


def _cgan_attacker_accuracy(train, test):
    cgan = ConditionalGAN(train.feature_dim, train.condition_dim, seed=BENCH_SEED)
    cgan.train(train, iterations=ITERATIONS, batch_size=32)
    attacker = EmissionModel(
        cgan, test.unique_conditions(), h=0.2, g_size=200, root_entropy=BENCH_SEED
    )
    return attacker.leakage(test).accuracy


def _sampler_attacker_accuracy(sampler, test):
    attacker = EmissionModel(
        sampler, test.unique_conditions(), h=0.2, g_size=200, root_entropy=BENCH_SEED
    )
    return attacker.leakage(test).accuracy


def _uncond_gan_accuracy(train, test):
    gan = GAN(train.feature_dim, seed=BENCH_SEED)
    gan.train(train.features, iterations=ITERATIONS, batch_size=32)

    def sampler(cond, n, rng):
        return gan.generate(n, seed=rng)

    return _sampler_attacker_accuracy(sampler, test)


def _regime(train, test):
    return {
        "conditional GAN (GAN-Sec)": _cgan_attacker_accuracy(train, test),
        "empirical resampling": _sampler_attacker_accuracy(
            EmpiricalConditionalSampler(train, jitter=0.02), test
        ),
        "per-condition Gaussian": _sampler_attacker_accuracy(
            GaussianConditionalSampler(train), test
        ),
        "nearest centroid": NearestCentroidAttacker(train).accuracy(test),
        "unconditional GAN (control)": _uncond_gan_accuracy(train, test),
    }


def test_ablation_baselines(benchmark, bench_split):
    train, test = bench_split
    rich = benchmark.pedantic(_regime, args=(train, test), iterations=1, rounds=1)
    poor_train = train.take(max(9, len(train) // 6), seed=BENCH_SEED)
    poor = _regime(poor_train, test)

    rows = [
        [name, rich[name], poor[name]]
        for name in rich
    ]
    print()
    print("=" * 70)
    print("Ablation: attacker model comparison (accuracy, chance = 0.333)")
    print("=" * 70)
    print(
        format_table(
            rows,
            ["attacker model", f"full data (n={len(train)})",
             f"weak attacker (n={len(poor_train)})"],
            title="side-channel inference accuracy on the held-out test set",
        )
    )
    print()
    print("-- shape checks --")
    print(
        shape_check(
            "conditional structure matters: CGAN beats unconditional GAN",
            rich["conditional GAN (GAN-Sec)"]
            > rich["unconditional GAN (control)"] + 0.1,
        )
    )
    print(
        shape_check(
            "CGAN attacker is competitive with direct estimation (full data)",
            rich["conditional GAN (GAN-Sec)"]
            >= rich["empirical resampling"] - 0.2,
        )
    )
    print(
        shape_check(
            "every conditional model beats the unconditional control",
            min(
                v
                for k, v in rich.items()
                if k != "unconditional GAN (control)"
            )
            > rich["unconditional GAN (control)"],
        )
    )
