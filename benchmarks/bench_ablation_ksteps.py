"""Ablation: discriminator steps per generator step (Algorithm 2's k).

The paper parameterizes Algorithm 2 by a step size ``k`` and notes the
iteration counts "can be easily modified" per attacker assumptions.
This ablation sweeps k and reports final losses and attack accuracy.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import BENCH_SEED, shape_check
from repro.gan import ConditionalGAN
from repro.security import EmissionModel
from repro.utils.tables import format_table

K_VALUES = (1, 2, 5)
ITERATIONS = 1200


def _train_and_attack(train, test, k):
    cgan = ConditionalGAN(
        train.feature_dim, train.condition_dim, seed=BENCH_SEED
    )
    cgan.train(train, iterations=ITERATIONS, batch_size=32, k_disc=k)
    final = cgan.history.final()
    attacker = EmissionModel(
        cgan, test.unique_conditions(), h=0.2, g_size=200, root_entropy=BENCH_SEED
    )
    accuracy = attacker.leakage(test).accuracy
    return final["d_loss"], final["g_loss"], accuracy


def test_ablation_k_disc_steps(benchmark, bench_split):
    train, test = bench_split
    rows = []
    for k in K_VALUES:
        d_loss, g_loss, acc = _train_and_attack(train, test, k)
        rows.append([f"k={k}", d_loss, g_loss, acc])

    print()
    print("=" * 70)
    print("Ablation: discriminator steps per iteration (Algorithm 2 k)")
    print("=" * 70)
    print(
        format_table(
            rows,
            ["setting", "final D loss", "final G loss", "attack accuracy"],
            title=f"{ITERATIONS} iterations, case-study dataset",
        )
    )
    print()
    accs = [row[3] for row in rows]
    print("-- shape checks --")
    print(shape_check("all settings leak above chance (1/3)", min(accs) > 1 / 3))
    print(
        shape_check(
            "larger k strengthens D (final D loss non-increasing in k)",
            rows[-1][1] <= rows[0][1] + 0.2,
        )
    )

    # Benchmark a small fixed-k training burst.
    def burst():
        cgan = ConditionalGAN(
            train.feature_dim, train.condition_dim, seed=BENCH_SEED
        )
        cgan.train(train, iterations=50, batch_size=32, k_disc=1)
        return cgan

    benchmark.pedantic(burst, iterations=1, rounds=3)
