"""Extension benchmark: multi-channel side-channel analysis.

The paper's model is channel-agnostic ("various flows ... either in a
single sub-system, or across various sub-systems"); this benchmark
instantiates a second energy flow — the supply-current trace (power
analysis) — next to the acoustic channel, and compares single-channel
CGAN attackers against naive feature-fusion.
"""

from __future__ import annotations

from benchmarks.conftest import BENCH_SEED, shape_check
from repro.gan import ConditionalGAN
from repro.manufacturing import record_multichannel_dataset
from repro.security import SideChannelAttacker
from repro.utils.tables import format_table

ITERATIONS = 1500


def _channel_accuracy(dataset):
    train, test = dataset.split(0.25, seed=BENCH_SEED)
    cgan = ConditionalGAN(
        dataset.feature_dim, dataset.condition_dim, seed=BENCH_SEED
    )
    cgan.train(train, iterations=ITERATIONS, batch_size=32)
    attacker = SideChannelAttacker(
        cgan, test.unique_conditions(), h=0.2, g_size=200, root_entropy=BENCH_SEED
    ).fit()
    return attacker.evaluate(test).accuracy


def test_multichannel_fusion(benchmark):
    recording = record_multichannel_dataset(
        n_moves_per_axis=30, seed=BENCH_SEED
    )
    results = {}
    for i, (label, ds) in enumerate(
        (
            ("acoustic (50-5000 Hz, CWT)", recording.acoustic),
            ("power (10-2375 Hz + stats)", recording.power),
            ("fused (concatenated)", recording.fused),
        )
    ):
        if i == 0:
            results[label] = benchmark.pedantic(
                _channel_accuracy, args=(ds,), iterations=1, rounds=1
            )
        else:
            results[label] = _channel_accuracy(ds)

    rows = [[label, ds_len, acc, acc / (1 / 3)] for (label, acc), ds_len in zip(
        results.items(),
        [recording.acoustic.feature_dim, recording.power.feature_dim,
         recording.fused.feature_dim],
    )]
    print()
    print("=" * 70)
    print("Extension: multi-channel leakage (acoustic vs power vs fusion)")
    print("=" * 70)
    print(
        format_table(
            rows,
            ["channel", "features", "attack accuracy", "x over chance"],
            title="case-study workload; chance = 0.333",
        )
    )
    print()
    print("-- shape checks --")
    print(
        shape_check(
            "both physical channels leak above chance",
            min(results.values()) > 1 / 3,
        )
    )
    print(
        shape_check(
            "fusion is no worse than the weaker channel",
            results["fused (concatenated)"]
            >= min(
                results["acoustic (50-5000 Hz, CWT)"],
                results["power (10-2375 Hz + stats)"],
            ),
        )
    )
