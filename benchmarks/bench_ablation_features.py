"""Ablation: CWT features (paper) vs STFT features, and bin count.

Section IV-B motivates the continuous wavelet transform; this ablation
quantifies what it buys over a plain rFFT/STFT binning, and how leakage
varies with the number of frequency bins.
"""

from __future__ import annotations

from benchmarks.conftest import BENCH_SEED, shape_check
from repro.dsp.features import FrequencyFeatureExtractor
from repro.flows.encoding import SingleMotorEncoder
from repro.gan import ConditionalGAN
from repro.manufacturing import (
    Printer3D,
    build_dataset,
    calibration_suite,
    collect_segments,
)
from repro.security import EmissionModel
from repro.utils.rng import as_rng
from repro.utils.tables import format_table

ITERATIONS = 1200
SETTINGS = (
    ("cwt", 100),
    ("cwt", 30),
    ("stft", 100),
    ("stft", 30),
)


def _segments():
    rng = as_rng(BENCH_SEED)
    printer = Printer3D(sample_rate=12000.0, seed=rng)
    runs = [printer.run(p, seed=rng) for p in calibration_suite(25, seed=rng)]
    return collect_segments(runs)


def _evaluate(segments, method, n_bins):
    extractor = FrequencyFeatureExtractor(
        12000.0, n_bins=n_bins, method=method
    )
    ds = build_dataset(segments, extractor, SingleMotorEncoder())
    train, test = ds.split(0.25, seed=BENCH_SEED)
    cgan = ConditionalGAN(ds.feature_dim, ds.condition_dim, seed=BENCH_SEED)
    cgan.train(train, iterations=ITERATIONS, batch_size=32)
    attacker = EmissionModel(
        cgan, test.unique_conditions(), h=0.2, g_size=150, root_entropy=BENCH_SEED
    )
    return attacker.leakage(test).accuracy


def test_ablation_feature_extraction(benchmark):
    segments = _segments()
    results = {}
    for method, n_bins in SETTINGS:
        if (method, n_bins) == SETTINGS[0]:
            results[(method, n_bins)] = benchmark.pedantic(
                _evaluate,
                args=(segments, method, n_bins),
                iterations=1,
                rounds=1,
            )
        else:
            results[(method, n_bins)] = _evaluate(segments, method, n_bins)

    rows = [
        [f"{method} / {n_bins} bins", acc, acc / (1 / 3)]
        for (method, n_bins), acc in results.items()
    ]
    print()
    print("=" * 70)
    print("Ablation: feature extraction (CWT vs STFT, bin count)")
    print("=" * 70)
    print(
        format_table(
            rows,
            ["features", "attack accuracy", "x over chance"],
            title=f"CGAN {ITERATIONS} iterations per setting, h=0.2",
        )
    )
    print()
    print("-- shape checks --")
    print(
        shape_check(
            "every feature pipeline leaks above chance",
            min(results.values()) > 1 / 3,
        )
    )
    best = max(results, key=results.get)
    print(
        f"  [info] best pipeline on this substrate: {best[0]}/{best[1]} bins "
        f"(accuracy {results[best]:.3f} vs cwt/100 {results[('cwt', 100)]:.3f})"
    )
    print(
        "note: the paper does not compare feature pipelines; on this"
        "\nsynthetic substrate (stationary tonal segments) plain STFT binning"
        "\ncan beat the CWT, whose strength is transient-rich physical"
        "\nrecordings where joint time-frequency resolution matters."
    )
