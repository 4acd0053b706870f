"""Ablation: one-hot single-motor encoding vs the 2^3 combination
encoding (Section IV-B's proposed extension).

The single-motor encoder can only label one-motor-at-a-time moves; the
combination encoder also labels diagonal (X+Y) infill and idle dwells.
This ablation prints the per-encoder dataset coverage and attacker
accuracy on a realistic layered-object workload.
"""

from __future__ import annotations

from benchmarks.conftest import BENCH_SEED, shape_check
from repro.dsp.features import FrequencyFeatureExtractor
from repro.flows.encoding import CombinationEncoder, SingleMotorEncoder
from repro.gan import ConditionalGAN
from repro.manufacturing import (
    Printer3D,
    build_dataset,
    calibration_suite,
    collect_segments,
    layered_object_program,
)
from repro.security import EmissionModel
from repro.utils.rng import as_rng
from repro.utils.tables import format_table

ITERATIONS = 1200


def _mixed_runs():
    rng = as_rng(BENCH_SEED)
    printer = Printer3D(sample_rate=12000.0, seed=rng)
    programs = calibration_suite(18, seed=rng)
    programs += [layered_object_program(6, name=f"box-{i}") for i in range(3)]
    return printer, [printer.run(p, seed=rng) for p in programs]


def _evaluate(encoder, segments, total_segments):
    extractor = FrequencyFeatureExtractor(12000.0, n_bins=100)
    ds = build_dataset(segments, extractor, encoder)
    train, test = ds.split(0.25, seed=BENCH_SEED)
    cgan = ConditionalGAN(
        ds.feature_dim, ds.condition_dim, seed=BENCH_SEED
    )
    cgan.train(train, iterations=ITERATIONS, batch_size=32)
    attacker = EmissionModel(
        cgan, test.unique_conditions(), h=0.2, g_size=150, root_entropy=BENCH_SEED
    )
    report = attacker.leakage(test)
    coverage = len(ds) / total_segments
    return coverage, len(test.unique_conditions()), report


def test_ablation_condition_encoding(benchmark):
    printer, runs = _mixed_runs()
    single_segments = collect_segments(runs)
    combo_segments = collect_segments(runs, include_idle=True)
    total = len(combo_segments)

    cov_s, n_conds_s, rep_s = _evaluate(
        SingleMotorEncoder(), single_segments, total
    )
    cov_c, n_conds_c, rep_c = benchmark.pedantic(
        _evaluate,
        args=(CombinationEncoder(), combo_segments, total),
        iterations=1,
        rounds=1,
    )

    rows = [
        ["single-motor (paper)", 3, n_conds_s, f"{cov_s:.0%}",
         rep_s.accuracy, rep_s.leakage_ratio],
        ["2^3 combination (ext)", 8, n_conds_c, f"{cov_c:.0%}",
         rep_c.accuracy, rep_c.leakage_ratio],
    ]
    print()
    print("=" * 70)
    print("Ablation: condition encoding (Sec IV-B extension)")
    print("=" * 70)
    print(
        format_table(
            rows,
            ["encoder", "slots", "observed conds", "segment coverage",
             "attack accuracy", "x over chance"],
            title="workload: calibration moves + layered boxes (diagonal infill)",
        )
    )
    print()
    print("-- shape checks --")
    print(
        shape_check(
            "combination encoder covers more of the workload",
            cov_c > cov_s,
        )
    )
    print(
        shape_check(
            "both encoders leak above chance",
            rep_s.leakage_ratio > 1.0 and rep_c.leakage_ratio > 1.0,
        )
    )
    print(
        shape_check(
            "harder multi-class problem: combination accuracy below single",
            rep_c.accuracy <= rep_s.accuracy + 0.05,
        )
    )
