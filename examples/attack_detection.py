"""Integrity & availability attack detection from the same side channel.

Scenario (paper Section IV-D, integrity/availability): the defender
flips the side channel around.  The CGAN that modeled Pr(emission |
G-code) becomes an attack detector: if the sound the printer makes is
unlikely under the condition the controller *believes* it is executing,
something tampered with the physical process.

Three attacks are evaluated:
  * axis-swap (integrity)  - the executed motion drives a different
    motor than the logged G-code (Stuxnet-style geometry sabotage);
  * feed-rate scaling (integrity) - same geometry, tampered speeds;
  * motor stall (availability) - the claimed motor never runs.

Run:  python examples/attack_detection.py
"""

import numpy as np

from repro.gan import ConditionalGAN
from repro.manufacturing import Printer3D, record_case_study_dataset
from repro.security import (
    EmissionModel,
    axis_swap_attack,
    feature_leakage_profile,
    feed_rate_attack,
    motor_stall_attack,
)

SEED = 11


def main():
    print("[defender] recording clean traces & training the CGAN ...")
    dataset, extractor, encoder, _runs = record_case_study_dataset(
        n_moves_per_axis=30, seed=SEED
    )
    train, clean_test = dataset.split(0.3, seed=SEED)
    cgan = ConditionalGAN(dataset.feature_dim, dataset.condition_dim, seed=SEED)
    cgan.train(train, iterations=2000, batch_size=32)

    # Score on the 20 most condition-informative frequency bins: the
    # detector watches where the side channel actually lives.
    top_features = np.argsort(feature_leakage_profile(train))[::-1][:20]
    emission = EmissionModel(
        cgan,
        dataset.unique_conditions(),
        h=0.2,
        g_size=250,
        feature_indices=top_features,
        root_entropy=SEED,
    )
    threshold = emission.calibrate(train, false_positive_rate=0.05)
    print(f"[defender] detector calibrated: threshold={threshold:.2f} "
          "(5% clean-trace false-positive budget)")

    printer = Printer3D(sample_rate=12000.0, seed=500)

    print("\n--- integrity attack: axis swap ---")
    feats, claims = axis_swap_attack(clean_test, seed=SEED)
    report = emission.detection(clean_test, feats, claims, threshold=threshold)
    print(report.summary())

    print("\n--- integrity attack: feed rate x4 ---")
    feats, claims = feed_rate_attack(
        printer, extractor, encoder, "X", scale=4.0, n_moves=15, seed=SEED
    )
    report = emission.detection(clean_test, feats, claims, threshold=threshold)
    print(report.summary())
    feed_auc = report.auc

    print("\n--- availability attack: Z motor stalled ---")
    feats, claims = motor_stall_attack(
        printer, extractor, encoder, "Z", n_moves=15, seed=SEED
    )
    report = emission.detection(clean_test, feats, claims, threshold=threshold)
    print(report.summary())

    print(
        "\nConclusion: this is exactly the design-time estimate GAN-Sec"
        "\npromises. The designer learns, before deploying anything, that"
        "\nthis side-channel detector (per-feature marginal likelihoods)"
        "\ncatches availability attacks perfectly and axis-swap integrity"
        "\nattacks usefully - but feed-rate tampering"
        f" (AUC {feed_auc:.2f}) hides"
        "\ninside the machine's normal operating envelope and needs a"
        "\nricher conditioning (e.g. feed rate in the condition vector)."
    )


if __name__ == "__main__":
    main()
