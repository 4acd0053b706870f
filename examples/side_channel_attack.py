"""Confidentiality attack: reconstruct secret G-code from sound.

Scenario (paper Section IV-D, confidentiality): an attacker placed a
contact microphone on the printer frame, trained a CGAN on calibration
recordings, and now listens while the victim prints a *secret* object.
Using maximum-likelihood inference over the CGAN's per-condition
densities, the attacker reconstructs the sequence of motor movements —
the geometry skeleton of the part.

Run:  python examples/side_channel_attack.py
"""

import numpy as np

from repro.flows.encoding import condition_label
from repro.gan import ConditionalGAN
from repro.manufacturing import (
    Printer3D,
    build_dataset,
    collect_segments,
    random_single_motor_sequence,
    record_case_study_dataset,
)
from repro.security import EmissionModel

SEED = 7


def main():
    # --- Phase 1: the attacker profiles the machine -------------------
    print("[attacker] recording calibration traces ...")
    train_ds, extractor, encoder, _runs = record_case_study_dataset(
        n_moves_per_axis=30, seed=SEED
    )
    print(f"[attacker] training CGAN on {len(train_ds)} labeled segments ...")
    cgan = ConditionalGAN(
        train_ds.feature_dim, train_ds.condition_dim, seed=SEED
    )
    cgan.train(train_ds, iterations=2000, batch_size=32)

    # --- Phase 2: the victim prints a secret object -------------------
    printer = Printer3D(sample_rate=12000.0, seed=900)
    secret_program = random_single_motor_sequence(20, seed=901, name="secret")
    print(f"\n[victim] printing secret object ({len(secret_program)} commands)")
    run = printer.run(secret_program, seed=902)

    # --- Phase 3: the attacker listens and infers ---------------------
    segments = collect_segments([run])
    observed = build_dataset(segments, extractor, encoder, fit_extractor=False)
    attacker = EmissionModel(
        cgan, train_ds.unique_conditions(), h=0.2, g_size=250, root_entropy=SEED
    )

    true_seq = [condition_label(s.active_axes) for s in segments]
    pred_idx = attacker.infer(observed.features)
    labels = [condition_label(encoder.decode(c)) for c in attacker.conditions]
    pred_seq = [labels[i] for i in pred_idx]

    print("\nmove | true motor | inferred | verdict")
    print("-" * 44)
    hits = 0
    for i, (t, p) in enumerate(zip(true_seq, pred_seq)):
        ok = t == p
        hits += ok
        print(f"{i:4d} | {t:10s} | {p:8s} | {'ok' if ok else 'MISS'}")
    report = attacker.leakage(observed)
    print("-" * 44)
    print(
        f"reconstruction accuracy: {report.accuracy:.1%} "
        f"({report.leakage_ratio:.1f}x better than guessing)"
    )
    print("\nconfusion matrix (rows true, cols predicted):")
    print(np.array2string(report.confusion))

    print(
        "\nConclusion: the acoustic energy flow to the environment leaks"
        "\nthe G/M-code signal flow - a confidentiality violation GAN-Sec"
        "\nquantifies at design time."
    )


if __name__ == "__main__":
    main()
