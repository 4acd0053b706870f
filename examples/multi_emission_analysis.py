"""True multi-pair GAN-Sec: one CGAN per monitored emission flow.

The paper's Algorithm 1 lists five monitored acoustic emissions (from
the X/Y/Z motors P2-P4, the extruder P5, and the frame P8, each into the
environment P9).  This example simulates one sensor per emission —
each motor's microphone hears its own motor at full strength and the
rest as structure-borne crosstalk — and runs the full GANSec pipeline
over all five flow pairs at once, producing a per-emission leakage
ranking a designer can act on ("which sensor placement is the most
dangerous if an attacker gets it?").

Run:  python examples/multi_emission_analysis.py
"""

from repro.manufacturing import (
    MONITORED_EMISSIONS,
    printer_architecture,
    record_per_emission_datasets,
)
from repro.pipeline import CGANConfig, GANSec, GANSecConfig
from repro.utils.tables import format_table

SEED = 21

EMISSION_LABELS = {
    "F14": "P2 (X motor) mic",
    "F15": "P3 (Y motor) mic",
    "F16": "P4 (Z motor) mic",
    "F17": "P5 (extruder) mic",
    "F18": "P8 (frame) mic",
}


def main():
    print("recording through 5 virtual emission sensors ...")
    data, _extractors = record_per_emission_datasets(
        n_moves_per_axis=20, crosstalk=0.15, seed=SEED
    )
    pipeline = GANSec(
        printer_architecture(),
        GANSecConfig(cgan=CGANConfig(iterations=1200), seed=SEED),
    )
    print("training one CGAN per flow pair (Algorithm 2 x 5) ...")
    reports = pipeline.run(data)

    rows = []
    for key, report in sorted(
        reports.items(), key=lambda kv: -kv[1].leakage.accuracy
    ):
        rows.append(
            [
                key.first,
                EMISSION_LABELS[key.first],
                report.leakage.accuracy,
                report.leakage.leakage_ratio,
                report.verdict().split(" ")[0],
            ]
        )
    print()
    print(
        format_table(
            rows,
            ["flow", "sensor", "attack accuracy", "x over chance", "verdict"],
            title="per-emission leakage ranking (Pr(emission | G-code))",
        )
    )
    print()
    print(pipeline.summary())
    print(
        "\nReading: every monitored emission leaks the G-code; the ranking"
        "\ntells the designer which physical location leaks worst and where"
        "\nmasking or shielding buys the most."
    )


if __name__ == "__main__":
    main()
