"""GAN-Sec quickstart: the whole pipeline in ~60 lines.

Simulates the paper's additive-manufacturing case study end to end:

1. record acoustic traces from the simulated 3D printer,
2. run Algorithm 1 on the printer's CPPS architecture,
3. train a conditional GAN per covered flow pair (Algorithm 2),
4. run the security analysis (Algorithm 3) and print the report.

Run:  python examples/quickstart.py
"""

from repro.manufacturing import (
    GCODE_FLOW,
    printer_architecture,
    record_case_study_dataset,
)
from repro.pipeline import CGANConfig, FlowPairKey, GANSec, GANSecConfig

SEED = 7


def main():
    # 1. Record data on the simulated printer: single-motor calibration
    #    programs for X, Y, Z, CWT-featureized into 100 bins.
    print("recording simulated printer traces ...")
    dataset, extractor, encoder, runs = record_case_study_dataset(
        n_moves_per_axis=35, seed=SEED
    )
    print(f"  {dataset} from {sum(len(r.segments) for r in runs)} segments")

    # 2-4. The GANSec facade runs Algorithm 1 (graph + flow pairs),
    #    Algorithm 2 (CGAN per pair), and Algorithm 3 (likelihood metrics).
    architecture = printer_architecture()
    pipeline = GANSec(
        architecture,
        GANSecConfig(cgan=CGANConfig(iterations=2500), seed=SEED),
    )
    # The case study models the frame's acoustic emission (F18)
    # conditioned on the incoming G/M-code signal flow (F1).
    key = FlowPairKey("F18", GCODE_FLOW)
    reports = pipeline.run({key: dataset})

    print()
    print(pipeline.summary())
    print()
    report = reports[key]
    print(report.to_text(condition_names=["Cond1 (X)", "Cond2 (Y)", "Cond3 (Z)"]))


if __name__ == "__main__":
    main()
