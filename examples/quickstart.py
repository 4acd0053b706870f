"""GAN-Sec quickstart: the whole case study in one call.

Simulates the paper's additive-manufacturing case study end to end:

1. record acoustic traces from the simulated 3D printer,
2. run Algorithm 1 on the printer's CPPS architecture,
3. train a conditional GAN for the frame's emission (F18) conditioned
   on the G/M-code flow (F1) (Algorithm 2),
4. run the security analysis (Algorithm 3) and print the report.

Every artifact (dataset, graph, model, loss history, report) lands in a
temporary run directory, which is deleted on exit.

Run:  python examples/quickstart.py
"""

import tempfile

from repro.pipeline import ExperimentConfig, run_experiment


def main():
    config = ExperimentConfig(seed=7, n_moves_per_axis=35, iterations=2500)
    with tempfile.TemporaryDirectory() as run_dir:
        print(f"running the case study (seed {config.seed}) ...")
        result = run_experiment(config, run_dir)
        print()
        print(result.report_text())


if __name__ == "__main__":
    main()
