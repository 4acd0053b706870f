"""Figure 8: conditional probability distribution of the acoustic signal.

The paper plots the Parzen-estimated (h=0.2) conditional density of the
scaled frequency features learned by the generator.  This benchmark
reproduces the plot as, per condition, the density of the selected
feature evaluated over the [0, 1] grid — rendered as ASCII curves —
and benchmarks the Parzen fit + evaluation step.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import BENCH_SEED, shape_check
from repro.security import ConditionalParzen, choose_analysis_feature
from repro.utils.ascii_plot import ascii_line_plot

H = 0.2
G_SIZE = 300
GRID = np.linspace(0.0, 1.0, 101)


def _densities(cgan, train):
    ft = choose_analysis_feature(
        cgan, train, h=H, objective="peak", root_entropy=BENCH_SEED
    )
    curves = {}
    claims = np.zeros(len(GRID), dtype=int)
    for i, cond in enumerate(train.unique_conditions()):
        samples = cgan.generate_for_condition(cond, G_SIZE, seed=BENCH_SEED + i)
        model = ConditionalParzen(H, [samples[:, [ft]]])
        curves[f"Cond{i + 1}"] = np.exp(model.log_density(GRID[:, None], claims)[:, 0])
    return ft, curves


def _report(ft, curves):
    print()
    print("=" * 70)
    print(f"Figure 8 reproduction: Pr(freq feature #{ft} | Cond), Parzen h={H}")
    print("=" * 70)
    print(
        ascii_line_plot(
            curves,
            title="conditional densities over the scaled feature range [0, 1]",
            xlabel="scaled frequency-feature value 0 .. 1",
            ylabel="density (multiply by h for probability)",
        )
    )
    print()
    peaks = {name: float(GRID[np.argmax(c)]) for name, c in curves.items()}
    for name, peak in peaks.items():
        print(f"{name}: density peak at feature value {peak:.2f}, "
              f"max density {curves[name].max():.3f}")
    print()
    print("-- paper-shape checks --")
    print(
        shape_check(
            "densities are proper (integrate to ~1 over the real line)",
            all(
                0.5 < np.trapezoid(c, GRID) <= 1.05
                for c in curves.values()
            ),
        )
    )
    distinct = len({round(p, 1) for p in peaks.values()}) >= 2
    print(shape_check("conditions produce distinct density peaks", distinct))


def test_fig8_conditional_density(benchmark, bench_cgan, bench_split):
    train, _test = bench_split
    ft, curves = benchmark.pedantic(
        _densities, args=(bench_cgan, train), iterations=1, rounds=1
    )
    _report(ft, curves)
