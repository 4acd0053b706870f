"""Figure 6: G_CPPS generation for the additive-manufacturing system.

Regenerates the paper's graph decomposition — nodes C1–C4 / P1–P9, the
signal and energy flow edges, and the Algorithm 1 flow-pair extraction —
and benchmarks Algorithm 1 itself.

Run with ``pytest benchmarks/bench_fig6_graph.py --benchmark-only -s``.
"""

from __future__ import annotations

from benchmarks.conftest import shape_check
from repro.graph import adjacency_listing, flow_listing, generate, to_dot
from repro.manufacturing import (
    GCODE_FLOW,
    monitored_flow_names,
    printer_architecture,
)


def _report(result):
    lines = [
        "",
        "=" * 70,
        "Figure 6 reproduction: G_CPPS for the additive-manufacturing system",
        "=" * 70,
        result.summary(),
        "",
        "-- flows --",
        flow_listing(result.architecture),
        "",
        "-- adjacency --",
        adjacency_listing(result.architecture),
        "",
        "-- Graphviz DOT (paste into dot -Tpng) --",
        to_dot(result.architecture),
        "",
        "-- trainable cross-domain pairs (the case study's selection) --",
    ]
    for fp in result.cross_domain_pairs():
        lines.append(f"  {fp}")
    lines += [
        "",
        "-- paper-shape checks --",
        shape_check(
            "13 components (C1-C4, P1-P9)",
            len(result.architecture.components()) == 13,
        ),
        shape_check(
            "monitored emissions P2,P3,P4,P5,P8 -> P9 all trainable",
            all(
                any(fp.names == (GCODE_FLOW, f) for fp in result.trainable_pairs)
                for f in ("F14", "F15", "F16", "F17", "F18")
            ),
        ),
        shape_check("graph is acyclic (no feedback removal needed)",
                    result.removed_edges == []),
    ]
    print("\n".join(lines))


def test_fig6_graph_generation(benchmark):
    arch = printer_architecture()
    available = monitored_flow_names()
    result = benchmark(generate, arch, available)
    _report(result)
