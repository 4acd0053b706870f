"""Textual exports of ``G_CPPS``: DOT (Graphviz) and adjacency listings.

The benchmark for Figure 6 prints these so the generated graph can be
compared against the paper's drawing without a display server.
"""

from __future__ import annotations

from repro.flows.base import FlowKind
from repro.graph.architecture import CPPSArchitecture


def _edge_order(flow):
    return (flow.source, flow.target, flow.name)


def to_dot(architecture: CPPSArchitecture) -> str:
    """Render G_CPPS as Graphviz DOT.

    Cyber components are boxes, physical components ellipses; signal
    flows solid edges, energy flows dashed — mirroring the paper's
    Figure 3/6 notation.
    """
    lines = [f'digraph "{architecture.name}" {{', "  rankdir=LR;"]
    for comp in sorted(architecture.components(), key=lambda c: c.name):
        shape = "box" if comp.is_cyber else "ellipse"
        style = ', style="dotted"' if comp.external else ""
        label = comp.label or comp.name
        lines.append(
            f'  "{comp.name}" [shape={shape}, label="{comp.name}\\n{label}"{style}];'
        )
    for flow in sorted(architecture.flows.values(), key=_edge_order):
        style = "dashed" if flow.is_energy else "solid"
        lines.append(
            f'  "{flow.source}" -> "{flow.target}" [label="{flow.name}", style={style}];'
        )
    lines.append("}")
    return "\n".join(lines)


def adjacency_listing(architecture: CPPSArchitecture) -> str:
    """Per-node adjacency text: ``node -> successors (via flows)``."""
    outs = {name: [] for name in sorted(architecture.component_names())}
    for flow in sorted(architecture.flows.values(), key=_edge_order):
        outs[flow.source].append(f"{flow.target} (via {flow.name})")
    return "\n".join(
        f"{node}: " + (", ".join(out) if out else "-") for node, out in outs.items()
    )


def flow_listing(architecture: CPPSArchitecture) -> str:
    """One line per flow: name, kind, endpoints, intent."""
    lines = []
    for name in sorted(architecture.flows):
        flow = architecture.flows[name]
        intent = "intentional" if flow.intentional else "UNINTENTIONAL"
        kind = "signal" if flow.kind is FlowKind.SIGNAL else f"energy/{flow.energy_form}"
        lines.append(
            f"{flow.name}: {flow.source} -> {flow.target}  [{kind}, {intent}]"
            + (f"  # {flow.description}" if flow.description else "")
        )
    return "\n".join(lines)
