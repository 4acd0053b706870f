"""Algorithm 1: CPPS graph and flow-pair generation.

``G_CPPS`` is the design-time :class:`CPPSArchitecture` itself: its
components are the nodes and its declared flows the edges (paper
Lines 1–10).  Given it and the available historical data, this module

1. removes feedback loops from the architecture's successor map so
   flows are causally ordered (Line 3),
2. extracts candidate flow pairs ``FP_F``: ``(F_1, F_2)`` such that the
   head of ``F_2`` is DFS-reachable from the tail of ``F_1``
   (Lines 11–14), and
3. prunes to ``FP_T``, the pairs covered by historical data
   (Lines 15–17) — only those can be modeled by the CGAN.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ArchitectureError
from repro.flows.base import FlowPair
from repro.graph.architecture import CPPSArchitecture
from repro.graph.reachability import dfs_reachable, remove_feedback_edges


@dataclass
class GraphGenerationResult:
    """Everything Algorithm 1 produces.

    Attributes
    ----------
    architecture:
        ``G_CPPS``: components are nodes, declared flows are edges
        (components may be linked by both a signal and an energy flow,
        so edges can be parallel).
    dag:
        The feedback-free successor map used for reachability.
    removed_edges:
        Feedback edges removed in Line 3, as (source, target) tuples.
    candidate_pairs:
        ``FP_F`` — reachability-filtered flow pairs.
    trainable_pairs:
        ``FP_T`` — pairs also covered by historical data.
    """

    architecture: CPPSArchitecture
    dag: dict
    removed_edges: list
    candidate_pairs: list = field(default_factory=list)
    trainable_pairs: list = field(default_factory=list)

    def pair(self, first_name: str, second_name: str) -> FlowPair:
        """Look up a trainable pair by flow names."""
        for fp in self.trainable_pairs:
            if fp.names == (first_name, second_name):
                return fp
        raise ArchitectureError(
            f"no trainable pair ({first_name!r} | {second_name!r})"
        )

    def cross_domain_pairs(self) -> list:
        """The cross-domain subset of FP_T (the case study's selection)."""
        return [fp for fp in self.trainable_pairs if fp.is_cross_domain]

    def summary(self) -> str:
        """One-paragraph textual summary (used by benches and reports)."""
        return (
            f"G_CPPS: {len(self.architecture.components())} nodes, "
            f"{len(self.architecture.flows)} flow edges; "
            f"{len(self.removed_edges)} feedback edge(s) removed; "
            f"{len(self.candidate_pairs)} candidate pair(s) (FP_F), "
            f"{len(self.trainable_pairs)} trainable pair(s) (FP_T)"
        )


def extract_flow_pairs(
    architecture: CPPSArchitecture,
    *,
    dag: dict | None = None,
) -> list:
    """Lines 11–14: all ordered pairs ``(F_1, F_2)`` of distinct flows
    where the head (target) of ``F_2`` is reachable from the tail
    (source) of ``F_1`` in the feedback-free graph.

    Pairs follow :meth:`CPPSArchitecture.edges` order in both flows.
    """
    if dag is None:
        dag, _removed = remove_feedback_edges(architecture.successors())
    flows = architecture.edges()
    reach_cache = {}
    pairs = []
    for f1 in flows:
        if f1.source not in reach_cache:
            reach_cache[f1.source] = dfs_reachable(dag, f1.source)
        reachable = reach_cache[f1.source]
        for f2 in flows:
            if f2.name == f1.name:
                continue
            if f2.target in reachable:
                pairs.append(FlowPair(first=f1, second=f2))
    return pairs


def prune_pairs_by_data(pairs, available_flows) -> list:
    """Lines 15–17: keep pairs whose *both* flows have historical data.

    *available_flows* is a set of flow names (or anything supporting
    ``in``) describing which flows were actually observed.
    """
    out = []
    for fp in pairs:
        if fp.first.name in available_flows and fp.second.name in available_flows:
            out.append(fp)
    return out


def generate(
    architecture: CPPSArchitecture,
    available_flows=(),
) -> GraphGenerationResult:
    """Run the full Algorithm 1 and return a :class:`GraphGenerationResult`.

    Parameters
    ----------
    architecture:
        The design-time CPPS description.
    available_flows:
        Names of flows with historical data; pairs not covered are pruned
        from ``FP_T`` (``FP_F`` keeps all reachable pairs).
    """
    architecture.validate()
    dag, removed = remove_feedback_edges(architecture.successors())
    candidate = extract_flow_pairs(architecture, dag=dag)
    trainable = prune_pairs_by_data(candidate, set(available_flows))
    return GraphGenerationResult(
        architecture=architecture,
        dag=dag,
        removed_edges=removed,
        candidate_pairs=candidate,
        trainable_pairs=trainable,
    )
