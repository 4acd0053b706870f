"""CPPS architecture graphs and Algorithm 1 (graph + flow-pair generation)."""

from repro.graph.components import Component, Domain, SubSystem, cyber, physical
from repro.graph.architecture import CPPSArchitecture
from repro.graph.builder import (
    GraphGenerationResult,
    extract_flow_pairs,
    generate,
    prune_pairs_by_data,
)
from repro.graph.reachability import dfs_reachable, remove_feedback_edges
from repro.graph.export import adjacency_listing, flow_listing, to_dot
from repro.graph.generators import random_factory

__all__ = [
    "CPPSArchitecture",
    "Component",
    "Domain",
    "GraphGenerationResult",
    "SubSystem",
    "adjacency_listing",
    "cyber",
    "dfs_reachable",
    "extract_flow_pairs",
    "flow_listing",
    "generate",
    "physical",
    "prune_pairs_by_data",
    "random_factory",
    "remove_feedback_edges",
    "to_dot",
]
