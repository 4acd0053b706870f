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
from repro.graph.metrics import (
    MonitoringReport,
    attack_surface,
    cross_domain_cut,
    emission_exposure,
    monitoring_coverage,
    path_flows,
)

__all__ = [
    "CPPSArchitecture",
    "Component",
    "Domain",
    "GraphGenerationResult",
    "MonitoringReport",
    "SubSystem",
    "adjacency_listing",
    "attack_surface",
    "cross_domain_cut",
    "cyber",
    "dfs_reachable",
    "emission_exposure",
    "extract_flow_pairs",
    "flow_listing",
    "generate",
    "monitoring_coverage",
    "path_flows",
    "physical",
    "prune_pairs_by_data",
    "random_factory",
    "remove_feedback_edges",
    "to_dot",
]
