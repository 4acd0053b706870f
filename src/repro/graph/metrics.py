"""Graph-level security metrics on ``G_CPPS``.

Section II poses questions like "Can F9 be used to monitor any attacks
in the integrity of the flow path from node C1 to P5?".  These metrics
answer the *structural* half of such questions straight from the graph,
before any CGAN is trained:

* **attack surface** — which components an external cyber node can
  influence through directed flows (the kinetic-cyber reach);
* **emission exposure** — which components leak, directly or
  transitively, into unintentional emission flows (the side-channel
  reach);
* **monitoring coverage** — which flow paths are observable by a given
  set of monitored emission flows, i.e. whether a detector built on
  those emissions *can* see an integrity attack on a path at all.

The CGAN then quantifies *how much* each structurally-possible leak or
detection opportunity actually carries; these metrics tell the designer
where to point it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ArchitectureError
from repro.graph.architecture import CPPSArchitecture
from repro.graph.reachability import dfs_reachable


def attack_surface(architecture: CPPSArchitecture, entry: str) -> set:
    """Components reachable from the *entry* node via directed flows.

    For the printer, ``attack_surface(arch, "C4")`` is every component a
    malicious G-code stream can influence — the kinetic-cyber blast
    radius of the external interface.
    """
    graph = architecture.successors()
    if entry not in graph:
        raise ArchitectureError(f"unknown entry node {entry!r}")
    reach = dfs_reachable(graph, entry)
    reach.discard(entry)
    return reach


def emission_exposure(architecture: CPPSArchitecture) -> dict:
    """Map each component to the unintentional emission flows it feeds.

    A component is *exposed* through emission flow ``F`` if ``F``'s
    source is reachable from the component (its activity propagates into
    the emission).  Exposed components are side-channel observable.
    """
    emissions = [
        f for f in architecture.edges() if f.is_energy and not f.intentional
    ]
    graph = architecture.successors()
    exposure = {}
    for node in graph:
        reach = dfs_reachable(graph, node)
        exposure[node] = [flow.name for flow in emissions if flow.source in reach]
    return exposure


def path_flows(architecture: CPPSArchitecture, source: str, target: str) -> list:
    """All flows lying on any simple directed path ``source -> target``.

    These are the flows whose integrity matters for that path — the
    candidates an attacker would tamper with.
    """
    graph = architecture.successors()
    for node in (source, target):
        if node not in graph:
            raise ArchitectureError(f"unknown node {node!r}")
    on_path_edges = set()
    stack = [[source]]
    while stack:
        path = stack.pop()
        if path[-1] == target:
            on_path_edges.update(zip(path, path[1:]))
            continue
        stack.extend(path + [nxt] for nxt in set(graph[path[-1]]) if nxt not in path)
    return [f for f in architecture.edges() if (f.source, f.target) in on_path_edges]


@dataclass
class MonitoringReport:
    """Observability of a path by a set of monitored emissions.

    Attributes
    ----------
    path_source, path_target:
        Endpoints of the analyzed flow path.
    monitored:
        Names of the monitored emission flows.
    observable_nodes:
        Path-relevant components whose activity reaches some monitored
        emission.
    blind_nodes:
        Path-relevant components invisible to every monitored emission.
    """

    path_source: str
    path_target: str
    monitored: list
    observable_nodes: list = field(default_factory=list)
    blind_nodes: list = field(default_factory=list)

    @property
    def coverage(self) -> float:
        total = len(self.observable_nodes) + len(self.blind_nodes)
        return len(self.observable_nodes) / total if total else 0.0

    def summary(self) -> str:
        return (
            f"path {self.path_source}->{self.path_target}: "
            f"{self.coverage:.0%} of path components observable via "
            f"{self.monitored} (blind: {self.blind_nodes or 'none'})"
        )


def monitoring_coverage(
    architecture: CPPSArchitecture,
    source: str,
    target: str,
    monitored_flows,
) -> MonitoringReport:
    """Can the *monitored_flows* observe an attack on ``source->target``?

    A path component is observable if its activity reaches the source of
    a monitored emission flow (so tampering with it perturbs what the
    monitor hears).  This answers the paper's "Can F9 be used to monitor
    any attacks in the integrity of the flow path from C1 to P5?" at the
    structural level.
    """
    monitored = set(monitored_flows)
    unknown = monitored - set(architecture.flows)
    if unknown:
        raise ArchitectureError(f"unknown monitored flows: {sorted(unknown)}")

    flows_on_path = path_flows(architecture, source, target)
    if not flows_on_path:
        raise ArchitectureError(f"no directed path {source!r} -> {target!r}")
    path_nodes = {f.source for f in flows_on_path} | {
        f.target for f in flows_on_path
    }

    graph = architecture.successors()
    observable, blind = [], []
    for node in sorted(path_nodes):
        reach = dfs_reachable(graph, node)
        seen = any(
            architecture.flows[name].source in reach for name in monitored
        )
        (observable if seen else blind).append(node)
    return MonitoringReport(
        path_source=source,
        path_target=target,
        monitored=sorted(monitored),
        observable_nodes=observable,
        blind_nodes=blind,
    )


def cross_domain_cut(architecture: CPPSArchitecture) -> list:
    """Flows crossing the cyber/physical boundary.

    These edges are the CPPS's cross-domain interface — every
    kinetic-cyber attack and every side channel traverses at least one
    of them, so they are the natural place for monitors and guards.
    """
    domain = {c.name: c.domain for c in architecture.components()}
    return [f for f in architecture.edges() if domain[f.source] != domain[f.target]]
