"""Design-time CPPS architecture description.

:class:`CPPSArchitecture` is the input to Algorithm 1: the sub-systems,
their cyber/physical components, and the declared signal and energy
flows among them.  It is ``G_CPPS`` itself: components are the nodes
and declared flows the (possibly parallel) edges.  It performs
referential-integrity checks (every flow endpoint must be a declared
component; flow names are unique) so that Algorithm 1 can assume a
well-formed description.
"""

from __future__ import annotations

from repro.errors import ArchitectureError
from repro.flows.base import EnergyForm, FlowKind, FlowSpec
from repro.graph.components import Component, SubSystem


class CPPSArchitecture:
    """Sub-systems + components + declared flows of one CPPS."""

    def __init__(self, name: str = "cpps"):
        if not name:
            raise ArchitectureError("architecture name must be non-empty")
        self.name = name
        self.subsystems: dict = {}
        self.flows: dict = {}

    # -- construction ---------------------------------------------------------
    def add_subsystem(self, subsystem: SubSystem) -> "CPPSArchitecture":
        """Register a sub-system; component names must be globally unique."""
        if subsystem.name in self.subsystems:
            raise ArchitectureError(f"duplicate sub-system {subsystem.name!r}")
        existing = self.component_names()
        clash = existing & subsystem.component_names()
        if clash:
            raise ArchitectureError(
                f"components {sorted(clash)} already exist in another sub-system"
            )
        self.subsystems[subsystem.name] = subsystem
        return self

    def add_flow(self, flow: FlowSpec) -> "CPPSArchitecture":
        """Register a flow; endpoints must already be declared components."""
        if flow.name in self.flows:
            raise ArchitectureError(f"duplicate flow {flow.name!r}")
        names = self.component_names()
        for endpoint in (flow.source, flow.target):
            if endpoint not in names:
                raise ArchitectureError(
                    f"flow {flow.name!r} references unknown component {endpoint!r}"
                )
        self.flows[flow.name] = flow
        return self

    def add_signal_flow(
        self, name: str, source: str, target: str, *, description: str = ""
    ) -> "CPPSArchitecture":
        """Shorthand for declaring a signal (cyber) flow."""
        return self.add_flow(
            FlowSpec(name, FlowKind.SIGNAL, source, target, description=description)
        )

    def add_energy_flow(
        self,
        name: str,
        source: str,
        target: str,
        *,
        form: EnergyForm = EnergyForm.MECHANICAL,
        intentional: bool = True,
        description: str = "",
    ) -> "CPPSArchitecture":
        """Shorthand for declaring an energy (physical) flow."""
        return self.add_flow(
            FlowSpec(
                name,
                FlowKind.ENERGY,
                source,
                target,
                energy_form=form,
                intentional=intentional,
                description=description,
            )
        )

    # -- queries ----------------------------------------------------------------
    def component_names(self) -> set:
        return {
            c.name for sub in self.subsystems.values() for c in sub.components
        }

    def components(self) -> list:
        return [c for sub in self.subsystems.values() for c in sub.components]

    def edges(self) -> list:
        """The declared flows grouped by source component, components in
        declaration order (flows in declaration order within a group)."""
        rank = {c.name: i for i, c in enumerate(self.components())}
        return sorted(self.flows.values(), key=lambda f: rank[f.source])

    def successors(self) -> dict:
        """G_CPPS as ``{component: [target of each flow leaving it, ...]}``.

        Every component is a key, in declaration order; a target appears
        once per flow, so parallel flows repeat it.
        """
        graph = {c.name: [] for c in self.components()}
        for flow in self.flows.values():
            graph[flow.source].append(flow.target)
        return graph

    def component(self, name: str) -> Component:
        for sub in self.subsystems.values():
            for c in sub.components:
                if c.name == name:
                    return c
        raise ArchitectureError(f"unknown component {name!r}")

    def subsystem_of(self, component_name: str) -> SubSystem:
        for sub in self.subsystems.values():
            if component_name in sub.component_names():
                return sub
        raise ArchitectureError(f"unknown component {component_name!r}")

    def signal_flows(self) -> list:
        return [f for f in self.flows.values() if f.is_signal]

    def energy_flows(self) -> list:
        return [f for f in self.flows.values() if f.is_energy]

    def flow(self, name: str) -> FlowSpec:
        try:
            return self.flows[name]
        except KeyError:
            raise ArchitectureError(f"unknown flow {name!r}") from None

    def cross_subsystem_flows(self) -> list:
        """Flows whose endpoints belong to different sub-systems."""
        out = []
        for f in self.flows.values():
            if self.subsystem_of(f.source).name != self.subsystem_of(f.target).name:
                out.append(f)
        return out

    def validate(self) -> None:
        """Raise :class:`ArchitectureError` on structural problems.

        Checks: at least one sub-system, at least one flow, and no
        component that is completely disconnected (no flow touches it —
        usually a description bug).
        """
        if not self.subsystems:
            raise ArchitectureError(f"architecture {self.name!r} has no sub-systems")
        if not self.flows:
            raise ArchitectureError(f"architecture {self.name!r} declares no flows")
        touched = set()
        for f in self.flows.values():
            touched.add(f.source)
            touched.add(f.target)
        isolated = sorted(self.component_names() - touched)
        if isolated:
            raise ArchitectureError(
                f"components with no flows (disconnected): {isolated}"
            )

    def __repr__(self):
        return (
            f"CPPSArchitecture(name={self.name!r}, "
            f"subsystems={len(self.subsystems)}, "
            f"components={len(self.component_names())}, flows={len(self.flows)})"
        )
