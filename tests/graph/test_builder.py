"""Tests for repro.graph.builder (Algorithm 1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ArchitectureError
from repro.flows.base import FlowKind
from repro.graph.architecture import CPPSArchitecture
from repro.graph.builder import (
    extract_flow_pairs,
    generate,
    prune_pairs_by_data,
)
from repro.graph.components import SubSystem, cyber, physical
from repro.graph.reachability import dfs_reachable, remove_feedback_edges
from tests.graph.test_reachability import assert_acyclic
from repro.manufacturing.architecture import (
    GCODE_FLOW,
    monitored_flow_names,
    printer_architecture,
)


def chain_arch():
    """C1 -F1-> P1 -F2-> P2, plus a disconnected-direction flow P2 -F3-> C2."""
    arch = CPPSArchitecture("chain")
    arch.add_subsystem(
        SubSystem("s", [cyber("C1"), cyber("C2"), physical("P1"), physical("P2")])
    )
    arch.add_signal_flow("F1", "C1", "P1")
    arch.add_energy_flow("F2", "P1", "P2")
    arch.add_energy_flow("F3", "P2", "C2")
    return arch


class TestBuildGraph:
    """G_CPPS is the architecture: components are nodes, flows edges."""

    def test_nodes_and_edges(self):
        arch = chain_arch()
        assert set(arch.successors()) == {"C1", "C2", "P1", "P2"}
        assert len(arch.edges()) == 3

    def test_edge_carries_flow_spec(self):
        flow = chain_arch().edges()[0]
        assert (flow.name, flow.source, flow.target) == ("F1", "C1", "P1")
        assert flow.kind is FlowKind.SIGNAL

    def test_node_attributes(self):
        arch = chain_arch()
        assert arch.component("C1").domain.value == "cyber"
        assert arch.subsystem_of("P1").name == "s"

    def test_parallel_edges_supported(self):
        arch = chain_arch()
        arch.add_energy_flow("F4", "C1", "P1")  # Parallel to F1.
        assert arch.successors()["C1"] == ["P1", "P1"]
        assert [f.name for f in arch.edges()][:2] == ["F1", "F4"]

    def test_edges_grouped_by_source_declaration_order(self):
        arch = chain_arch()
        arch.add_signal_flow("F5", "C1", "C2")
        # C1 is declared first, so its later flow F5 precedes P1's F2.
        assert [f.name for f in arch.edges()] == ["F1", "F5", "F2", "F3"]

    def test_invalid_architecture_rejected(self):
        with pytest.raises(ArchitectureError):
            generate(CPPSArchitecture("empty"))


class TestExtractPairs:
    def test_chain_pairs(self):
        pairs = extract_flow_pairs(chain_arch())
        names = {fp.names for fp in pairs}
        # F1 (tail C1) reaches F2's head P2 and F3's head C2.
        assert ("F1", "F2") in names
        assert ("F1", "F3") in names
        # F3's tail P2 reaches nothing beyond C2; F1's head is unreachable.
        assert ("F3", "F1") not in names

    def test_no_self_pairs(self):
        for fp in extract_flow_pairs(chain_arch()):
            assert fp.first.name != fp.second.name

    def test_every_pair_satisfies_reachability(self):
        arch = printer_architecture()
        dag, _ = remove_feedback_edges(arch.successors())
        for fp in extract_flow_pairs(arch):
            assert fp.second.target in dfs_reachable(dag, fp.first.source), fp


class TestPrune:
    def test_prune_by_data(self):
        pairs = extract_flow_pairs(chain_arch())
        kept = prune_pairs_by_data(pairs, {"F1", "F2"})
        assert all(
            fp.first.name in {"F1", "F2"} and fp.second.name in {"F1", "F2"}
            for fp in kept
        )
        assert kept  # (F1, F2) survives.

    def test_prune_empty_data(self):
        assert prune_pairs_by_data(extract_flow_pairs(chain_arch()), set()) == []


class TestGenerate:
    def test_printer_case_study(self):
        res = generate(printer_architecture(), monitored_flow_names())
        assert len(res.dag) == 13
        assert len(res.architecture.edges()) == 21
        assert res.removed_edges == []  # Printer graph is already a DAG.
        # The G-code -> each monitored emission pairs must be trainable.
        trainable = {fp.names for fp in res.trainable_pairs}
        for emission in ("F14", "F15", "F16", "F17", "F18"):
            assert (GCODE_FLOW, emission) in trainable

    def test_cross_domain_selection(self):
        res = generate(printer_architecture(), monitored_flow_names())
        cross = res.cross_domain_pairs()
        assert all(fp.is_cross_domain for fp in cross)
        assert len(cross) == 5  # F1 paired with each acoustic emission.

    def test_pair_lookup(self):
        res = generate(printer_architecture(), monitored_flow_names())
        fp = res.pair(GCODE_FLOW, "F14")
        assert fp.names == (GCODE_FLOW, "F14")
        with pytest.raises(ArchitectureError):
            res.pair("F14", "nope")

    def test_summary_mentions_counts(self):
        res = generate(printer_architecture(), monitored_flow_names())
        text = res.summary()
        assert "13 nodes" in text
        assert "trainable" in text

    def test_cyclic_architecture_handled(self):
        arch = CPPSArchitecture("cyclic")
        arch.add_subsystem(SubSystem("s", [cyber("A"), cyber("B")]))
        arch.add_signal_flow("F1", "A", "B")
        arch.add_signal_flow("F2", "B", "A")
        res = generate(arch, {"F1", "F2"})
        assert res.removed_edges == [("B", "A")]
        assert_acyclic(res.dag)


class TestPropertyBased:
    @given(
        n_nodes=st.integers(min_value=2, max_value=7),
        edges=st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_graph_pairs_valid(self, n_nodes, edges):
        """On random architectures, Algorithm 1 must (a) never pair a flow
        with itself, (b) only produce pairs whose reachability holds in
        the cycle-broken graph."""
        # Normalize edges first so we only declare connected components
        # (validate() rightly rejects isolated nodes).
        seen = set()
        for a, b in edges:
            a, b = a % n_nodes, b % n_nodes
            if a != b and (a, b) not in seen:
                seen.add((a, b))
        if not seen:
            return
        used = sorted({n for e in seen for n in e})
        arch = CPPSArchitecture("rand")
        arch.add_subsystem(SubSystem("s", [cyber(f"N{i}") for i in used]))
        for i, (a, b) in enumerate(sorted(seen)):
            arch.add_signal_flow(f"F{i}", f"N{a}", f"N{b}")
        res = generate(arch, set(arch.flows))
        for fp in res.candidate_pairs:
            assert fp.first.name != fp.second.name
            assert fp.second.target in dfs_reachable(res.dag, fp.first.source)
        assert_acyclic(res.dag)
        # FP_T is a subset of FP_F.
        cand = {fp.names for fp in res.candidate_pairs}
        assert all(fp.names in cand for fp in res.trainable_pairs)
