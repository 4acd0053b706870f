"""Tests for repro.graph.export."""

from repro.graph.export import adjacency_listing, flow_listing, to_dot
from repro.manufacturing.architecture import printer_architecture


class TestDot:
    def test_contains_all_nodes_and_flows(self):
        dot = to_dot(printer_architecture())
        for node in ("C1", "C4", "P9"):
            assert f'"{node}"' in dot
        assert 'label="F1"' in dot

    def test_domain_shapes(self):
        dot = to_dot(printer_architecture())
        assert "shape=box" in dot      # Cyber components.
        assert "shape=ellipse" in dot  # Physical components.

    def test_energy_flows_dashed(self):
        dot = to_dot(printer_architecture())
        assert "style=dashed" in dot
        assert "style=solid" in dot

    def test_valid_structure(self):
        dot = to_dot(printer_architecture())
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")


class TestListings:
    def test_adjacency_covers_nodes(self):
        text = adjacency_listing(printer_architecture())
        lines = text.splitlines()
        assert len(lines) == 13
        assert any(line.startswith("C4:") for line in lines)

    def test_flow_listing_marks_unintentional(self):
        text = flow_listing(printer_architecture())
        assert "UNINTENTIONAL" in text
        assert "F14" in text
        assert "acoustic" in text
