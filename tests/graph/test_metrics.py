"""Tests for repro.graph.metrics."""

import pytest

from repro.errors import ArchitectureError
from repro.graph.metrics import (
    attack_surface,
    cross_domain_cut,
    emission_exposure,
    monitoring_coverage,
    path_flows,
)
from repro.manufacturing.architecture import printer_architecture


@pytest.fixture(scope="module")
def arch():
    return printer_architecture()


class TestAttackSurface:
    def test_external_gcode_reaches_motors(self, arch):
        surface = attack_surface(arch, "C4")
        # Malicious G-code can influence controller, drivers, all motors,
        # heaters, frame, and the environment.
        assert {"C1", "C2", "P2", "P3", "P4", "P5", "P8", "P9"} <= surface

    def test_entry_excluded(self, arch):
        assert "C4" not in attack_surface(arch, "C4")

    def test_leaf_has_empty_surface(self, arch):
        assert attack_surface(arch, "P9") == set()

    def test_unknown_node(self, arch):
        with pytest.raises(ArchitectureError):
            attack_surface(arch, "X99")


class TestEmissionExposure:
    def test_motors_exposed_acoustically(self, arch):
        exposure = emission_exposure(arch)
        # X motor leaks through its own emission and through the frame's.
        assert "F14" in exposure["P2"]
        assert "F18" in exposure["P2"]

    def test_controller_exposed_transitively(self, arch):
        exposure = emission_exposure(arch)
        # C1 drives the motors, so its activity reaches the emissions.
        assert len(exposure["C1"]) > 0

    def test_environment_not_exposed(self, arch):
        exposure = emission_exposure(arch)
        # P9 is a sink: nothing downstream of it emits.
        # (Its own emissions list contains flows whose source it reaches,
        # which is none since it has no outgoing edges.)
        assert exposure["P9"] == []


class TestPathFlows:
    def test_c1_to_p2_path(self, arch):
        flows = path_flows(arch, "C1", "P2")
        names = {f.name for f in flows}
        assert names == {"F2", "F4"}  # C1 -> C2 -> P2.

    def test_no_path(self, arch):
        assert path_flows(arch, "P9", "C1") == []

    def test_unknown_node(self, arch):
        with pytest.raises(ArchitectureError):
            path_flows(arch, "C1", "nope")


class TestMonitoringCoverage:
    def test_paper_question_c1_to_p5(self, arch):
        # "Can F9 [an emission to the environment] be used to monitor any
        # attacks in the integrity of the flow path from C1 to P5?"
        report = monitoring_coverage(arch, "C1", "P5", ["F17"])
        # Every component on C1 -> C2 -> P5 can perturb P5's emission.
        assert report.coverage == 1.0
        assert report.blind_nodes == []

    def test_wrong_monitor_leaves_blind_spots(self, arch):
        # Monitoring only the hotend's thermal emission cannot see the
        # motion path at all.
        report = monitoring_coverage(arch, "C1", "P2", ["F19"])
        assert report.coverage < 1.0
        assert "P2" in report.blind_nodes

    def test_unknown_monitor_flow(self, arch):
        with pytest.raises(ArchitectureError, match="unknown monitored"):
            monitoring_coverage(arch, "C1", "P2", ["F99"])

    def test_no_path_raises(self, arch):
        with pytest.raises(ArchitectureError, match="no directed path"):
            monitoring_coverage(arch, "P9", "C1", ["F14"])

    def test_summary_text(self, arch):
        report = monitoring_coverage(arch, "C1", "P5", ["F17"])
        assert "C1->P5" in report.summary()


class TestCrossDomainCut:
    def test_printer_cut(self, arch):
        cut = {f.name for f in cross_domain_cut(arch)}
        # Driver->motor electrical flows cross cyber->physical; the PSU
        # crosses physical->cyber.
        assert {"F4", "F5", "F6", "F7", "F8", "F9", "F21"} == cut
