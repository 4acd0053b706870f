"""Structural security audit of the printer's CPPS graph.

Before training any CGAN, GAN-Sec's graph (Algorithm 1) already answers
structural questions from paper Section II:

* what can a malicious G-code stream reach? (attack surface)
* which components leak into unintentional emissions? (exposure)
* "Can F9 be used to monitor any attacks in the integrity of the flow
  path from node C1 to P5?" (monitoring coverage)
* which flows cross the cyber/physical boundary? (where to put guards)

Run:  python examples/attack_surface_audit.py
"""

from repro.graph import (
    attack_surface,
    cross_domain_cut,
    emission_exposure,
    monitoring_coverage,
)
from repro.manufacturing import printer_architecture


def main():
    arch = printer_architecture()

    print("=== attack surface of the external G-code interface (C4) ===")
    surface = attack_surface(arch, "C4")
    for name in sorted(surface):
        comp = arch.component(name)
        print(f"  {comp}")
    print(f"  -> {len(surface)} of {len(arch.component_names()) - 1} "
          "components are kinetic-cyber reachable")

    print("\n=== side-channel exposure (who leaks into emissions) ===")
    exposure = emission_exposure(arch)
    for name in sorted(exposure):
        flows = exposure[name]
        if flows:
            print(f"  {name}: observable via {', '.join(sorted(flows))}")

    print("\n=== the paper's monitoring question ===")
    # Can the environment-facing emissions monitor the C1 -> P5 path?
    report = monitoring_coverage(arch, "C1", "P5", ["F17"])
    print(" ", report.summary())
    report = monitoring_coverage(arch, "C1", "P2", ["F19"])
    print(" ", report.summary(), "(thermal monitor cannot see motion!)")

    print("\n=== cross-domain cut (guard placement candidates) ===")
    for flow in cross_domain_cut(arch):
        print(f"  {flow}")


if __name__ == "__main__":
    main()
