"""Cross-subsystem CPPS analysis (paper Figure 1 / Section II).

GAN-Sec is not limited to one machine: a CPPS is "multiple sub-systems
interacting with each other", and "information leakage or attack
detection needs to be performed across multiple sub-systems".

This example builds a three-subsystem smart factory — a 3D printer, a
CNC mill, and a conveyor that links them — runs Algorithm 1 over the
full architecture, and shows how the flow-pair pruning isolates the
cross-domain, cross-subsystem pairs worth modeling.

Run:  python examples/cross_subsystem_analysis.py
"""

from repro.flows.base import EnergyForm
from repro.graph import (
    CPPSArchitecture,
    SubSystem,
    adjacency_listing,
    cyber,
    generate,
    physical,
)


def factory_architecture() -> CPPSArchitecture:
    """A small smart factory: printer + CNC mill + conveyor + MES."""
    arch = CPPSArchitecture("smart-factory")

    mes = SubSystem("mes", description="Manufacturing execution system")
    mes.add(cyber("MES", "Production scheduler"))
    arch.add_subsystem(mes)

    printer = SubSystem("printer")
    printer.add(cyber("PRT-C", "Printer controller"))
    printer.add(physical("PRT-M", "Printer motion stage"))
    arch.add_subsystem(printer)

    mill = SubSystem("mill")
    mill.add(cyber("CNC-C", "CNC controller"))
    mill.add(physical("CNC-S", "CNC spindle"))
    arch.add_subsystem(mill)

    conveyor = SubSystem("conveyor")
    conveyor.add(cyber("CNV-C", "Conveyor PLC"))
    conveyor.add(physical("CNV-B", "Conveyor belt"))
    arch.add_subsystem(conveyor)

    env = SubSystem("environment")
    env.add(physical("ENV", "Shared shop floor", external=True))
    arch.add_subsystem(env)

    # Cyber scheduling fabric.
    arch.add_signal_flow("S1", "MES", "PRT-C", description="print jobs")
    arch.add_signal_flow("S2", "MES", "CNC-C", description="milling jobs")
    arch.add_signal_flow("S3", "MES", "CNV-C", description="transfer orders")
    arch.add_signal_flow("S4", "PRT-C", "CNV-C", description="part-ready events")
    arch.add_signal_flow("S5", "CNV-C", "CNC-C", description="part-arrival events")

    # Intra-subsystem actuation.
    arch.add_energy_flow("E1", "PRT-C", "PRT-M", form=EnergyForm.ELECTRICAL)
    arch.add_energy_flow("E2", "CNC-C", "CNC-S", form=EnergyForm.ELECTRICAL)
    arch.add_energy_flow("E3", "CNV-C", "CNV-B", form=EnergyForm.ELECTRICAL)

    # Material flow between sub-systems (commodity flow).
    arch.add_energy_flow("E4", "PRT-M", "CNV-B", form=EnergyForm.MATERIAL)
    arch.add_energy_flow("E5", "CNV-B", "CNC-S", form=EnergyForm.MATERIAL)

    # Unintentional emissions into the shared shop floor.
    for name, src in (("E6", "PRT-M"), ("E7", "CNC-S"), ("E8", "CNV-B")):
        arch.add_energy_flow(
            name, src, "ENV", form=EnergyForm.ACOUSTIC, intentional=False
        )
    return arch


def main():
    arch = factory_architecture()
    print(f"architecture: {arch}")
    print(f"cross-subsystem flows: "
          f"{[f.name for f in arch.cross_subsystem_flows()]}")

    # Suppose we can only record the MES job stream and the shop-floor
    # microphones — a realistic monitoring deployment.
    observed = {"S1", "S2", "S3", "E6", "E7", "E8"}
    result = generate(arch, observed)
    print()
    print(result.summary())
    print()
    print("-- adjacency --")
    print(adjacency_listing(result.architecture))

    print()
    print("-- trainable cross-domain pairs (CGAN candidates) --")
    for fp in result.cross_domain_pairs():
        src_sub = arch.subsystem_of(fp.first.source).name
        dst_sub = arch.subsystem_of(fp.second.source).name
        scope = "cross-subsystem" if src_sub != dst_sub else "within-subsystem"
        print(f"  {fp}   [{scope}]")

    print()
    print(
        "Each pair above is a candidate CGAN Pr(F_i | F_j): e.g. the shop\n"
        "microphone near the mill (E7) conditioned on the MES job stream\n"
        "(S2) quantifies whether the factory's schedule leaks through the\n"
        "shared acoustic environment - a cross-subsystem side channel no\n"
        "per-machine analysis would see."
    )


if __name__ == "__main__":
    main()
