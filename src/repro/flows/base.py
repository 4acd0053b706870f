"""Core flow abstractions (paper Section I-B).

A CPPS is abstracted as a set of *flows* between components:

* **signal flows** — cyber-domain, discrete-valued (G/M-code
  instructions, sensor readings, network packets);
* **energy flows** — physical-domain, continuous time series (acoustic
  emission, vibration, power draw, thermal radiation).

:class:`FlowSpec` is the design-time *declaration* of a flow (identity,
kind, endpoints).  The run-time *observations* of a signal flow are the
condition vectors of :mod:`repro.flows.encoding` held in
:attr:`repro.flows.dataset.FlowPairDataset.conditions`; those of an
energy flow are :mod:`repro.flows.energy`'s data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigurationError


class FlowKind(enum.Enum):
    """Whether a flow lives in the cyber (signal) or physical (energy) domain."""

    SIGNAL = "signal"
    ENERGY = "energy"

    def __str__(self):
        return self.value


class EnergyForm(enum.Enum):
    """Physical modality of an energy flow (used for documentation and for
    matching synthesizers to microphone/sensor models)."""

    ACOUSTIC = "acoustic"
    VIBRATION = "vibration"
    ELECTROMAGNETIC = "electromagnetic"
    THERMAL = "thermal"
    ELECTRICAL = "electrical"
    MECHANICAL = "mechanical"
    MATERIAL = "material"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class FlowSpec:
    """Design-time declaration of one flow in a CPPS architecture.

    Attributes
    ----------
    name:
        Unique flow identifier, e.g. ``"F1"``.
    kind:
        :class:`FlowKind` — signal (cyber) or energy (physical).
    source, target:
        Component names the flow goes from/to (graph edge endpoints).
    energy_form:
        For energy flows, the physical modality; ``None`` for signals.
    intentional:
        Whether the flow is a designed interaction (True) or an
        unintentional emission/leakage path (False) — e.g. acoustic
        emission to the environment node P9 is unintentional.
    description:
        Free-text note carried into reports.
    """

    name: str
    kind: FlowKind
    source: str
    target: str
    energy_form: EnergyForm | None = None
    intentional: bool = True
    description: str = ""

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("flow name must be non-empty")
        if self.source == self.target:
            raise ConfigurationError(
                f"flow {self.name!r} is a self-loop on {self.source!r}"
            )
        if self.kind is FlowKind.ENERGY and self.energy_form is None:
            object.__setattr__(self, "energy_form", EnergyForm.MECHANICAL)
        if self.kind is FlowKind.SIGNAL and self.energy_form is not None:
            raise ConfigurationError(
                f"signal flow {self.name!r} must not declare an energy form"
            )

    @property
    def is_signal(self) -> bool:
        return self.kind is FlowKind.SIGNAL

    @property
    def is_energy(self) -> bool:
        return self.kind is FlowKind.ENERGY

    def __str__(self):
        arrow = "=>" if self.is_energy else "->"
        return f"{self.name}: {self.source} {arrow} {self.target} ({self.kind})"


@dataclass(frozen=True)
class FlowPair:
    """An ordered pair of flows ``(F_i, F_j)`` selected by Algorithm 1.

    The CGAN models ``Pr(first | second)``: *second* is the conditioning
    flow (e.g. G-code signal), *first* the modeled flow (e.g. acoustic
    energy).
    """

    first: FlowSpec
    second: FlowSpec

    def __post_init__(self):
        if self.first.name == self.second.name:
            raise ConfigurationError("a flow pair needs two distinct flows")

    @property
    def is_cross_domain(self) -> bool:
        """True when the pair couples the cyber and physical domains —
        the pairs GAN-Sec's case study selects for analysis."""
        return self.first.kind is not self.second.kind

    @property
    def names(self) -> tuple:
        return (self.first.name, self.second.name)

    def __str__(self):
        return f"({self.first.name} | {self.second.name})"
