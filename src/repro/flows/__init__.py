"""Flow abstractions: flow declarations, energy flows, flow pairs,
condition encodings (the observed signal-flow values), and aligned
datasets (paper Section I-B and IV-B).
"""

from repro.flows.base import EnergyForm, FlowKind, FlowPair, FlowSpec
from repro.flows.energy import EnergyFlowData
from repro.flows.encoding import (
    CombinationEncoder,
    ConditionEncoder,
    SingleMotorEncoder,
    condition_label,
)
from repro.flows.dataset import FlowPairDataset
from repro.flows.io import load_dataset, save_dataset

__all__ = [
    "CombinationEncoder",
    "ConditionEncoder",
    "condition_label",
    "EnergyFlowData",
    "EnergyForm",
    "FlowKind",
    "FlowPair",
    "FlowPairDataset",
    "FlowSpec",
    "load_dataset",
    "save_dataset",
    "SingleMotorEncoder",
]
