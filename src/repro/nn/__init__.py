"""A small from-scratch neural-network framework (numpy only).

This is the substrate GAN-Sec's Algorithm 2 runs on.  It provides dense
feed-forward networks with manual backprop: layers, activations, losses
(including both GAN generator objectives), first-order optimizers, weight
serialization, and finite-difference gradient checking.

Quick example::

    from repro.nn import Sequential, Dense

    net = Sequential(
        [Dense(64, "relu"), Dense(1, "sigmoid")],
        input_dim=10,
        seed=0,
    )
    y = net.predict(x)
"""

from repro.nn.activations import (
    Activation,
    ELU,
    Identity,
    LeakyReLU,
    ReLU,
    Sigmoid,
    Softplus,
    Tanh,
    get_activation,
)
from repro.nn.initializers import (
    GlorotUniform,
    HeUniform,
    Initializer,
    Zeros,
    get_initializer,
)
from repro.nn.layers import BatchNorm, Dense, Dropout, Layer
from repro.nn.losses import (
    BinaryCrossEntropy,
    GeneratorLossMinimax,
    GeneratorLossNonSaturating,
    Loss,
    MeanSquaredError,
    discriminator_loss,
    get_loss,
)
from repro.nn.network import Sequential
from repro.nn.optimizers import SGD, Adam, Optimizer, RMSProp
from repro.nn.serialization import load_weights, save_weights

__all__ = [
    "Activation",
    "Adam",
    "BatchNorm",
    "BinaryCrossEntropy",
    "Dense",
    "Dropout",
    "ELU",
    "GeneratorLossMinimax",
    "GeneratorLossNonSaturating",
    "GlorotUniform",
    "HeUniform",
    "Identity",
    "Initializer",
    "Layer",
    "LeakyReLU",
    "Loss",
    "MeanSquaredError",
    "Optimizer",
    "RMSProp",
    "ReLU",
    "SGD",
    "Sequential",
    "Sigmoid",
    "Softplus",
    "Tanh",
    "Zeros",
    "discriminator_loss",
    "get_activation",
    "get_initializer",
    "get_loss",
    "load_weights",
    "save_weights",
]
