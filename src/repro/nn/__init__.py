"""A small from-scratch neural-network framework (numpy only).

This is the substrate GAN-Sec's Algorithm 2 runs on.  It provides dense
feed-forward networks with manual backprop: ``Dense`` layers with
activations, the BCE discriminator loss and both GAN generator
objectives, the Adam optimizer, weight serialization, and
finite-difference gradient checking.

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
    LeakyReLU,
    ReLU,
    Sigmoid,
    get_activation,
)
from repro.nn.initializers import (
    GlorotUniform,
    HeUniform,
    Initializer,
    get_initializer,
)
from repro.nn.layers import Dense, Layer
from repro.nn.losses import (
    BinaryCrossEntropy,
    GeneratorLossMinimax,
    GeneratorLossNonSaturating,
    Loss,
    discriminator_loss,
    get_loss,
)
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam, Optimizer
from repro.nn.serialization import load_weights, save_weights

__all__ = [
    "Activation",
    "Adam",
    "BinaryCrossEntropy",
    "Dense",
    "GeneratorLossMinimax",
    "GeneratorLossNonSaturating",
    "GlorotUniform",
    "HeUniform",
    "Initializer",
    "Layer",
    "LeakyReLU",
    "Loss",
    "Optimizer",
    "ReLU",
    "Sequential",
    "Sigmoid",
    "discriminator_loss",
    "get_activation",
    "get_initializer",
    "get_loss",
    "load_weights",
    "save_weights",
]
