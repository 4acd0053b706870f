"""Bitwise-identity guarantees for the zero-allocation training hot path.

The preallocated workspaces in ``repro.nn`` and ``repro.gan`` replace
every per-iteration allocation of the seed implementation with in-place
writes that replicate the original operation sequence exactly.  These
tests pin that contract:

* fixed-seed training trajectories hash to golden digests recorded from
  the pre-optimization implementation,
* the rewritten sigmoid matches the sign-masked formulation bitwise,
* buffer reuse never leaks into values handed back to callers.
"""

import hashlib

import numpy as np
import pytest

from repro.flows.dataset import FlowPairDataset
from repro.gan.cgan import ConditionalGAN
from repro.gan.noise import GaussianNoise
from repro.nn.activations import Sigmoid
from repro.nn.layers import Dense

# SHA-256 of the post-training weights produced by the *seed* (allocating)
# implementation for the two recipes below, recorded before the hot-path
# rewrite.  Any bitwise drift in the training trajectory changes these.
GOLDEN_ADAM_DEFAULT = (
    "3a8a965f2cd5f22aa9743b8f6e298c22631fde6dbae9157da07773df90b9d748"
)
GOLDEN_ADAM_MINIMAX = (
    "64e6def01525592cf48b4413937936425de0b03bf05ac9f294de76920cb3b326"
)


def _weights_digest(gan: ConditionalGAN) -> str:
    h = hashlib.sha256()
    for net in (gan.generator, gan.discriminator):
        weights = net.get_weights()
        for key in sorted(weights):
            h.update(key.encode())
            h.update(weights[key].tobytes())
    return h.hexdigest()


def _dataset():
    rng = np.random.default_rng(123)
    feats = rng.uniform(size=(24, 8))
    conds = np.tile(np.eye(3), (8, 1))
    return FlowPairDataset(feats, conds)


class TestGoldenTrajectories:
    def test_adam_default_architecture(self):
        gan = ConditionalGAN(8, 3, noise_dim=4, seed=7)
        gan.train(
            _dataset(),
            iterations=40,
            batch_size=8,
            k_disc=2,
            label_smoothing=0.1,
        )
        assert _weights_digest(gan) == GOLDEN_ADAM_DEFAULT

    def test_adam_minimax_default_architecture(self):
        # The paper-literal Line 10 objective, one D step per iteration.
        gan = ConditionalGAN(8, 3, noise_dim=4, generator_loss="minimax", seed=7)
        gan.train(_dataset(), iterations=40, batch_size=8)
        assert _weights_digest(gan) == GOLDEN_ADAM_MINIMAX


class TestSigmoidBitwise:
    @staticmethod
    def _masked_reference(x):
        # The seed formulation: sign-split gather/scatter evaluation.
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    def test_matches_masked_formulation_bitwise(self):
        rng = np.random.default_rng(0)
        x = rng.normal(scale=50.0, size=(64, 32))
        got = Sigmoid().forward(x)
        np.testing.assert_array_equal(got, self._masked_reference(x))

    def test_edge_values(self):
        x = np.array([0.0, -0.0, np.inf, -np.inf, 710.0, -710.0, 1e-300])
        got = Sigmoid().forward(x)
        np.testing.assert_array_equal(got, self._masked_reference(x))

    def test_out_buffer_same_bits(self):
        x = np.linspace(-30, 30, 101)
        buf = np.empty_like(x)
        assert Sigmoid().forward(x, out=buf) is buf
        np.testing.assert_array_equal(buf, Sigmoid().forward(x))


class TestBufferSafety:
    def test_predict_results_not_aliased_across_calls(self):
        # Inference output must survive later forward passes — e.g. the
        # security engine's ConditionSampleCache keeps predict() results
        # long-term.  Training workspaces must never be handed out.
        net_gan = ConditionalGAN(6, 2, noise_dim=3, seed=0)
        conds = np.eye(2)
        first = net_gan.generate(conds, seed=1)
        snapshot = first.copy()
        net_gan.generate(np.ones((5, 2)), seed=2)
        net_gan.train(
            FlowPairDataset(
                np.random.default_rng(0).uniform(size=(8, 6)),
                np.tile(np.eye(2), (4, 1)),
            ),
            iterations=3,
            batch_size=4,
        )
        np.testing.assert_array_equal(first, snapshot)

    def test_dense_training_rebatch(self):
        # Consecutive training batches of different sizes must not share
        # or corrupt workspaces.
        layer = Dense(4, "relu")
        layer.build(3, np.random.default_rng(0))
        out8 = layer.forward(np.ones((8, 3)), training=True).copy()
        layer.forward(np.zeros((2, 3)), training=True)
        np.testing.assert_array_equal(
            out8, layer.forward(np.ones((8, 3)), training=True)
        )

    def test_train_twice_same_buffers_consistent(self):
        gan = ConditionalGAN(8, 3, noise_dim=4, seed=7)
        ds = _dataset()
        gan.train(ds, iterations=5, batch_size=8)
        # Buffers allocated once per batch size and reused.
        assert set(gan._train_buffers) == {8}
        gan.train(ds, iterations=5, batch_size=4)
        assert set(gan._train_buffers) == {8, 4}


class TestNoiseSampleInto:
    @pytest.mark.parametrize("prior", [GaussianNoise(4)], ids=["gauss"])
    def test_values_and_stream_match_sample(self, prior):
        # Same values AND same post-call RNG state as the allocating
        # sample(): the training loop interleaves draws with dataset
        # sampling, so stream position is part of the contract.
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        want = prior.sample(6, rng_a)
        buf = np.empty((6, 4))
        got = prior.sample_into(buf, rng_b)
        assert got is buf
        np.testing.assert_array_equal(got, want)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestSampleBatchOut:
    def test_matches_allocating_call(self):
        rng = np.random.default_rng(5)
        ds = FlowPairDataset(
            rng.uniform(size=(20, 6)), np.tile(np.eye(4), (5, 1))
        )
        want_x, want_c = ds.sample_batch(7, seed=99)
        bufs = (np.empty((7, 6)), np.empty((7, 4)))
        got_x, got_c = ds.sample_batch(7, seed=99, out=bufs)
        assert got_x is bufs[0] and got_c is bufs[1]
        np.testing.assert_array_equal(got_x, want_x)
        np.testing.assert_array_equal(got_c, want_c)
