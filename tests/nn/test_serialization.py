"""Tests for repro.nn.serialization."""

import json

import numpy as np
import pytest

from repro.errors import SerializationError
from repro.nn.layers import Dense
from repro.nn.network import Sequential
from repro.nn.optimizers import Adam
from repro.nn.serialization import (
    load_optimizer_state,
    load_weights,
    save_optimizer_state,
    save_weights,
)


def make_net(seed=0, hidden=8):
    return Sequential([Dense(hidden, "relu"), Dense(2)], input_dim=4, seed=seed)


class TestRoundTrip:
    def test_save_load_preserves_predictions(self, tmp_path):
        net = make_net(seed=1)
        path = tmp_path / "weights.npz"
        save_weights(net, path)
        other = make_net(seed=2)
        x = np.random.default_rng(0).normal(size=(5, 4))
        assert not np.allclose(net.predict(x), other.predict(x))
        load_weights(other, path)
        np.testing.assert_allclose(net.predict(x), other.predict(x))

    def test_creates_parent_dirs(self, tmp_path):
        net = make_net()
        path = tmp_path / "deep" / "dir" / "w.npz"
        save_weights(net, path)
        assert path.exists()


class TestFailures:
    def test_unbuilt_network_cannot_save(self, tmp_path):
        net = Sequential([Dense(3)])
        with pytest.raises(SerializationError):
            save_weights(net, tmp_path / "w.npz")

    def test_missing_file(self, tmp_path):
        net = make_net()
        with pytest.raises(SerializationError, match="no such"):
            load_weights(net, tmp_path / "absent.npz")

    def test_architecture_mismatch(self, tmp_path):
        net = make_net(hidden=8)
        path = tmp_path / "w.npz"
        save_weights(net, path)
        wrong = make_net(hidden=16)
        with pytest.raises(SerializationError, match="mismatch"):
            load_weights(wrong, path)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"this is not an npz archive")
        with pytest.raises(SerializationError):
            load_weights(make_net(), path)


def _per_tensor_state_file(path, net, *, steps=(3, 3, 3, 3)):
    """An Adam state file in the per-tensor layout: one ``[m, v, t]``
    entry per parameter tensor, each described by ``kinds``/``is_list``
    in the header.  Returns the header and the slot arrays."""
    rng = np.random.default_rng(0)
    entries, arrays = {}, {}
    for (li, name, arr), t in zip(net.parameters(), steps):
        entries[f"{li}.{name}"] = {
            "kinds": ["array", "array", "scalar"],
            "is_list": True,
        }
        arrays[f"s{li}__{name}__0"] = rng.normal(size=arr.shape)
        arrays[f"s{li}__{name}__1"] = rng.uniform(size=arr.shape)
        arrays[f"s{li}__{name}__2"] = np.asarray(t)
    header = {
        "version": 1,
        "kind": "Adam",
        "learning_rate": 0.01,
        "iterations": max(steps),
        "entries": entries,
    }
    _write_state(path, header, arrays)
    return header, arrays


def _write_state(path, header, arrays):
    encoded = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    np.savez(path, __header__=encoded, **arrays)


def _read_state(path):
    with np.load(path) as data:
        header = json.loads(bytes(data["__header__"]).decode())
        return header, {k: data[k] for k in data.files if k != "__header__"}


class TestOptimizerState:
    def test_per_tensor_file_round_trips(self, tmp_path):
        net = make_net()
        header, arrays = _per_tensor_state_file(tmp_path / "old.npz", net)
        opt = load_optimizer_state(Adam(0.01), net, tmp_path / "old.npz")
        m, v, t = opt._state
        assert t == 3 and opt.iterations == 3
        for li, name, m_i in net.split(m):
            np.testing.assert_array_equal(m_i, arrays[f"s{li}__{name}__0"])
        save_optimizer_state(opt, net, tmp_path / "new.npz")
        new_header, new_arrays = _read_state(tmp_path / "new.npz")
        assert new_header == header
        assert list(new_arrays) == list(arrays)
        for key, arr in arrays.items():
            assert new_arrays[key].dtype == arr.dtype
            np.testing.assert_array_equal(new_arrays[key], arr)

    def test_disagreeing_step_counts_rejected(self, tmp_path):
        net = make_net()
        _per_tensor_state_file(tmp_path / "s.npz", net, steps=(3, 3, 3, 4))
        with pytest.raises(SerializationError, match="step counts disagree"):
            load_optimizer_state(Adam(0.01), net, tmp_path / "s.npz")

    def test_bare_array_entry_rejected(self, tmp_path):
        # The shape a momentum-only optimizer wrote: one bare array.
        net = make_net()
        header, arrays = _per_tensor_state_file(tmp_path / "s.npz", net)
        header["entries"]["0.W"] = {"kinds": ["array"], "is_list": False}
        del arrays["s0__W__1"], arrays["s0__W__2"]
        _write_state(tmp_path / "s.npz", header, arrays)
        with pytest.raises(SerializationError, match="0.W"):
            load_optimizer_state(Adam(0.01), net, tmp_path / "s.npz")

    def test_entries_without_length_rejected(self, tmp_path):
        net = make_net()
        header, arrays = _per_tensor_state_file(tmp_path / "s.npz", net)
        header["entries"] = 5
        _write_state(tmp_path / "s.npz", header, arrays)
        with pytest.raises(SerializationError, match="entries"):
            load_optimizer_state(Adam(0.01), net, tmp_path / "s.npz")

    def test_non_float_slot_rejected(self, tmp_path):
        net = make_net()
        header, arrays = _per_tensor_state_file(tmp_path / "s.npz", net)
        arrays["s1__b__0"] = np.full(arrays["s1__b__0"].shape, "x")
        _write_state(tmp_path / "s.npz", header, arrays)
        with pytest.raises(SerializationError, match="1.b"):
            load_optimizer_state(Adam(0.01), net, tmp_path / "s.npz")
