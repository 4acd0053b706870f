"""Saving and loading network weights and optimizer state.

Weights are stored in numpy ``.npz`` archives with a small JSON header
describing the architecture fingerprint, so that loading into a
mismatched network fails loudly instead of silently corrupting a model.
Optimizer state (Adam moments and step counter) uses
the same archive format, which is what lets an interrupted training run
resume bitwise-identically from a checkpoint.

All archives are written atomically (tmp file + rename) so a killed
writer never leaves a truncated file at the final path.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.errors import SerializationError
from repro.nn.network import Sequential
from repro.nn.optimizers import Optimizer
from repro.utils.atomic import atomic_path

_FORMAT_VERSION = 1
_OPT_FORMAT_VERSION = 1


def _fingerprint(net: Sequential) -> dict:
    """Architecture fingerprint: layer reprs plus parameter shapes."""
    return {
        "layers": [repr(layer) for layer in net.layers],
        "input_dim": net.input_dim,
        "output_dim": net.output_dim,
        "param_shapes": {
            f"{li}.{name}": list(arr.shape) for li, name, arr in net.parameters()
        },
    }


def save_weights(net: Sequential, path) -> Path:
    """Serialize *net*'s weights (and fingerprint) to ``path`` (.npz)."""
    if not net.built:
        raise SerializationError("cannot save an unbuilt network")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = json.dumps({"version": _FORMAT_VERSION, "fingerprint": _fingerprint(net)})
    arrays = {key.replace(".", "__"): arr for key, arr in net.get_weights().items()}
    with atomic_path(path, suffix=".npz") as tmp:
        np.savez(tmp, __header__=np.frombuffer(header.encode(), dtype=np.uint8), **arrays)
    return path


def load_weights(net: Sequential, path) -> Sequential:
    """Load weights from ``path`` into *net*, verifying the fingerprint."""
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"no such weights file: {path}")
    try:
        with np.load(path) as data:
            header_bytes = bytes(data["__header__"])
            arrays = {
                key.replace("__", "."): data[key]
                for key in data.files
                if key != "__header__"
            }
    except Exception as exc:  # malformed archive
        raise SerializationError(f"cannot read weights file {path}: {exc}") from exc
    try:
        header = json.loads(header_bytes.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"corrupt header in {path}: {exc}") from exc
    if header.get("version") != _FORMAT_VERSION:
        raise SerializationError(
            f"weights format version {header.get('version')} not supported"
        )
    want = _fingerprint(net)["param_shapes"]
    have = header["fingerprint"]["param_shapes"]
    if want != have:
        raise SerializationError(
            "architecture mismatch between network and weights file:\n"
            f"  network: {want}\n  file:    {have}"
        )
    net.set_weights(arrays)
    return net


def _optimizer_slot(li: int, name: str, index: int) -> str:
    return f"s{li}__{name}__{index}"


# Every tensor's entry in an optimizer state header: Adam's [m, v, t].
_ADAM_ENTRY = {"kinds": ["array", "array", "scalar"], "is_list": True}


def save_optimizer_state(opt: Optimizer, net: Sequential, path) -> Path:
    """Serialize *opt*'s accumulated state for *net* to ``path`` (.npz).

    Captures everything an optimizer carries across steps, so that
    restoring it continues a training trajectory bitwise identically to
    one that was never interrupted: the Adam moments, cut by *net*'s
    layout into one ``[m, v, t]`` entry per parameter tensor, and the
    global step counter.
    """
    path = Path(path)
    entries: dict = {}
    arrays: dict = {}
    if opt._state is not None:
        m, v, t = opt._state
        for (li, name, m_i), (_, _, v_i) in zip(net.split(m), net.split(v)):
            for index, item in enumerate((m_i, v_i, np.asarray(t))):
                arrays[_optimizer_slot(li, name, index)] = item
            entries[f"{li}.{name}"] = _ADAM_ENTRY
    header = json.dumps(
        {
            "version": _OPT_FORMAT_VERSION,
            "kind": type(opt).__name__,
            "learning_rate": opt.learning_rate,
            "iterations": opt.iterations,
            "entries": entries,
        }
    )
    with atomic_path(path, suffix=".npz") as tmp:
        np.savez(
            tmp,
            __header__=np.frombuffer(header.encode(), dtype=np.uint8),
            **arrays,
        )
    return path


def load_optimizer_state(opt: Optimizer, net: Sequential, path) -> Optimizer:
    """Restore state written by :func:`save_optimizer_state` for *net*
    into *opt*.

    The optimizer class name must match the ``kind`` that was saved;
    the caller is responsible for constructing *opt* with the right
    hyperparameters.  Every entry must be ``[array, array, scalar]``
    shaped like its tensor, and all entries must carry the same step
    count.
    """
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"no such optimizer state file: {path}")
    try:
        with np.load(path) as data:
            header_bytes = bytes(data["__header__"])
            arrays = {key: data[key] for key in data.files if key != "__header__"}
    except Exception as exc:  # malformed archive
        raise SerializationError(
            f"cannot read optimizer state file {path}: {exc}"
        ) from exc
    try:
        header = json.loads(header_bytes.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"corrupt header in {path}: {exc}") from exc
    if header.get("version") != _OPT_FORMAT_VERSION:
        raise SerializationError(
            f"optimizer state format version {header.get('version')} not supported"
        )
    if header.get("kind") != type(opt).__name__:
        raise SerializationError(
            f"optimizer kind mismatch: state is for {header.get('kind')!r}, "
            f"loading into {type(opt).__name__}"
        )
    opt.reset()
    opt.iterations = int(header.get("iterations", 0))
    entries = header.get("entries")
    if not entries:
        return opt
    m, v = np.zeros_like(net.flat_params), np.zeros_like(net.flat_params)
    layout = list(zip(net.split(m), net.split(v)))
    if not isinstance(entries, dict) or len(entries) != len(layout):
        raise SerializationError(
            f"optimizer state file {path}: entries {entries!r:.60} do not "
            f"match the {len(layout)} parameter tensors"
        )
    steps = set()
    for (li, name, m_i), (_, _, v_i) in layout:
        slots = [arrays.get(_optimizer_slot(li, name, i)) for i in range(3)]
        if (
            entries.get(f"{li}.{name}") != _ADAM_ENTRY
            or any(slot is None for slot in slots)
            or slots[0].shape != m_i.shape
            or slots[1].shape != v_i.shape
            or slots[0].dtype.kind != "f"
            or slots[1].dtype.kind != "f"
            or slots[2].shape != ()
            or slots[2].dtype.kind not in "iu"
        ):
            raise SerializationError(
                f"optimizer state file {path}: entry {li}.{name} is not "
                "[array, array, scalar] shaped like its tensor"
            )
        m_i[...], v_i[...] = slots[0], slots[1]
        steps.add(int(slots[2]))
    if len(steps) != 1:
        raise SerializationError(
            f"optimizer state file {path}: per-tensor step counts disagree "
            f"({sorted(steps)}); one network has one step count"
        )
    opt._state = [m, v, steps.pop()]
    return opt
