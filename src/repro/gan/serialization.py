"""Saving and loading trained Conditional GANs.

A CGAN is stored as a directory containing the generator and
discriminator weight archives plus a JSON metadata file describing the
model configuration (dims, noise prior, loss, training progress).
Loading rebuilds a :class:`~repro.gan.cgan.ConditionalGAN` with default
layer stacks of the recorded widths and restores both networks —
enough to resume analysis (Algorithm 3, attackers, detectors) without
retraining.

Training *checkpoints* extend this with everything an interrupted
Algorithm 2 run needs to continue bitwise-identically: both optimizer
states, the loss history so far, and the training RNG stream positions
(see :class:`~repro.gan.cgan.TrainingCheckpointState`).  A checkpoint
directory is valid only when its ``checkpoint.json`` marker is present
and every component file matches the digest recorded in the marker —
the marker is deleted before any component is rewritten and re-created
last, so a crash mid-checkpoint leaves a directory that is *detectably*
incomplete rather than silently mixed.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.artifacts.store import sha256_file
from repro.errors import DataError, SerializationError
from repro.gan.cgan import ConditionalGAN, TrainingCheckpointState
from repro.gan.history import TrainingHistory
from repro.nn.layers import Dense
from repro.nn.serialization import (
    load_optimizer_state,
    load_weights,
    save_optimizer_state,
    save_weights,
)
from repro.utils.atomic import atomic_write_text

_META_NAME = "cgan.json"
_GEN_NAME = "generator.npz"
_DISC_NAME = "discriminator.npz"
_FORMAT_VERSION = 1

CHECKPOINT_SCHEMA = "gansec-train-checkpoint/v1"
CHECKPOINT_MARKER = "checkpoint.json"
_CKPT_FILES = (
    "generator.npz",
    "discriminator.npz",
    "opt_generator.npz",
    "opt_discriminator.npz",
    "history.csv",
)


def _layer_widths(network) -> list:
    """Hidden Dense widths of a default-style stack (all but the head)."""
    widths = []
    for layer in network.layers[:-1]:
        if not isinstance(layer, Dense):
            raise SerializationError(
                "only default Dense generator/discriminator stacks are "
                f"serializable; found {layer!r}"
            )
        widths.append(layer.units)
    return widths


def save_cgan(cgan: ConditionalGAN, directory) -> Path:
    """Serialize *cgan* into *directory* (created if needed)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    meta = {
        "version": _FORMAT_VERSION,
        "feature_dim": cgan.feature_dim,
        "condition_dim": cgan.condition_dim,
        "noise": {"kind": "gaussian", "dim": cgan.noise_dim, "std": 1.0},
        "generator_hidden": _layer_widths(cgan.generator),
        "discriminator_hidden": _layer_widths(cgan.discriminator),
        "generator_loss": cgan.generator_loss_name,
        "trained_iterations": cgan.trained_iterations,
    }
    atomic_write_text(directory / _META_NAME, json.dumps(meta, indent=2))
    save_weights(cgan.generator, directory / _GEN_NAME)
    save_weights(cgan.discriminator, directory / _DISC_NAME)
    return directory


def load_cgan(directory) -> ConditionalGAN:
    """Rebuild a CGAN from a directory written by :func:`save_cgan`."""
    directory = Path(directory)
    meta_path = directory / _META_NAME
    if not meta_path.exists():
        raise SerializationError(f"no CGAN metadata at {meta_path}")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise SerializationError(f"corrupt CGAN metadata: {exc}") from exc
    if not isinstance(meta, dict):
        raise SerializationError(
            f"corrupt CGAN metadata: {meta_path} holds a JSON "
            f"{type(meta).__name__}, not an object"
        )
    if meta.get("version") != _FORMAT_VERSION:
        raise SerializationError(
            f"unsupported CGAN format version {meta.get('version')}"
        )

    from repro.gan.cgan import default_discriminator, default_generator

    try:
        noise_spec = meta["noise"]
        if noise_spec.get("kind") != "gaussian" or noise_spec.get("std") != 1.0:
            raise SerializationError(
                f"unsupported noise prior {noise_spec!r}; only a standard-normal "
                "Z (kind 'gaussian', std 1.0) can be loaded"
            )
        cgan = ConditionalGAN(
            meta["feature_dim"],
            meta["condition_dim"],
            noise_dim=noise_spec["dim"],
            generator_layers=default_generator(
                meta["feature_dim"], hidden=tuple(meta["generator_hidden"])
            ),
            discriminator_layers=default_discriminator(
                hidden=tuple(meta["discriminator_hidden"])
            ),
            generator_loss=meta["generator_loss"],
            seed=0,
        )
        trained_iterations = int(meta["trained_iterations"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"corrupt CGAN metadata in {meta_path}: {exc!r}"
        ) from exc
    load_weights(cgan.generator, directory / _GEN_NAME)
    load_weights(cgan.discriminator, directory / _DISC_NAME)
    cgan.trained_iterations = trained_iterations
    return cgan


def save_training_checkpoint(
    cgan: ConditionalGAN,
    state: TrainingCheckpointState,
    directory,
    *,
    fingerprint: str = "",
) -> Path:
    """Persist a mid-training checkpoint of *cgan* into *directory*.

    Crash-safety protocol: the ``checkpoint.json`` marker is deleted
    *first*, every component (weights, optimizer states, history) is
    written atomically, and the marker is re-created *last* carrying a
    SHA-256 digest of each component.  A crash at any point therefore
    leaves either the previous complete checkpoint (marker intact, old
    components still matching it is impossible — the marker is already
    gone) or a marker-less / digest-mismatched directory that
    :func:`restore_training_checkpoint` rejects; never a silently mixed
    state.

    *fingerprint* is an opaque caller token (e.g. the training stage's
    config fingerprint) verified on restore, so a checkpoint from a
    different configuration is never resumed.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    marker = directory / CHECKPOINT_MARKER
    marker.unlink(missing_ok=True)
    save_weights(cgan.generator, directory / "generator.npz")
    save_weights(cgan.discriminator, directory / "discriminator.npz")
    for opt, net in ((cgan._g_opt, "generator"), (cgan._d_opt, "discriminator")):
        save_optimizer_state(opt, getattr(cgan, net), directory / f"opt_{net}.npz")
    cgan.history.to_csv(directory / "history.csv")
    payload = {
        "schema": CHECKPOINT_SCHEMA,
        "iteration": state.iteration,
        "total_iterations": state.total_iterations,
        "trained_iterations": cgan.trained_iterations,
        "rng_state_start": state.rng_state_start,
        "rng_state_now": state.rng_state_now,
        "fingerprint": fingerprint,
        "files": {name: sha256_file(directory / name) for name in _CKPT_FILES},
    }
    atomic_write_text(marker, json.dumps(payload, indent=2))
    return directory


def restore_training_checkpoint(
    cgan: ConditionalGAN,
    directory,
    *,
    expected_fingerprint: str | None = None,
) -> TrainingCheckpointState:
    """Restore *cgan* from a checkpoint directory; returns the resume state.

    Raises :class:`~repro.errors.SerializationError` unless the marker
    is present, parses, matches *expected_fingerprint* (when given), and
    every component file matches its recorded digest — callers treat
    that as "no usable checkpoint" and fall back to training from
    scratch, which still produces the identical final model (the
    checkpoint only saves time, never changes results).

    On success the CGAN's networks, optimizer states, loss history, and
    iteration counter hold exactly what they held when the checkpoint
    was written; pass the returned state as ``resume=`` to
    :meth:`~repro.gan.cgan.ConditionalGAN.train` to continue.
    """
    directory = Path(directory)
    marker = directory / CHECKPOINT_MARKER
    if not marker.is_file():
        raise SerializationError(f"no checkpoint marker at {marker}")
    try:
        payload = json.loads(marker.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializationError(
            f"corrupt checkpoint marker {marker}: {exc}"
        ) from exc
    if not isinstance(payload, dict):
        raise SerializationError(
            f"corrupt checkpoint marker {marker}: a JSON "
            f"{type(payload).__name__}, not an object"
        )
    if payload.get("schema") != CHECKPOINT_SCHEMA:
        raise SerializationError(
            f"unknown checkpoint schema {payload.get('schema')!r} in {marker}"
        )
    if (
        expected_fingerprint is not None
        and payload.get("fingerprint") != expected_fingerprint
    ):
        raise SerializationError(
            f"checkpoint in {directory} was written for a different "
            "configuration; refusing to resume from it"
        )
    digests = payload.get("files", {})
    if not isinstance(digests, dict):
        raise SerializationError(
            f"corrupt checkpoint marker {marker}: \"files\" is a JSON "
            f"{type(digests).__name__}, not an object"
        )
    for name in _CKPT_FILES:
        path = directory / name
        want = digests.get(name)
        if not want or not path.is_file() or sha256_file(path) != want:
            raise SerializationError(
                f"checkpoint component {name} in {directory} is missing or "
                "does not match the digest in the marker"
            )
    try:
        load_weights(cgan.generator, directory / "generator.npz")
        load_weights(cgan.discriminator, directory / "discriminator.npz")
        for opt, net in ((cgan._g_opt, "generator"), (cgan._d_opt, "discriminator")):
            load_optimizer_state(opt, getattr(cgan, net), directory / f"opt_{net}.npz")
        cgan.history = TrainingHistory.from_csv(directory / "history.csv")
        cgan.trained_iterations = int(payload["trained_iterations"])
        return TrainingCheckpointState(
            iteration=int(payload["iteration"]),
            total_iterations=int(payload["total_iterations"]),
            rng_state_start=payload["rng_state_start"],
            rng_state_now=payload["rng_state_now"],
        )
    except (DataError, KeyError, TypeError, ValueError) as exc:
        raise SerializationError(
            f"cannot restore checkpoint from {directory}: {exc}"
        ) from exc
