"""Exception hierarchy for the GAN-Sec reproduction library.

All library-raised exceptions derive from :class:`GanSecError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` from misuse of numpy, etc.)
propagate unchanged.
"""

from __future__ import annotations


class GanSecError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(GanSecError, ValueError):
    """An object was constructed with invalid or inconsistent parameters.

    Also a :class:`ValueError` so that generic callers validating
    parameters (e.g. frequency grids) can catch the standard type.
    """


class ShapeError(GanSecError):
    """An array argument had the wrong shape or dimensionality."""


class NotFittedError(GanSecError):
    """A model-like object was used before being trained/fitted."""


class DataError(GanSecError):
    """Input data is empty, misaligned, or otherwise unusable."""


class GCodeError(GanSecError):
    """A G-code program could not be parsed or executed."""


class ArchitectureError(GanSecError):
    """A CPPS architecture description is malformed (unknown nodes,
    duplicate flows, flows referencing missing components, ...)."""


class SerializationError(GanSecError):
    """A model or dataset could not be saved or loaded."""


class AnalysisError(GanSecError):
    """One or more (pair, condition) security-analysis jobs failed.

    Raised by the Algorithm 3 engine (:mod:`repro.security.engine`)
    *after* every job has been attempted, mirroring
    :class:`PairTrainingError`'s failure isolation for training.

    Attributes
    ----------
    failures:
        Mapping of ``(pair label, condition index)`` -> formatted
        error/traceback string.
    """

    def __init__(self, failures: dict):
        self.failures = dict(failures)
        lines = [f"{len(self.failures)} analysis job(s) failed:"]
        for (pair, cond_index), err in self.failures.items():
            first_line = (
                str(err).strip().splitlines()[-1] if str(err).strip() else str(err)
            )
            lines.append(f"  {pair} condition #{cond_index}: {first_line}")
        super().__init__("\n".join(lines))


class PairTrainingError(GanSecError):
    """One or more flow pairs failed to train in a batch.

    Raised by :func:`repro.pipeline.gansec.train_pairs` *after* every
    pair has been attempted: failures are isolated per pair, and this
    exception aggregates what went wrong and carries the models that did
    train.

    Attributes
    ----------
    failures:
        Mapping of failed pair key -> formatted error/traceback string.
    completed:
        Mapping of pair key -> trained
        :class:`~repro.pipeline.gansec.PairModel` for the pairs that
        trained successfully in the same batch.
    """

    def __init__(self, failures: dict, completed=None):
        self.failures = dict(failures)
        self.completed = dict(completed or {})
        lines = [
            f"{len(self.failures)} of "
            f"{len(self.failures) + len(self.completed)} flow pairs failed to train:"
        ]
        for key, err in self.failures.items():
            first_line = str(err).strip().splitlines()[-1] if str(err).strip() else str(err)
            lines.append(f"  {key}: {first_line}")
        super().__init__("\n".join(lines))
