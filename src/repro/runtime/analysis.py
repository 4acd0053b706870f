"""Per-(pair, condition) analysis jobs: the unit of work Algorithm 3 fans out.

The security-analysis stage scores every test point against a Parzen
window fitted to generator samples, independently for every analyzed
condition of every flow pair.  :class:`AnalysisJob` packages one such
(pair, condition) cell — picklable, so the
:func:`~repro.runtime.executors.fan_out` process pool can run it — and
:func:`run_analysis_job` executes it with the fused
:class:`~repro.security.parzen.ConditionalParzen` kernel.

Determinism: the generator-noise stream for each job is derived from
``(root_entropy, pair label, condition)`` only (see
:func:`analysis_rng`), never from a shared sequential stream, so any
schedule produces bitwise-identical likelihood tables.

:func:`run_analysis_job` returns the condition's per-feature log
densities of every test row at every width; the engine reduces them to
Algorithm 3's Cor/Inc table and the side-channel attacker reads the
same numbers, so each (pair, condition) is drawn and scored once.

:class:`ConditionSampleCache` is a thread-safe LRU over generated
condition samples keyed by ``(pair, condition, n, seed)``, served to
repeated Table I sweeps
(:func:`~repro.security.engine.security_analysis_h_sweep`).  Because the
per-job RNG is a pure function of that key, a cache hit is numerically
indistinguishable from regeneration — it simply skips the generator
forward passes when the same cells are analyzed again with the same
root.
"""

from __future__ import annotations

import threading
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError, DataError
from repro.utils.rng import derive_rngs, fresh_entropy
from repro.utils.validation import check_positive_int


#: Pair label of draws made outside a flow-pair pipeline; Algorithm 3,
#: the attacker and the detector default to it so that, given one root,
#: they fit the same samples.
DEFAULT_PAIR = "analysis"


def condition_tokens(condition) -> tuple:
    """Canonical, hashable form of one condition vector.

    ``repr(float)`` round-trips exactly, so two bitwise-equal condition
    vectors always map to the same tokens (and therefore the same
    derived RNG stream and cache slot).
    """
    return tuple(repr(float(v)) for v in np.asarray(condition).ravel())


def analysis_rng(root_entropy: int, pair: str, condition) -> np.random.Generator:
    """The generator-noise stream for one (pair, condition) cell.

    A pure function of its arguments — the fan-out analogue of
    :func:`repro.runtime.training.pair_rng_streams` for Algorithm 3.
    """
    (rng,) = derive_rngs(
        root_entropy, ("analysis", pair, *condition_tokens(condition)), 1
    )
    return rng


class ConditionSampleCache:
    """Thread-safe LRU cache of generated condition samples.

    Keys are ``(pair, condition tokens, n, root_entropy)``; values are
    the ``(n, d)`` sample arrays drawn from ``G(Z | condition)``.
    Entries are copies-on-read-by-reference: callers must not mutate the
    returned arrays.
    """

    def __init__(self, max_entries: int = 64):
        self.max_entries = check_positive_int(max_entries, "max_entries")
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(pair: str, condition, n: int, root_entropy: int) -> tuple:
        return (str(pair), condition_tokens(condition), int(n), int(root_entropy))

    def get(self, key) -> np.ndarray | None:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, samples: np.ndarray) -> None:
        with self._lock:
            self._entries[key] = samples
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }

    def __repr__(self):
        s = self.stats()
        return (
            f"ConditionSampleCache(entries={s['entries']}/{self.max_entries}, "
            f"hits={s['hits']}, misses={s['misses']})"
        )


@dataclass(eq=False)
class AnalysisJob:
    """One (pair, condition) cell of Algorithm 3 at every Parzen width in
    the tuple ``h``, picklable.

    ``generated`` is pre-filled by the engine on a sample-cache hit;
    the job then skips the generator entirely.  (``eq=False``: jobs
    carry arrays, so generated equality would be ambiguous — identity
    is the only meaningful comparison.)
    """

    pair: str
    condition: np.ndarray
    cond_index: int
    job_index: int
    total: int
    test_features: np.ndarray
    feature_indices: np.ndarray
    h: tuple
    g_size: int
    root_entropy: int
    sampler: object = None
    generated: np.ndarray | None = None


@dataclass(eq=False)
class AnalysisOutcome:
    """Result of one job *or* a captured failure: the log density of every
    test row under the job's condition, ``(len(h), n_features, n_rows)``,
    one block per width of the job's ``h``."""

    pair: str
    cond_index: int
    seconds: float
    log_densities: np.ndarray | None = None
    generated: np.ndarray | None = None
    cache_hit: bool = False
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


#: What ``ConditionalGAN.generate_for_condition`` reads when given an rng.
_SAMPLING_STATE = ("condition_dim", "noise", "generator")


@dataclass
class _SamplerRef:
    """Picklable ``(condition, n, rng) -> samples`` handle on a CGAN.

    A pickled handle carries only what sampling reads, the generator and
    the noise prior: a process-pool job is not sent the discriminator,
    the optimizers' moments or the training buffers.
    """

    cgan: object = field(repr=False)

    def __call__(self, condition, n, rng):
        return self.cgan.generate_for_condition(condition, n, seed=rng)

    def __getstate__(self):
        return {name: getattr(self.cgan, name) for name in _SAMPLING_STATE}

    def __setstate__(self, state):
        from repro.gan.cgan import ConditionalGAN  # Local import to avoid a cycle.

        self.cgan = object.__new__(ConditionalGAN)
        vars(self.cgan).update(state)


def as_sampler(generator_sampler):
    """Normalize a trained CGAN or a callable into a picklable
    ``(condition, n, rng) -> samples``, fit for the process pool."""
    from repro.gan.cgan import ConditionalGAN  # Local import to avoid a cycle.

    if isinstance(generator_sampler, ConditionalGAN):
        generator_sampler.require_trained()
        return _SamplerRef(generator_sampler)
    if callable(generator_sampler):
        return generator_sampler
    raise ConfigurationError(
        "generator_sampler must be a trained ConditionalGAN or a callable "
        "(condition, n, rng) -> samples"
    )


def resolve_root_entropy(root_entropy) -> int:
    """The integer root of the derived draw streams; ``None`` draws
    fresh entropy.  Anything else (a shared ``Generator`` included)
    raises :class:`~repro.errors.ConfigurationError`: every stream is
    derived from the root, never consumed in sequence."""
    if root_entropy is None:
        return fresh_entropy()
    if not isinstance(root_entropy, (int, np.integer)):
        raise ConfigurationError(
            f"root_entropy must be an int or None, got {type(root_entropy).__name__}"
        )
    return int(root_entropy)


def draw_condition_samples(
    sampler, pair: str, condition, g_size: int, root_entropy: int
) -> np.ndarray:
    """``g_size`` draws from ``G(Z | condition)`` on the :func:`analysis_rng`
    stream of the cell."""
    rng = analysis_rng(root_entropy, pair, condition)
    generated = np.asarray(sampler(condition, g_size, rng), dtype=float)
    if generated.ndim != 2 or generated.shape[0] != g_size:
        raise DataError(
            f"sampler returned shape {generated.shape}, expected "
            f"({g_size}, n_features)"
        )
    return generated


def fit_condition_model(
    sampler,
    conditions,
    *,
    h: float,
    g_size: int,
    root_entropy,
    pair: str,
    feature_indices=None,
):
    """A :class:`~repro.security.parzen.ConditionalParzen` fitted to
    ``g_size`` draws per row of *conditions*, each from its cell's
    :func:`draw_condition_samples` stream.  *root_entropy* may be ``None``
    (fresh entropy) or an int, as checked by :func:`resolve_root_entropy`."""
    from repro.security.parzen import ConditionalParzen  # Avoids a cycle.

    root_entropy = resolve_root_entropy(root_entropy)
    draws = [
        draw_condition_samples(sampler, pair, cond, g_size, root_entropy)
        for cond in np.atleast_2d(conditions)
    ]
    return ConditionalParzen(h, draws, feature_indices=feature_indices)


def run_analysis_job(job: AnalysisJob) -> AnalysisOutcome:
    """Execute *job*; never raises.

    Algorithm 3 Lines 6-9 for one condition: draw ``GSize`` generator
    samples (unless a cached draw is attached), model every analyzed
    feature with a 1-D Parzen window, and score every test row under
    the condition, at every width of ``job.h`` from one kernel pass.
    """
    start = time.perf_counter()
    try:
        from repro.security.parzen import ConditionalParzen

        cache_hit = job.generated is not None
        if cache_hit:
            generated = job.generated
        else:
            generated = draw_condition_samples(
                job.sampler, job.pair, job.condition, job.g_size, job.root_entropy
            )
        model = ConditionalParzen(
            job.h[0], [generated], feature_indices=job.feature_indices
        )
        claims = np.zeros(len(job.test_features), dtype=int)
        log_densities = model.log_densities(job.test_features, claims, job.h)
        return AnalysisOutcome(
            pair=job.pair,
            cond_index=job.cond_index,
            seconds=time.perf_counter() - start,
            log_densities=log_densities.transpose(0, 2, 1),
            generated=generated,
            cache_hit=cache_hit,
        )
    except Exception:  # noqa: BLE001 - failure isolation is the contract
        return AnalysisOutcome(
            pair=job.pair,
            cond_index=job.cond_index,
            seconds=time.perf_counter() - start,
            error=traceback.format_exc(),
        )
