"""Parallel, batched security-analysis engine: the one Algorithm 3 path.

Every (pair, condition) cell of the likelihood table is an independent
:class:`~repro.runtime.analysis.AnalysisJob` fanned out by
:func:`repro.runtime.executors.fan_out`, with

* **one pass per sweep** — a job carries every Parzen width ``h`` of
  the call: it draws ``G(Z | C_i)`` once and scores all widths from one
  set of squared kernel distances, so a Table I sweep
  (:func:`security_analysis_h_sweep`) is one fan-out and a single-``h``
  analysis is the sweep of one width;

* **fused scoring** — all test points are evaluated against the
  kernels of every feature in small fixed-size blocks
  (:class:`~repro.security.parzen.ConditionalParzen`) instead of
  per-point or per-feature Python loops;
* **one density pass** — each job returns the log density of every
  test row and feature under its condition; the
  :class:`~repro.security.likelihood.LikelihoodResult` keeps the
  stacked tensor, reduces it to Cor/Inc, and the side-channel attacker
  of :func:`~repro.security.report.build_security_report` reads the
  same tensor, so nothing is drawn or scored twice;
* **deterministic fan-out** — each job's generator-noise stream is
  derived from ``(root_entropy, pair, condition)`` alone
  (:func:`~repro.runtime.analysis.analysis_rng`), so serial and process
  schedules produce bitwise-identical likelihood tables;
* **sample caching** — :func:`security_analysis_h_sweep` can serve and
  store the draws through a
  :class:`~repro.runtime.analysis.ConditionSampleCache` keyed by
  ``(pair, condition, n, seed)``, so repeated sweeps with the same root
  skip generation;
* **instrumentation** — ``AnalysisStarted`` / ``ConditionScored`` /
  ``AnalysisCompleted`` events on the shared
  :class:`~repro.runtime.events.EventBus` feed the existing console and
  JSONL reporters; ``ConditionScored`` fires once per (pair, condition)
  per call, whatever the number of widths.

Failures are isolated like training: every job is attempted, completed
cells are assembled, and a single :class:`~repro.errors.AnalysisError`
aggregates whatever went wrong.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError, ConfigurationError
from repro.flows.dataset import FlowPairDataset
from repro.runtime.analysis import (
    DEFAULT_PAIR,
    AnalysisJob,
    ConditionSampleCache,
    as_sampler,
    resolve_root_entropy,
    run_analysis_job,
)
from repro.runtime.events import (
    AnalysisCompleted,
    AnalysisStarted,
    ConditionScored,
    EventBus,
)
from repro.runtime.executors import fan_out, pool_size
from repro.security.likelihood import (
    LikelihoodResult,
    likelihood_sweep,
    resolve_analysis_target,
)
from repro.utils.validation import check_positive, check_positive_int


@dataclass
class AnalysisTarget:
    """One flow pair's slice of a security-analysis batch.

    Parameters
    ----------
    key:
        Hashable identity under which the pair's
        :class:`~repro.security.likelihood.LikelihoodResult` is returned
        (typically a :class:`~repro.pipeline.pairs.FlowPairKey`).
        ``str(key)`` labels the pair in events and errors and seeds its
        per-condition RNG streams, so it must be unique in a batch.
    sampler:
        Trained CGAN or picklable callable providing ``G(Z | C_i)``.
    test_set:
        Held-out labeled observations for this pair.
    conditions / feature_indices:
        Per-pair overrides; default to the test set's distinct
        conditions and all feature columns.
    """

    key: object
    sampler: object
    test_set: FlowPairDataset
    conditions: object = None
    feature_indices: object = None


@dataclass
class _PreparedTarget:
    target: AnalysisTarget
    label: str
    sampler: object
    conditions: np.ndarray
    feature_indices: np.ndarray


def _prepare_target(target: AnalysisTarget) -> _PreparedTarget:
    """Validate one target and resolve its label and sampler."""
    label = str(target.key)
    conditions, feature_indices = resolve_analysis_target(
        target.test_set, target.conditions, target.feature_indices, label=label
    )
    return _PreparedTarget(
        target=target,
        label=label,
        sampler=as_sampler(target.sampler),
        conditions=conditions,
        feature_indices=feature_indices,
    )


def run_security_analysis(
    targets,
    *,
    h: float = 0.2,
    g_size: int = 200,
    root_entropy: int | None = None,
    workers: int = 1,
    bus: EventBus | None = None,
) -> dict:
    """Run Algorithm 3 at width *h* for several flow pairs in one
    parallel fan-out: the engine pass of :func:`security_analysis_h_sweep`
    at one width.

    Parameters
    ----------
    targets:
        Iterable of :class:`AnalysisTarget`.
    h / g_size:
        Parzen window width and generator samples per condition.
    root_entropy:
        Integer seed root for the per-(pair, condition) RNG derivation;
        ``None`` draws fresh entropy (still deterministic *within* the
        run, but not reproducible across runs).  Anything else raises
        :class:`~repro.errors.ConfigurationError`.
    workers:
        Fan-out width, as in :func:`repro.pipeline.gansec.train_pairs`:
        ``min(workers, jobs)`` processes score the jobs; one scores them
        in this thread with live ``ConditionScored`` events.  Results
        are bitwise-identical for every value.
    bus:
        Optional :class:`~repro.runtime.events.EventBus` receiving the
        structured analysis events.

    Returns ``{target.key: LikelihoodResult}`` in target order.

    Raises
    ------
    ConfigurationError
        If two targets' keys share one ``str(key)``; no job has run then.
    AnalysisError
        If one or more jobs failed.  Raised only after every job was
        attempted.
    """
    results = _analyze(
        targets,
        (h,),
        g_size=g_size,
        root_entropy=root_entropy,
        workers=workers,
        bus=bus,
        cache=None,
    )
    return {key: sweep[float(h)] for key, sweep in results.items()}


def _analyze(
    targets, h_values, *, g_size, root_entropy, workers, bus, cache
) -> dict:
    """The one Algorithm 3 fan-out: ``{target.key: {h: LikelihoodResult}}``
    for every width in *h_values*, one job per (pair, condition)."""
    check_positive_int(workers, "workers")
    hs = tuple(dict.fromkeys(float(check_positive(h, "h")) for h in h_values))
    if not hs:
        raise ConfigurationError("h_values must hold at least one width")
    check_positive_int(g_size, "g_size")
    targets = list(targets)
    labels = [str(t.key) for t in targets]
    for label in labels:
        if labels.count(label) > 1:
            raise ConfigurationError(
                f"analysis target key {label!r} is given more than once; "
                "each pair's result is returned, and its RNG streams "
                "derived, under str(key)"
            )
    prepared = [_prepare_target(t) for t in targets]
    if not prepared:
        return {}
    root_entropy = resolve_root_entropy(root_entropy)
    bus = bus if bus is not None else EventBus()

    jobs: list = []
    for prep in prepared:
        features = prep.target.test_set.features
        for ci, cond in enumerate(prep.conditions):
            job = AnalysisJob(
                pair=prep.label,
                condition=cond,
                cond_index=ci,
                job_index=len(jobs),
                total=0,  # patched below once the batch size is known
                test_features=features,
                feature_indices=prep.feature_indices,
                h=hs,
                g_size=g_size,
                root_entropy=root_entropy,
                sampler=prep.sampler,
            )
            if cache is not None:
                cached = cache.get(
                    cache.key(prep.label, cond, g_size, root_entropy)
                )
                if cached is not None:
                    job.generated = cached
                    job.sampler = None  # skip pickling the model entirely
            jobs.append(job)
    for job in jobs:
        job.total = len(jobs)

    pool = pool_size(workers, len(jobs))
    in_process = pool == 1
    start = time.perf_counter()
    bus.emit(
        AnalysisStarted(
            total_pairs=len(prepared),
            total_conditions=len(jobs),
            executor="serial" if in_process else "process",
            workers=pool,
        )
    )

    def _emit_scored(job, outcome):
        bus.emit(
            ConditionScored(
                pair=job.pair,
                condition=tuple(float(v) for v in job.condition),
                index=job.job_index,
                total=len(jobs),
                n_features=len(job.feature_indices),
                seconds=outcome.seconds,
                cache_hit=outcome.cache_hit,
            )
        )

    if in_process:
        def fn(job):
            outcome = run_analysis_job(job)
            _emit_scored(job, outcome)
            return outcome
        outcomes = fan_out(fn, jobs, workers)
    else:
        outcomes = fan_out(run_analysis_job, jobs, workers)
        for job, outcome in zip(jobs, outcomes):
            _emit_scored(job, outcome)

    failures: dict = {}
    cache_hits = 0
    for job, outcome in zip(jobs, outcomes):
        if not outcome.ok:
            failures[(job.pair, job.cond_index)] = outcome.error
            continue
        cache_hits += int(outcome.cache_hit)
        if cache is not None and not outcome.cache_hit:
            cache.put(
                cache.key(job.pair, job.condition, g_size, root_entropy),
                outcome.generated,
            )
    bus.emit(
        AnalysisCompleted(
            pairs=len(prepared),
            conditions=len(jobs),
            seconds=time.perf_counter() - start,
            cache_hits=cache_hits,
        )
    )
    if failures:
        raise AnalysisError(failures)

    results: dict = {}
    cursor = 0
    for prep in prepared:
        scored = outcomes[cursor : cursor + prep.conditions.shape[0]]
        cursor += len(scored)
        results[prep.target.key] = likelihood_sweep(
            prep.target.test_set,
            prep.conditions,
            prep.feature_indices,
            np.stack([o.log_densities for o in scored], axis=1),
            hs,
        )
    return results


def security_analysis(
    generator_sampler,
    test_set: FlowPairDataset,
    *,
    h: float = 0.2,
    **kwargs,
) -> LikelihoodResult:
    """Algorithm 3 for one flow pair: :func:`security_analysis_h_sweep`
    at the one width *h*.

    *generator_sampler* is a trained
    :class:`~repro.gan.cgan.ConditionalGAN` or any callable
    ``(condition, n, rng) -> (n, d) samples``; *conditions* default to
    the test set's distinct conditions and *feature_indices* to every
    column.  *root_entropy* must be an integer (or ``None``), never a
    shared ``Generator``: schedule independence requires each
    (pair, condition) stream to be derived, not consumed in sequence.
    """
    sweep = security_analysis_h_sweep(
        generator_sampler, test_set, h_values=(h,), **kwargs
    )
    return sweep[float(h)]


def security_analysis_h_sweep(
    generator_sampler,
    test_set: FlowPairDataset,
    *,
    h_values=(0.2, 0.4, 0.6, 0.8, 1.0),
    conditions=None,
    feature_indices=None,
    g_size: int = 200,
    root_entropy: int | None = None,
    pair: str = DEFAULT_PAIR,
    workers: int = 1,
    bus: EventBus | None = None,
    cache: ConditionSampleCache | None = None,
) -> dict:
    """Engine-backed Table I sweep: ``{h: LikelihoodResult}``, keyed by
    ``float(h)``, from one engine pass keyed by *pair*.

    Each (pair, condition) job draws ``G(Z | C_i)`` once and scores
    every width in *h_values* from the same squared kernel distances;
    entry ``h`` is bitwise equal to :func:`security_analysis` at ``h``
    with the same arguments.  A *cache*, when given, serves the draws
    it holds for ``(pair, condition, g_size, root_entropy)`` and stores
    the fresh ones, so a repeated sweep skips generation.
    """
    target = AnalysisTarget(
        key=pair,
        sampler=generator_sampler,
        test_set=test_set,
        conditions=conditions,
        feature_indices=feature_indices,
    )
    results = _analyze(
        [target],
        h_values,
        g_size=g_size,
        root_entropy=root_entropy,
        workers=workers,
        bus=bus,
        cache=cache,
    )
    return results[pair]
