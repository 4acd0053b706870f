"""The GAN-Sec methodology end to end (paper Figure 4).

:class:`GANSec` chains the two model-generation steps and the analysis:

1. **Graph generation** (Algorithm 1): the design-time architecture is
   turned into ``G_CPPS``, candidate flow pairs are extracted by DFS
   reachability, and pruned to the pairs covered by historical data.
2. **CGAN model generation** (Algorithm 2): one conditional GAN is
   trained per trainable flow pair from its aligned dataset.  Pairs are
   independent, so training fans out over ``workers`` processes
   (:func:`repro.runtime.executors.fan_out`) with per-pair RNG streams
   derived from the pipeline seed and pair key alone — parallel runs
   are bitwise-identical to serial ones.  Per-pair failures are
   isolated: every pair is attempted, successes are kept, and a single
   :class:`~repro.errors.PairTrainingError` aggregates the failures.
3. **Security analysis** (Algorithm 3 + attack models): likelihood
   metrics, side-channel leakage, and a designer-facing report per pair.

The historical data is a ``dict`` mapping
:class:`~repro.pipeline.pairs.FlowPairKey` to
:class:`~repro.flows.dataset.FlowPairDataset` — in the case study that
single entry is the (acoustic features | G-code condition) dataset
recorded from the simulated printer.  :meth:`GANSec.run` is the three
steps called in a row; the persistent, resumable version of the same
pipeline is :func:`repro.pipeline.experiment.run_experiment`.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro.errors import (
    ConfigurationError,
    DataError,
    NotFittedError,
    PairTrainingError,
    SerializationError,
)
from repro.flows.dataset import FlowPairDataset
from repro.gan.cgan import ConditionalGAN
from repro.graph.architecture import CPPSArchitecture
from repro.graph.builder import GraphGenerationResult, generate
from repro.pipeline.config import GANSecConfig
from repro.pipeline.pairs import FlowPairKey
from repro.runtime.events import (
    EpochProgress,
    EventBus,
    PairFailed,
    PairTrained,
    TrainingFinished,
    TrainingStarted,
)
from repro.runtime.analysis import ConditionSampleCache
from repro.runtime.executors import fan_out, pool_size
from repro.runtime.training import PairTrainingJob, run_training_job
from repro.security.report import SecurityReport, build_security_report
from repro.utils.atomic import atomic_write_text
from repro.utils.rng import fresh_entropy
from repro.utils.validation import check_positive_int

_MANIFEST_NAME = "manifest.json"


def _require_pair_key(value) -> FlowPairKey:
    """Reject anything but a :class:`FlowPairKey` at the public entry points."""
    if not isinstance(value, FlowPairKey):
        raise ConfigurationError(
            f"flow pairs must be given as FlowPairKey(first, second), got {value!r}"
        )
    return value


def _require_pair_data(data) -> dict:
    if not data:
        raise DataError("no pair data supplied")
    for key in data:
        _require_pair_key(key)
    return data


@dataclass
class PairModel:
    """A trained model + split data for one flow pair."""

    key: FlowPairKey
    cgan: ConditionalGAN
    train_set: FlowPairDataset
    test_set: FlowPairDataset
    report: SecurityReport | None = None


class GANSec:
    """End-to-end GAN-Sec analysis driver.

    Parameters
    ----------
    architecture:
        The design-time CPPS description.
    config:
        :class:`~repro.pipeline.config.GANSecConfig` (defaults are the
        case-study settings).
    """

    def __init__(
        self,
        architecture: CPPSArchitecture,
        config: GANSecConfig | None = None,
    ):
        self.architecture = architecture
        self.config = config or GANSecConfig()
        self.graph_result: GraphGenerationResult | None = None
        self.models: dict[FlowPairKey, PairModel] = {}
        # Root entropy for the schedule-independent per-pair seed
        # fan-out (see repro.utils.rng.derive_rngs).
        if isinstance(self.config.seed, int):
            self._root_entropy = int(self.config.seed)
        else:
            self._root_entropy = fresh_entropy()
        # Generated-sample LRU shared across analyze() calls: repeated
        # analyses (e.g. h sweeps) reuse each condition's draw because
        # the cache key excludes the Parzen bandwidth.
        self._sample_cache = ConditionSampleCache(
            max_entries=self.config.sample_cache_entries
        )

    @property
    def root_entropy(self) -> int:
        """Root of the schedule-independent per-pair/per-job RNG fan-out.

        Equals the configured seed when that is an int, so external
        consumers (e.g. the staged experiment's split re-derivation)
        can reproduce any derived stream.
        """
        return self._root_entropy

    # -- step 1: Algorithm 1 -----------------------------------------------------
    def generate_graph(self, data: dict) -> GraphGenerationResult:
        """Run Algorithm 1 against the flows covered by *data*.

        *data* maps :class:`~repro.pipeline.pairs.FlowPairKey` to
        ``FlowPairDataset``; its keys define which flows have
        historical observations.
        """
        _require_pair_data(data)
        flow_names = {name for key in data for name in (key.first, key.second)}
        self.graph_result = generate(self.architecture, flow_names)
        return self.graph_result

    # -- step 2: Algorithm 2 -----------------------------------------------------
    def _trainable_name_pairs(self) -> set:
        # The paper: "Each pair is then supplied to the CGAN to model
        # Pr(F_i|F_j) or Pr(F_j|F_i)" — Algorithm 1 orders pairs causally,
        # but either conditioning direction may be trained.
        trainable = set()
        for fp in self.graph_result.trainable_pairs:
            first, second = fp.names
            trainable.add(FlowPairKey(first, second))
            trainable.add(FlowPairKey(second, first))
        return trainable

    def train_models(
        self,
        data: dict,
        *,
        pairs=None,
        workers: int | None = None,
        bus: EventBus | None = None,
        checkpoint_plan: dict | None = None,
    ) -> dict[FlowPairKey, PairModel]:
        """Train one CGAN per covered flow pair (Algorithm 2).

        Parameters
        ----------
        data:
            ``FlowPairKey -> FlowPairDataset`` dict.
        pairs:
            Optional subset of *data*'s keys to train; defaults to
            all of them.
        workers:
            Worker count for the pair fan-out; defaults to
            ``config.workers``.  ``min(workers, pairs)`` processes train
            the pairs; one trains them in this thread with live
            ``EpochProgress`` events.  Results are identical for any
            value.
        bus:
            Optional :class:`~repro.runtime.events.EventBus` receiving
            the structured training events.
        checkpoint_plan:
            Optional ``pair key ->``
            :class:`~repro.runtime.training.CheckpointSpec` mapping
            enabling periodic crash-recovery checkpoints for those
            pairs: a valid existing checkpoint is resumed from, and the
            continued run is bitwise-identical to an uninterrupted one.

        Returns the mapping of pair keys to :class:`PairModel`.

        Raises
        ------
        PairTrainingError
            If one or more pairs failed during training.  Raised only
            after every pair was attempted; successful models are kept
            on :attr:`models`.
        """
        _require_pair_data(data)
        if self.graph_result is None:
            self.generate_graph(data)
        trainable_names = self._trainable_name_pairs()
        if pairs is not None:
            selected = [_require_pair_key(p) for p in pairs]
        else:
            selected = list(data)
        for key in selected:
            if key not in data:
                raise DataError(f"no dataset supplied for pair {key}")
            if key not in trainable_names:
                raise ConfigurationError(
                    f"pair {key} was pruned by Algorithm 1 (not "
                    "reachable or not covered by data); cannot train"
                )

        cfg = self.config
        if workers is None:
            workers = cfg.workers
        bus = bus if bus is not None else EventBus()
        checkpoint_plan = checkpoint_plan or {}
        jobs = [
            PairTrainingJob(
                key=key,
                dataset=data[key],
                cgan=cfg.cgan,
                test_fraction=cfg.analysis.test_fraction,
                root_entropy=self._root_entropy,
                index=i,
                total=len(selected),
                progress_every=cfg.progress_every or None,
                checkpoint=checkpoint_plan.get(key),
            )
            for i, key in enumerate(selected)
        ]

        pool = pool_size(workers, len(jobs))
        in_process = pool == 1
        start = time.perf_counter()
        bus.emit(
            TrainingStarted(
                total_pairs=len(jobs),
                executor="serial" if in_process else "process",
                workers=pool,
            )
        )

        def _emit_progress(pair, iteration, total, d_loss, g_loss):
            bus.emit(
                EpochProgress(
                    pair=pair,
                    iteration=iteration,
                    total_iterations=total,
                    d_loss=d_loss,
                    g_loss=g_loss,
                )
            )

        if in_process:
            def fn(job):
                pair = str(job.key)
                return run_training_job(
                    job,
                    emit=lambda it, tot, d, g: _emit_progress(pair, it, tot, d, g),
                )
        else:
            # Jobs are shipped to worker processes: the mapped function
            # must be picklable, and progress is replayed afterwards.
            fn = run_training_job

        outcomes = fan_out(fn, jobs, workers)

        failures: dict = {}
        completed: list = []
        for job, outcome in zip(jobs, outcomes):
            if not in_process:
                for it, tot, d_loss, g_loss in outcome.progress:
                    _emit_progress(str(job.key), it, tot, d_loss, g_loss)
            if outcome.ok:
                self.models[job.key] = PairModel(
                    key=job.key,
                    cgan=outcome.cgan,
                    train_set=outcome.train_set,
                    test_set=outcome.test_set,
                )
                completed.append(job.key)
                final = outcome.cgan.history.final()
                bus.emit(
                    PairTrained(
                        pair=str(job.key),
                        index=job.index,
                        total_pairs=job.total,
                        seconds=outcome.seconds,
                        train_size=len(outcome.train_set),
                        test_size=len(outcome.test_set),
                        final_d_loss=float(final["d_loss"]),
                        final_g_loss=float(final["g_loss"]),
                    )
                )
            else:
                failures[job.key] = outcome.error
                bus.emit(
                    PairFailed(
                        pair=str(job.key),
                        index=job.index,
                        total_pairs=job.total,
                        seconds=outcome.seconds,
                        error=outcome.error,
                    )
                )
        bus.emit(
            TrainingFinished(
                trained=len(completed),
                failed=len(failures),
                seconds=time.perf_counter() - start,
            )
        )
        if failures:
            raise PairTrainingError(failures, completed=completed)
        return self.models

    # -- step 3: Algorithm 3 + reporting ------------------------------------------
    def analyze(
        self,
        pair: FlowPairKey | None = None,
        *,
        workers: int | None = None,
        bus: EventBus | None = None,
    ) -> dict[FlowPairKey, SecurityReport]:
        """Run the security analysis for trained pairs.

        The Algorithm 3 likelihood tables for every selected pair are
        computed by the parallel engine
        (:func:`repro.security.engine.run_security_analysis`): one job
        per (pair, condition), fanned out by the same worker-count rule
        as training, with fused Parzen scoring and a generated-sample
        cache that persists across repeated ``analyze()`` calls.  The
        per-job RNG streams derive from the pipeline seed and the
        (pair, condition) identity alone, so any *workers* value
        yields bitwise-identical reports.

        Parameters
        ----------
        pair:
            The one :class:`FlowPairKey` to analyze; ``None`` analyzes
            every trained pair.
        workers:
            Worker count for the analysis fan-out; defaults to
            ``config.analysis_workers``.
        bus:
            Optional :class:`~repro.runtime.events.EventBus` receiving
            ``AnalysisStarted`` / ``ConditionScored`` /
            ``AnalysisCompleted`` events.

        Returns ``pair key -> SecurityReport`` and caches each report
        on its :class:`PairModel`.
        """
        from repro.security.engine import AnalysisTarget, run_security_analysis

        if not self.models:
            raise NotFittedError("train_models() must run before analyze()")
        if pair is not None:
            targets = [_require_pair_key(pair)]
        else:
            targets = list(self.models)
        cfg = self.config.analysis
        for key in targets:
            if key not in self.models:
                raise DataError(f"pair {key} has no trained model")
        if workers is None:
            workers = self.config.analysis_workers
        likelihoods = run_security_analysis(
            [
                AnalysisTarget(
                    key=key,
                    sampler=self.models[key].cgan,
                    test_set=self.models[key].test_set,
                    feature_indices=cfg.feature_indices,
                    label=str(key),
                )
                for key in targets
            ],
            h=cfg.h,
            g_size=cfg.g_size,
            root_entropy=self._root_entropy,
            workers=workers,
            bus=bus,
            cache=self._sample_cache,
        )
        reports: dict[FlowPairKey, SecurityReport] = {}
        for key in targets:
            model = self.models[key]
            # The attacker refits the draws Algorithm 3 just cached.
            report = build_security_report(
                model.cgan,
                model.test_set,
                pair_name=key.label(),
                h=cfg.h,
                g_size=cfg.g_size,
                feature_indices=cfg.feature_indices,
                root_entropy=self._root_entropy,
                pair=str(key),
                cache=self._sample_cache,
                likelihood=likelihoods[key],
            )
            model.report = report
            reports[key] = report
        return reports

    def run(
        self,
        data: dict,
        *,
        workers: int | None = None,
        bus: EventBus | None = None,
        analysis_workers: int | None = None,
    ) -> dict[FlowPairKey, SecurityReport]:
        """Convenience: graph → training → analysis in one call.

        *workers* drives the Algorithm 2 training fan-out;
        *analysis_workers* (defaulting to ``config.analysis_workers``)
        drives the Algorithm 3 fan-out.  The shared *bus* receives both
        steps' events.  The persistent, resumable version of this
        pipeline is :func:`repro.pipeline.experiment.run_experiment`.
        """
        if analysis_workers is not None:  # fail before training, not after
            check_positive_int(analysis_workers, "analysis_workers")
        self.generate_graph(data)
        self.train_models(data, workers=workers, bus=bus)
        return self.analyze(workers=analysis_workers, bus=bus)

    # -- persistence ----------------------------------------------------------
    def save(self, directory) -> Path:
        """Persist all trained pair models (CGAN + splits) to *directory*.

        Layout: one ``pair_NNNN`` subdirectory per pair holding a
        ``manifest.json`` (the pair identity), the CGAN (see
        :func:`repro.gan.serialization.save_cgan`), and the train/test
        datasets.  A directory that already holds saved pairs is
        refused, so a later :meth:`load` never sees stale pairs.
        """
        from repro.flows.io import save_dataset
        from repro.gan.serialization import save_cgan

        if not self.models:
            raise NotFittedError("nothing to save: train_models() first")
        directory = Path(directory)
        stale = next(directory.glob(f"*/{_MANIFEST_NAME}"), None)
        if stale is not None:
            raise SerializationError(
                f"{directory} already holds saved pair models ({stale}); "
                "save into a new directory"
            )
        for index, (key, model) in enumerate(self.models.items()):
            pair_dir = directory / f"pair_{index:04d}"
            pair_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                pair_dir / _MANIFEST_NAME,
                json.dumps(
                    {"version": 1, "first": key.first, "second": key.second},
                    indent=2,
                ),
            )
            save_cgan(model.cgan, pair_dir / "cgan")
            save_dataset(model.train_set, pair_dir / "train.npz")
            save_dataset(model.test_set, pair_dir / "test.npz")
        return directory

    def load(self, directory) -> dict[FlowPairKey, PairModel]:
        """Restore pair models saved by :meth:`save` into this pipeline.

        Pair identity is read from each subdirectory's ``manifest.json``;
        subdirectories without one are ignored.
        """
        from repro.flows.io import load_dataset
        from repro.gan.serialization import load_cgan

        directory = Path(directory)
        if not directory.is_dir():
            raise SerializationError(f"no such model directory: {directory}")
        loaded: dict[FlowPairKey, PairModel] = {}
        for manifest_path in sorted(directory.glob(f"*/{_MANIFEST_NAME}")):
            pair_dir = manifest_path.parent
            try:
                manifest = json.loads(manifest_path.read_text())
                key = FlowPairKey(manifest["first"], manifest["second"])
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise SerializationError(
                    f"corrupt pair manifest at {manifest_path}: {exc}"
                ) from exc
            loaded[key] = PairModel(
                key=key,
                cgan=load_cgan(pair_dir / "cgan"),
                train_set=load_dataset(pair_dir / "train.npz"),
                test_set=load_dataset(pair_dir / "test.npz"),
            )
        if not loaded:
            raise SerializationError(f"no pair models found under {directory}")
        self.models.update(loaded)
        return loaded

    def summary(self) -> str:
        """Short textual overview of the whole pipeline state."""
        lines = [f"GANSec pipeline for architecture {self.architecture.name!r}"]
        if self.graph_result is not None:
            lines.append("  " + self.graph_result.summary())
        lines.append(f"  trained pairs: {len(self.models)}")
        for key, model in self.models.items():
            status = "analyzed" if model.report else "trained"
            lines.append(
                f"    {key}: {status}, train={len(model.train_set)}, "
                f"test={len(model.test_set)}"
            )
        return "\n".join(lines)
