"""The GAN-Sec methodology end to end (paper Figure 4).

:class:`GANSec` chains the two model-generation steps and the analysis:

1. **Graph generation** (Algorithm 1): the design-time architecture is
   turned into ``G_CPPS``, candidate flow pairs are extracted by DFS
   reachability, and pruned to the pairs covered by historical data.
2. **CGAN model generation** (Algorithm 2): one conditional GAN is
   trained per trainable flow pair from its aligned dataset.  Pairs are
   independent, so training fans out over the :mod:`repro.runtime`
   executors (``workers=`` / ``executor=``) with per-pair RNG streams
   derived from the pipeline seed and pair key alone — parallel runs
   are bitwise-identical to serial ones.  Per-pair failures are
   isolated: every pair is attempted, successes are kept, and a single
   :class:`~repro.errors.PairTrainingError` aggregates the failures.
3. **Security analysis** (Algorithm 3 + attack models): likelihood
   metrics, side-channel leakage, and a designer-facing report per pair.

The historical data is supplied as a
:class:`~repro.pipeline.pairs.PairDataRegistry` (or, deprecated, a
plain ``(F_i name, F_j name) -> FlowPairDataset`` dict) — in the case
study that single entry is the (acoustic features | G-code condition)
dataset recorded from the simulated printer.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass

from repro.errors import (
    ConfigurationError,
    DataError,
    NotFittedError,
    PairTrainingError,
)
from repro.flows.dataset import FlowPairDataset
from repro.gan.cgan import ConditionalGAN
from repro.graph.architecture import CPPSArchitecture
from repro.graph.builder import GraphGenerationResult, generate
from repro.pipeline.config import GANSecConfig
from repro.pipeline.pairs import FlowPairKey, PairDataRegistry, as_pair_key
from repro.runtime.events import (
    EpochProgress,
    EventBus,
    PairFailed,
    PairTrained,
    TrainingFinished,
    TrainingStarted,
)
from repro.runtime.analysis import ConditionSampleCache
from repro.runtime.executors import get_executor
from repro.runtime.training import (
    PairTrainingJob,
    build_pair_cgan,
    run_training_job,
)
from repro.security.report import SecurityReport, build_security_report
from repro.utils.rng import as_rng, derive_rngs, fresh_entropy

#: Pair-directory names that are safe to build from raw flow names; any
#: other name goes through the indexed layout + manifest.json.
_SAFE_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9 .\-]*$")
_MANIFEST_NAME = "manifest.json"


@dataclass
class PairModel:
    """A trained model + split data for one flow pair."""

    pair_names: FlowPairKey
    cgan: ConditionalGAN
    train_set: FlowPairDataset
    test_set: FlowPairDataset
    report: SecurityReport | None = None

    @property
    def key(self) -> FlowPairKey:
        return self.pair_names


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
        self._rng = as_rng(self.config.seed)
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
    def generate_graph(self, data) -> GraphGenerationResult:
        """Run Algorithm 1 against the flows covered by *data*.

        *data* is a :class:`~repro.pipeline.pairs.PairDataRegistry`
        (or legacy tuple-keyed dict); its keys define which flows have
        historical observations.
        """
        registry = PairDataRegistry.coerce(data)
        self.graph_result = generate(self.architecture, registry.flow_names())
        return self.graph_result

    # -- step 2: Algorithm 2 -----------------------------------------------------
    def _build_cgan(self, feature_dim: int, condition_dim: int, seed) -> ConditionalGAN:
        return build_pair_cgan(self.config.cgan, feature_dim, condition_dim, seed)

    def _trainable_name_pairs(self) -> set:
        # The paper: "Each pair is then supplied to the CGAN to model
        # Pr(F_i|F_j) or Pr(F_j|F_i)" — Algorithm 1 orders pairs causally,
        # but either conditioning direction may be trained.
        trainable = set()
        for fp in self.graph_result.trainable_pairs:
            trainable.add(fp.names)
            trainable.add(fp.names[::-1])
        return trainable

    def train_models(
        self,
        data,
        *,
        pairs=None,
        workers: int | None = None,
        executor=None,
        bus: EventBus | None = None,
        checkpoint_plan: dict | None = None,
    ) -> dict[FlowPairKey, PairModel]:
        """Train one CGAN per covered flow pair (Algorithm 2).

        Parameters
        ----------
        data:
            :class:`~repro.pipeline.pairs.PairDataRegistry` (or legacy
            ``(F_i, F_j) name tuple -> FlowPairDataset`` dict).
        pairs:
            Optional subset of pair keys to train; defaults to every
            registered pair that survived Algorithm 1's pruning.
        workers:
            Worker count for the pair fan-out; defaults to
            ``config.workers``.  Results are identical for any value.
        executor:
            ``"serial"`` / ``"thread"`` / ``"process"``, an
            :class:`~repro.runtime.executors.Executor` instance, or
            ``None`` to pick from ``config.executor`` / *workers*.
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
        registry = PairDataRegistry.coerce(data)
        if self.graph_result is None:
            self.generate_graph(registry)
        trainable_names = self._trainable_name_pairs()
        if pairs is not None:
            selected = [as_pair_key(p) for p in pairs]
        else:
            selected = registry.keys()
        for key in selected:
            if key not in registry:
                raise DataError(f"no dataset supplied for pair {key.as_tuple()}")
            if key not in trainable_names:
                raise ConfigurationError(
                    f"pair {key.as_tuple()} was pruned by Algorithm 1 (not "
                    "reachable or not covered by data); cannot train"
                )

        cfg = self.config
        if workers is None:
            workers = cfg.workers
        exec_obj = get_executor(
            executor if executor is not None else cfg.executor, workers
        )
        bus = bus if bus is not None else EventBus()
        checkpoint_plan = checkpoint_plan or {}
        jobs = [
            PairTrainingJob(
                key=key,
                dataset=registry[key],
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

        start = time.perf_counter()
        bus.emit(
            TrainingStarted(
                total_pairs=len(jobs),
                executor=getattr(exec_obj, "name", type(exec_obj).__name__),
                workers=getattr(exec_obj, "workers", 1),
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

        if exec_obj.in_process:
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

        outcomes = exec_obj.map_pairs(fn, jobs)

        failures: dict = {}
        completed: list = []
        for job, outcome in zip(jobs, outcomes):
            if not exec_obj.in_process:
                for it, tot, d_loss, g_loss in outcome.progress:
                    _emit_progress(str(job.key), it, tot, d_loss, g_loss)
            if outcome.ok:
                self.models[job.key] = PairModel(
                    pair_names=job.key,
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
        pair_names=None,
        *,
        workers: int | None = None,
        executor=None,
        bus: EventBus | None = None,
    ) -> dict[FlowPairKey, SecurityReport]:
        """Run the security analysis for trained pairs.

        The Algorithm 3 likelihood tables for every selected pair are
        computed by the parallel engine
        (:func:`repro.security.engine.run_security_analysis`): one job
        per (pair, condition), fanned out over the same executors as
        training, with fused Parzen scoring and a generated-sample
        cache that persists across repeated ``analyze()`` calls.  The
        per-job RNG streams derive from the pipeline seed and the
        (pair, condition) identity alone, so any *workers* / *executor*
        choice yields bitwise-identical reports.

        Parameters
        ----------
        workers:
            Worker count for the analysis fan-out; defaults to
            ``config.analysis_workers``.
        executor:
            ``"serial"`` / ``"thread"`` / ``"process"``, an executor
            instance, or ``None`` to pick from *workers*.
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
        if pair_names is not None:
            targets = [as_pair_key(pair_names)]
        else:
            targets = list(self.models)
        cfg = self.config.analysis
        for key in targets:
            if key not in self.models:
                raise DataError(f"pair {key.as_tuple()} has no trained model")
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
            executor=executor,
            workers=workers,
            bus=bus,
            cache=self._sample_cache,
        )
        reports: dict[FlowPairKey, SecurityReport] = {}
        for key in targets:
            model = self.models[key]
            # One schedule-independent stream per pair, like training.
            (report_rng,) = derive_rngs(
                self._root_entropy, ("analyze", key.first, key.second), 1
            )
            report = build_security_report(
                model.cgan,
                model.test_set,
                pair_name=key.label(),
                h=cfg.h,
                g_size=cfg.g_size,
                feature_indices=cfg.feature_indices,
                seed=report_rng,
                likelihood=likelihoods[key],
            )
            model.report = report
            reports[key] = report
        return reports

    def run(
        self,
        data,
        *,
        workers: int | None = None,
        executor=None,
        bus: EventBus | None = None,
        analysis_workers: int | None = None,
    ) -> dict[FlowPairKey, SecurityReport]:
        """Convenience: graph → training → analysis in one call.

        *workers* / *executor* drive the Algorithm 2 training fan-out;
        *analysis_workers* (defaulting to ``config.analysis_workers``)
        drives the Algorithm 3 fan-out.  The shared *bus* receives both
        stages' events — including the ``StageStarted`` /
        ``StageCompleted`` lifecycle of the three Figure 4 steps, which
        run as an ephemeral (in-memory, never-skipping)
        :class:`~repro.pipeline.rungraph.RunGraph`.  The persistent,
        resumable variant of this graph is
        :func:`repro.pipeline.experiment.run_experiment`.
        """
        from repro.pipeline.rungraph import RunGraph, Stage

        registry = PairDataRegistry.coerce(data)
        reports: dict[FlowPairKey, SecurityReport] = {}

        def run_graph_stage(_ctx):
            self.generate_graph(registry)
            return {}, {"trainable_pairs": len(self.graph_result.trainable_pairs)}

        def run_train_stage(_ctx):
            self.train_models(registry, workers=workers, executor=executor, bus=bus)
            return {}, {"trained": len(self.models)}

        def run_analyze_stage(_ctx):
            reports.update(
                self.analyze(workers=analysis_workers, executor=executor, bus=bus)
            )
            return {}, {"analyzed": len(reports)}

        graph = RunGraph(
            [
                Stage("graph", run=run_graph_stage),
                Stage("train", run=run_train_stage, deps=("graph",)),
                Stage("analyze", run=run_analyze_stage, deps=("train",)),
            ],
            store=None,
            manifest=None,
            bus=bus,
            resume=False,
        )
        graph.execute(None)
        return reports

    # -- persistence ----------------------------------------------------------
    @staticmethod
    def _pair_dirname(index: int, key: FlowPairKey) -> str:
        """Directory name for one pair: readable when safe, indexed otherwise.

        Flow names containing ``__`` (the legacy separator), path
        metacharacters, or anything else hostile get a neutral
        ``pair_NNNN`` directory; identity always lives in the manifest.
        """
        if _SAFE_NAME.match(key.first) and _SAFE_NAME.match(key.second):
            return f"{key.first}__{key.second}"
        return f"pair_{index:04d}"

    def save(self, directory) -> "Path":
        """Persist all trained pair models (CGAN + splits) to *directory*.

        Layout: one subdirectory per pair holding a ``manifest.json``
        (the authoritative pair identity), the CGAN (see
        :func:`repro.gan.serialization.save_cgan`), and the train/test
        datasets.  Directory names are only cosmetic: hostile flow
        names (e.g. containing ``__``) fall back to ``pair_NNNN``.
        """
        import json
        from pathlib import Path

        from repro.flows.io import save_dataset
        from repro.gan.serialization import save_cgan

        if not self.models:
            raise NotFittedError("nothing to save: train_models() first")
        directory = Path(directory)
        for index, (key, model) in enumerate(self.models.items()):
            pair_dir = directory / self._pair_dirname(index, key)
            pair_dir.mkdir(parents=True, exist_ok=True)
            (pair_dir / _MANIFEST_NAME).write_text(
                json.dumps(
                    {"version": 1, "first": key.first, "second": key.second},
                    indent=2,
                )
            )
            save_cgan(model.cgan, pair_dir / "cgan")
            save_dataset(model.train_set, pair_dir / "train.npz")
            save_dataset(model.test_set, pair_dir / "test.npz")
        return directory

    def load(self, directory) -> dict[FlowPairKey, PairModel]:
        """Restore pair models saved by :meth:`save` into this pipeline.

        Pair identity is read from each subdirectory's ``manifest.json``;
        directories written by older versions (no manifest, names
        encoded as ``<first>__<second>``) are still understood.
        """
        import json
        from pathlib import Path

        from repro.errors import SerializationError
        from repro.flows.io import load_dataset
        from repro.gan.serialization import load_cgan

        directory = Path(directory)
        if not directory.is_dir():
            raise SerializationError(f"no such model directory: {directory}")
        loaded: dict[FlowPairKey, PairModel] = {}
        for pair_dir in sorted(p for p in directory.iterdir() if p.is_dir()):
            manifest_path = pair_dir / _MANIFEST_NAME
            if manifest_path.exists():
                try:
                    manifest = json.loads(manifest_path.read_text())
                    key = FlowPairKey(manifest["first"], manifest["second"])
                except (json.JSONDecodeError, KeyError, TypeError) as exc:
                    raise SerializationError(
                        f"corrupt pair manifest at {manifest_path}: {exc}"
                    ) from exc
            elif "__" in pair_dir.name:
                # Legacy layout: identity encoded in the directory name.
                first, second = pair_dir.name.split("__", 1)
                key = FlowPairKey(first, second)
            else:
                continue
            loaded[key] = PairModel(
                pair_names=key,
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
