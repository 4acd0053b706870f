"""Typed stage builders for the case-study experiment run graph.

This module turns the monolithic experiment script into the explicit
Figure 4 pipeline that :class:`~repro.pipeline.rungraph.RunGraph`
executes against a run directory:

========================  =====================================  ==========================
stage                     paper step                             outputs
========================  =====================================  ==========================
``record``                historical data collection             ``dataset.npz``
``graph``                 Algorithm 1 (G_CPPS generation)        ``graph.dot``
``train[<pair>]``         Algorithm 2 (CGAN model generation)    ``model/``, ``history.csv``
``analyze[<pair>]``       Algorithm 3 + attack models            ``report.txt``, ``analysis.json``
``report``                designer-facing summary                ``summary.json``
========================  =====================================  ==========================

Each stage's ``config_slice`` holds exactly the configuration that
affects its result — scheduling knobs (workers, executor, tracing,
caching, checkpoint cadence) are excluded, so changing them never
re-runs anything.

Every stage can *hydrate* its inputs from the artifact store when its
upstream stages were skipped: ``analyze`` reloads the trained CGAN from
``model/`` and re-derives the train/test split from the pipeline seed
(the split RNG stream depends only on the seed and the pair identity),
and ``report`` reads its numbers from the manifest records and
``analysis.json`` — which is what makes a resumed run byte-identical to
an uninterrupted one.
"""

from __future__ import annotations

import shutil
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from repro.artifacts.manifest import RunManifest
from repro.artifacts.store import ArtifactStore
from repro.errors import PairTrainingError
from repro.flows.io import load_dataset, save_dataset
from repro.gan.serialization import load_cgan, save_cgan
from repro.graph.builder import generate
from repro.graph.export import to_dot
from repro.manufacturing.architecture import monitored_flow_names
from repro.manufacturing.traces import record_case_study_dataset
from repro.pipeline.gansec import GANSec, PairModel
from repro.pipeline.pairs import FlowPairKey
from repro.pipeline.rungraph import Stage
from repro.runtime.events import EventBus
from repro.runtime.training import CheckpointSpec, pair_rng_streams

if TYPE_CHECKING:  # avoid a stages ↔ experiment import cycle
    from repro.pipeline.experiment import ExperimentConfig

#: Condition labels used in the case-study report (one-hot motor axes).
CONDITION_NAMES = ["Cond1 (X)", "Cond2 (Y)", "Cond3 (Z)"]

#: Transient per-pair training checkpoints live here; deleted once the
#: pair's final model supersedes them.
CHECKPOINT_ROOT = "checkpoints"


def checkpoint_dirname(key: FlowPairKey) -> str:
    return f"{CHECKPOINT_ROOT}/{key.first}__{key.second}"


@dataclass
class ExperimentRunContext:
    """Shared state the experiment stages execute against.

    ``values`` carries in-memory products (the recorded dataset, the
    final summary) between stages of the *same* run; anything a stage
    needs from a *skipped* upstream stage is rehydrated from the store.
    """

    config: "ExperimentConfig"
    store: ArtifactStore
    manifest: RunManifest
    pipeline: GANSec
    pair: FlowPairKey
    bus: EventBus | None = None
    values: dict = field(default_factory=dict)
    #: stage name -> pair key, for the train/analyze stage families.
    pair_for_stage: dict = field(default_factory=dict)

    def dataset(self):
        """The recorded dataset — in-memory if this run recorded it,
        reloaded from ``dataset.npz`` if the record stage was skipped."""
        dataset = self.values.get("dataset")
        if dataset is None:
            dataset = load_dataset(self.store.path("dataset.npz"))
            self.values["dataset"] = dataset
        return dataset

    def registry(self) -> dict:
        return {self.pair: self.dataset()}


# -- stage bodies -------------------------------------------------------------
def _run_record(ctx: ExperimentRunContext):
    cfg = ctx.config
    dataset, _extractor, _encoder, _runs = record_case_study_dataset(
        n_moves_per_axis=cfg.n_moves_per_axis,
        sample_rate=cfg.sample_rate,
        n_bins=cfg.n_bins,
        seed=cfg.seed,
        feature_cache=cfg.feature_cache,
    )
    ctx.values["dataset"] = dataset
    record = ctx.store.put_file(
        "dataset.npz", lambda path: save_dataset(dataset, path)
    )
    return {"dataset": record}, {"n_samples": len(dataset)}


def _run_graph(ctx: ExperimentRunContext):
    result = generate(ctx.pipeline.architecture, monitored_flow_names())
    record = ctx.store.put_text("graph.dot", to_dot(result.graph))
    return {"graph": record}, {"trainable_pairs": len(result.trainable_pairs)}


def _hydrate_pair_model(ctx: ExperimentRunContext, key: FlowPairKey) -> None:
    """Rebuild ``pipeline.models[key]`` from the persisted ``model/``.

    The train/test split is re-derived, not stored: its RNG stream
    depends only on the pipeline seed and the pair identity, so the
    recomputed split is bitwise-identical to the one training used.
    """
    cgan = load_cgan(ctx.store.path("model"))
    split_rng, _train_rng, _model_rng = pair_rng_streams(
        ctx.pipeline.root_entropy, key
    )
    train_set, test_set = ctx.dataset().split(
        ctx.pipeline.config.analysis.test_fraction, seed=split_rng
    )
    ctx.pipeline.models[key] = PairModel(
        pair_names=key, cgan=cgan, train_set=train_set, test_set=test_set
    )


def _make_analyze_run(stage_name: str):
    def _run_analyze(ctx: ExperimentRunContext):
        key = ctx.pair_for_stage[stage_name]
        if key not in ctx.pipeline.models:
            _hydrate_pair_model(ctx, key)
        report = ctx.pipeline.analyze(key, bus=ctx.bus)[key]
        analysis = {
            "attack_accuracy": report.leakage.accuracy,
            "leakage_ratio": report.leakage.leakage_ratio,
            "condition_entropy_bits": report.condition_entropy,
            "max_feature_mi_bits": report.leaked_bits_upper_bound,
            "verdict": report.verdict(),
        }
        outputs = {
            "report": ctx.store.put_text(
                "report.txt", report.to_text(condition_names=CONDITION_NAMES)
            ),
            "analysis": ctx.store.put_json("analysis.json", analysis),
        }
        return outputs, {}

    return _run_analyze


def _make_report_run(train_name: str):
    def _run_report(ctx: ExperimentRunContext):
        cfg = ctx.config
        record_meta = ctx.manifest.get("record").meta
        train_meta = ctx.manifest.get(train_name).meta
        analysis = ctx.store.read_json("analysis.json")
        summary = {
            "experiment": cfg.name,
            "seed": cfg.seed,
            "n_samples": record_meta["n_samples"],
            "train_samples": train_meta["train_samples"],
            "test_samples": train_meta["test_samples"],
            "iterations": train_meta["iterations"],
            "final_d_loss": train_meta["final_d_loss"],
            "final_g_loss": train_meta["final_g_loss"],
            "attack_accuracy": analysis["attack_accuracy"],
            "leakage_ratio": analysis["leakage_ratio"],
            "condition_entropy_bits": analysis["condition_entropy_bits"],
            "max_feature_mi_bits": analysis["max_feature_mi_bits"],
            "verdict": analysis["verdict"],
        }
        ctx.values["summary"] = summary
        return {"summary": ctx.store.put_json("summary.json", summary)}, {}

    return _run_report


def train_group_runner(group: str, batch, ctx: ExperimentRunContext):
    """Run one batch of ``train[*]`` stages through the parallel runtime.

    All stages in the batch go to a single
    :meth:`~repro.pipeline.gansec.GANSec.train_models` call, preserving
    the executor fan-out and the one
    ``TrainingStarted``/``TrainingFinished`` event envelope per batch.
    Completed pairs are persisted (and their transient checkpoints
    deleted) even when other pairs failed; the aggregated
    :class:`~repro.errors.PairTrainingError` is returned as the abort so
    the engine records the successes first.
    """
    cfg = ctx.config
    stage_for_key: dict = {}
    plan: dict = {}
    for stage, fingerprint in batch:
        key = ctx.pair_for_stage[stage.name]
        stage_for_key[key] = (stage, fingerprint)
        if cfg.checkpoint_every:
            plan[key] = CheckpointSpec(
                directory=str(ctx.store.path(checkpoint_dirname(key))),
                every=cfg.checkpoint_every,
                fingerprint=fingerprint,
            )
    abort = None
    try:
        ctx.pipeline.train_models(
            ctx.registry(),
            pairs=list(stage_for_key),
            bus=ctx.bus,
            checkpoint_plan=plan or None,
        )
    except PairTrainingError as exc:
        abort = exc

    results: dict = {}
    for key, (stage, _fingerprint) in stage_for_key.items():
        model = ctx.pipeline.models.get(key)
        if model is None:  # this pair failed; abort carries the details
            continue
        outputs = {
            "model": ctx.store.put_tree(
                "model", lambda d, m=model: save_cgan(m.cgan, d)
            ),
            "history": ctx.store.put_file(
                "history.csv", lambda p, m=model: m.cgan.history.to_csv(p)
            ),
        }
        shutil.rmtree(
            ctx.store.path(checkpoint_dirname(key)), ignore_errors=True
        )
        final = model.cgan.history.final()
        meta = {
            "train_samples": len(model.train_set),
            "test_samples": len(model.test_set),
            "iterations": model.cgan.trained_iterations,
            "final_d_loss": final["d_loss"],
            "final_g_loss": final["g_loss"],
        }
        results[stage.name] = (outputs, meta)
    return results, abort


def build_experiment_stages(config: "ExperimentConfig", pair: FlowPairKey):
    """The experiment's run graph for one flow pair.

    Returns ``(stages, group_runners, pair_for_stage)``; the caller puts
    *pair_for_stage* on the :class:`ExperimentRunContext`.
    """
    from repro.pipeline.config import CGANConfig

    cgan_cfg = CGANConfig(
        iterations=config.iterations,
        batch_size=config.batch_size,
        k_disc=config.k_disc,
    )
    train_name = f"train[{pair}]"
    analyze_name = f"analyze[{pair}]"
    stages = [
        Stage(
            "record",
            run=_run_record,
            config_slice={
                "n_moves_per_axis": config.n_moves_per_axis,
                "sample_rate": config.sample_rate,
                "n_bins": config.n_bins,
                "seed": config.seed,
            },
            outputs=("dataset",),
        ),
        Stage(
            "graph",
            run=_run_graph,
            config_slice={"flows": list(monitored_flow_names())},
            outputs=("graph",),
        ),
        Stage(
            train_name,
            run=None,
            deps=("record", "graph"),
            config_slice={
                "pair": str(pair),
                "seed": config.seed,
                "cgan": asdict(cgan_cfg),
                "test_fraction": config.test_fraction,
            },
            outputs=("model", "history"),
            group="train",
        ),
        Stage(
            analyze_name,
            run=_make_analyze_run(analyze_name),
            deps=(train_name,),
            config_slice={
                "pair": str(pair),
                "seed": config.seed,
                "h": config.h,
                "g_size": config.g_size,
                "test_fraction": config.test_fraction,
                "feature_indices": None,
            },
            outputs=("report", "analysis"),
        ),
        Stage(
            "report",
            run=_make_report_run(train_name),
            deps=("record", train_name, analyze_name),
            config_slice={"name": config.name, "seed": config.seed},
            outputs=("summary",),
        ),
    ]
    group_runners = {"train": train_group_runner}
    pair_for_stage = {train_name: pair, analyze_name: pair}
    return stages, group_runners, pair_for_stage
