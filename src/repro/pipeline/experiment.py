"""Resumable experiment runner: Figure 4 as five fingerprinted stages.

One call reproduces the whole case study and leaves a self-contained
artifact directory behind — the dataset, the trained model, the loss
history, the G_CPPS graph, and the security report — so results can be
inspected, diffed, and re-analyzed without rerunning anything:

::

    experiment/
      config.json          # the exact configuration that ran
      manifest.json        # per-stage fingerprints, digests, timings
      dataset.npz          # recorded (features | conditions)    [record]
      graph.dot            # G_CPPS (Graphviz)                   [graph]
      model/               # trained CGAN                        [train]
      history.csv          # Algorithm 2 loss traces             [train]
      report.txt           # Algorithm 3 + attacker + MI report  [analyze]
      analysis.json        # headline analysis numbers           [analyze]
      summary.json         # machine-readable summary            [report]
      checkpoints/         # transient mid-training checkpoints

:func:`run_experiment` makes five direct calls, one per stage —
``record`` (historical data collection), ``graph`` (Algorithm 1),
``train[<pair>]`` (Algorithm 2), ``analyze[<pair>]`` (Algorithm 3 +
attack models) and ``report`` — each through one skip-or-run step over
a content-addressed :class:`~repro.artifacts.store.ArtifactStore`.

Before a stage runs, its **fingerprint** is computed: a SHA-256 over
the canonical JSON of the stage name, its config slice, and — for every
dependency — that dependency's fingerprint plus the digests of its
recorded outputs.  A config slice holds exactly the configuration that
affects the stage's result; scheduling knobs (analysis workers,
tracing, caching, checkpoint cadence) are left out, so changing them
never re-runs anything.

A stage is skipped iff resume is on, the run manifest holds a record
with a matching fingerprint and the declared outputs, every recorded
output still verifies on disk, *and* no dependency executed during this
run.  The last clause makes invalidation cascade: once a stage re-runs,
everything downstream re-runs, even if the regenerated bytes happen to
coincide (``.npz`` archives embed timestamps, so byte equality must not
be load-bearing).  A skipped stage's inputs are rehydrated from the
store: ``analyze`` reloads the CGAN from ``model/`` and re-derives the
train/test split from the pipeline seed (:func:`hydrate_pair_model`,
which the ``analyze``, ``table1`` and ``detect`` commands share), and
``report`` reads its numbers from the manifest and ``analysis.json`` —
which is what makes a resumed run byte-identical to an uninterrupted
one.  An interrupted training run continues from its latest periodic
checkpoint.  Pass ``resume=False`` to force a fresh run.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from repro.artifacts.manifest import RunManifest, StageRecord
from repro.artifacts.store import ArtifactStore
from repro.errors import ConfigurationError, SerializationError
from repro.flows.io import load_dataset, save_dataset
from repro.gan.serialization import load_cgan, save_cgan
from repro.graph.builder import generate
from repro.graph.export import to_dot
from repro.manufacturing.architecture import (
    GCODE_FLOW,
    MONITORED_EMISSIONS,
    monitored_flow_names,
    printer_architecture,
)
from repro.manufacturing.traces import record_case_study_dataset
from repro.pipeline.config import AnalysisConfig, CGANConfig
from repro.pipeline.gansec import GANSec, GANSecConfig, PairModel
from repro.pipeline.pairs import FlowPairKey
from repro.runtime.events import (
    EventBus,
    StageCompleted,
    StageSkipped,
    StageStarted,
)
from repro.runtime.training import CheckpointSpec, pair_split
from repro.utils.atomic import atomic_write_text
from repro.utils.validation import check_positive, check_positive_int

#: Bump when the fingerprint recipe changes: every stage then re-runs
#: instead of trusting records produced under different rules.
FINGERPRINT_SCHEMA = "gansec-stage-fingerprint/v1"

#: Condition labels used in the case-study report (one-hot motor axes).
CONDITION_NAMES = ["Cond1 (X)", "Cond2 (Y)", "Cond3 (Z)"]

#: Transient per-pair training checkpoints live here; deleted once the
#: pair's final model supersedes them.
CHECKPOINT_ROOT = "checkpoints"


def stage_fingerprint(name: str, config_slice: dict, inputs: dict) -> str:
    """Fingerprint of one stage execution.

    *inputs* maps each dependency name to
    ``{"fingerprint": ..., "outputs": {output key: digest}}`` — so the
    fingerprint pins both what upstream *was asked to do* and what it
    *actually produced*.
    """
    payload = {
        "schema": FINGERPRINT_SCHEMA,
        "stage": name,
        "config": config_slice,
        "inputs": inputs,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def checkpoint_dirname(key: FlowPairKey) -> str:
    return f"{CHECKPOINT_ROOT}/{key.first}__{key.second}"


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one case-study experiment."""

    name: str = "case-study"
    seed: int = 0
    n_moves_per_axis: int = 30
    sample_rate: float = 12000.0
    n_bins: int = 100
    emission_flow: str = "F18"
    iterations: int = 2000
    batch_size: int = 32
    k_disc: int = 1
    h: float = 0.2
    g_size: int = 200
    test_fraction: float = 0.25
    analysis_workers: int = 1
    trace: bool = False
    #: Optional directory for the on-disk raw-feature cache; repeated
    #: experiments over identical recorded audio skip CWT extraction.
    feature_cache: str | None = None
    #: Cadence (in Algorithm 2 iterations) of crash-recovery training
    #: checkpoints; 0 disables them.  Like the other scheduling knobs,
    #: this never affects results — only how much work an interrupted
    #: run can skip when resumed.
    checkpoint_every: int = 500

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("experiment name must be non-empty")
        for name in (
            "n_moves_per_axis", "n_bins", "iterations", "batch_size",
            "k_disc", "g_size", "analysis_workers",
        ):
            check_positive_int(getattr(self, name), name)
        check_positive_int(self.checkpoint_every, "checkpoint_every", minimum=0)
        check_positive(self.h, "h")
        emissions = sorted(MONITORED_EMISSIONS.values())
        if self.emission_flow not in emissions:
            raise ConfigurationError(
                f"emission_flow must be one of {emissions}, "
                f"got {self.emission_flow!r}"
            )

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        """Load a config written as JSON (e.g. a run's ``config.json``).

        Unknown keys are rejected by name instead of exploding inside
        the dataclass constructor, so a typo'd or newer-format config
        fails with an actionable message.
        """
        path = Path(path)
        data = json.loads(path.read_text())
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"experiment config {path} must hold a JSON object, "
                f"got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown experiment config key(s) in {path}: "
                + ", ".join(unknown)
            )
        return cls(**data)


@dataclass
class ExperimentResult:
    """Handle to a finished experiment's artifacts and headline numbers."""

    directory: Path
    config: ExperimentConfig
    summary: dict = field(default_factory=dict)

    def report_text(self) -> str:
        return (self.directory / "report.txt").read_text()


def build_pipeline(config: ExperimentConfig) -> GANSec:
    """The case-study :class:`GANSec` that *config*'s stages run on."""
    return GANSec(
        printer_architecture(),
        GANSecConfig(
            cgan=CGANConfig(
                iterations=config.iterations,
                batch_size=config.batch_size,
                k_disc=config.k_disc,
            ),
            analysis=AnalysisConfig(
                h=config.h,
                g_size=config.g_size,
                test_fraction=config.test_fraction,
            ),
            seed=config.seed,
            analysis_workers=config.analysis_workers,
        ),
    )


class _StageRunner:
    """Skip-or-run one stage at a time against a run directory's manifest.

    The manifest is saved after every completion, so an interrupted run
    keeps full provenance for everything it finished.
    """

    def __init__(
        self, store: ArtifactStore, manifest: RunManifest, bus: EventBus, resume
    ):
        self.store = store
        self.manifest = manifest
        self.bus = bus
        self.resume = bool(resume)
        self.executed: set = set()  #: stages that ran (not skipped) this run

    def __call__(self, name, config_slice, deps, outputs, body) -> None:
        """Run stage *name* unless it is up to date.

        ``body(fingerprint)`` does the work and returns ``(outputs,
        meta)``: each declared output key mapped to the
        :class:`~repro.artifacts.store.ArtifactRecord` it wrote, and
        JSON-serializable provenance for the manifest.
        """
        inputs = {}
        for dep in deps:
            dep_record = self.manifest.get(dep)
            inputs[dep] = {
                "fingerprint": dep_record.fingerprint,
                "outputs": {
                    key: rec.digest for key, rec in sorted(dep_record.outputs.items())
                },
            }
        fingerprint = stage_fingerprint(name, config_slice, inputs)

        record = self.manifest.get(name)
        if (
            self.resume
            and not self.executed.intersection(deps)
            and record is not None
            and record.fingerprint == fingerprint
            and record.status == "completed"
            and set(record.outputs) == set(outputs)
            and all(self.store.verify(rec) for rec in record.outputs.values())
        ):
            self.bus.emit(
                StageSkipped(
                    stage=name,
                    fingerprint=fingerprint,
                    outputs=tuple(sorted(record.outputs)),
                )
            )
            return
        # Stale provenance must never outlive the decision to re-run.
        if record is not None:
            self.manifest.remove(name)
            self.manifest.save()

        started_at = time.time()
        clock = time.perf_counter()
        errors_before = len(self.bus.handler_errors)
        self.bus.emit(StageStarted(stage=name, fingerprint=fingerprint))
        produced, meta = body(fingerprint)
        seconds = time.perf_counter() - clock
        missing = set(outputs) - set(produced)
        if missing:
            raise ConfigurationError(
                f"stage {name!r} did not produce declared output(s): "
                f"{sorted(missing)}"
            )
        record = StageRecord(
            name=name,
            fingerprint=fingerprint,
            status="completed",
            seconds=seconds,
            started_at=started_at,
            finished_at=time.time(),
            outputs=dict(produced),
            meta=dict(meta or {}),
            handler_errors=len(self.bus.handler_errors) - errors_before,
        )
        self.manifest.set(record)
        self.manifest.save()
        self.executed.add(name)
        self.bus.emit(
            StageCompleted(
                stage=name,
                fingerprint=fingerprint,
                seconds=seconds,
                outputs=tuple(sorted(produced)),
            )
        )


# -- stage bodies -------------------------------------------------------------
def _record(config: ExperimentConfig, store: ArtifactStore, values: dict):
    dataset, _extractor, _encoder, _runs = record_case_study_dataset(
        n_moves_per_axis=config.n_moves_per_axis,
        sample_rate=config.sample_rate,
        n_bins=config.n_bins,
        seed=config.seed,
        feature_cache=config.feature_cache,
    )
    values["dataset"] = dataset
    record = store.put_file("dataset.npz", lambda path: save_dataset(dataset, path))
    return {"dataset": record}, {"n_samples": len(dataset)}


def _graph(pipeline: GANSec, store: ArtifactStore):
    result = generate(pipeline.architecture, monitored_flow_names())
    record = store.put_text("graph.dot", to_dot(result.architecture))
    return {"graph": record}, {"trainable_pairs": len(result.trainable_pairs)}


def _train(pipeline, store, pair, dataset, bus, checkpoint_every, fingerprint):
    """Algorithm 2 for *pair*; a :class:`~repro.errors.PairTrainingError`
    propagates and leaves the stage unrecorded."""
    checkpoint_dir = store.path(checkpoint_dirname(pair))
    plan = None
    if checkpoint_every:
        plan = {
            pair: CheckpointSpec(
                directory=str(checkpoint_dir),
                every=checkpoint_every,
                fingerprint=fingerprint,
            )
        }
    pipeline.train_models(
        {pair: dataset()}, pairs=[pair], bus=bus, checkpoint_plan=plan
    )
    model = pipeline.models[pair]
    outputs = {
        "model": store.put_tree("model", lambda d: save_cgan(model.cgan, d)),
        "history": store.put_file(
            "history.csv", lambda p: model.cgan.history.to_csv(p)
        ),
    }
    shutil.rmtree(checkpoint_dir, ignore_errors=True)
    final = model.cgan.history.final()
    meta = {
        "train_samples": len(model.train_set),
        "test_samples": len(model.test_set),
        "iterations": model.cgan.trained_iterations,
        "final_d_loss": final["d_loss"],
        "final_g_loss": final["g_loss"],
    }
    return outputs, meta


def hydrate_pair_model(pipeline, model_dir, key: FlowPairKey, dataset) -> PairModel:
    """Rebuild ``pipeline.models[key]`` from the CGAN saved in *model_dir*.

    The train/test split of *dataset* is re-derived, not stored: its RNG
    stream depends only on the pipeline seed and the pair identity, so
    the recomputed split is bitwise-identical to the one training used.
    """
    train_set, test_set = pair_split(
        dataset, pipeline.config.analysis.test_fraction, pipeline.root_entropy, key
    )
    model = PairModel(
        key=key, cgan=load_cgan(model_dir), train_set=train_set, test_set=test_set
    )
    pipeline.models[key] = model
    return model


def _analyze(pipeline, store, pair, dataset, bus):
    if pair not in pipeline.models:
        hydrate_pair_model(pipeline, store.path("model"), pair, dataset())
    report = pipeline.analyze(pair, bus=bus)[pair]
    analysis = {
        "attack_accuracy": report.leakage.accuracy,
        "leakage_ratio": report.leakage.leakage_ratio,
        "condition_entropy_bits": report.condition_entropy,
        "max_feature_mi_bits": report.leaked_bits_upper_bound,
        "verdict": report.verdict(),
    }
    outputs = {
        "report": store.put_text(
            "report.txt", report.to_text(condition_names=CONDITION_NAMES)
        ),
        "analysis": store.put_json("analysis.json", analysis),
    }
    return outputs, {}


def _report(config, store, manifest, train_name: str, values: dict):
    record_meta = manifest.get("record").meta
    train_meta = manifest.get(train_name).meta
    analysis = store.read_json("analysis.json")
    summary = {
        "experiment": config.name,
        "seed": config.seed,
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
    values["summary"] = summary
    return {"summary": store.put_json("summary.json", summary)}, {}


def run_experiment(
    config: ExperimentConfig, out_dir, *, bus=None, resume: bool = True
) -> ExperimentResult:
    """Execute the experiment described by *config* into *out_dir*.

    The run is five stages (record → graph → train → analyze → report)
    over an artifact store: with *resume* (the default), stages whose
    fingerprints match the run directory's manifest — same config
    slice, same upstream artifacts, outputs verified on disk — are
    skipped, and an interrupted training run continues from its latest
    checkpoint.  ``resume=False`` re-runs everything.  Either way the
    artifacts are byte-for-byte what a single uninterrupted run
    produces.

    *bus* is an optional :class:`~repro.runtime.events.EventBus` for
    live instrumentation (training, analysis, and stage lifecycle
    events); when ``config.trace`` is set the events are additionally
    written to ``<out_dir>/trace.jsonl``.
    """
    from repro.runtime.reporters import JsonlTraceWriter

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        out_dir / "config.json", json.dumps(asdict(config), indent=2)
    )

    if bus is None:
        bus = EventBus()
    trace_writer = None
    if config.trace:
        trace_writer = JsonlTraceWriter(out_dir / "trace.jsonl", atomic=True)
        bus.subscribe(trace_writer.handle)

    store = ArtifactStore(out_dir)
    manifest = RunManifest.load(out_dir)
    stage = _StageRunner(store, manifest, bus, resume)
    pipeline = build_pipeline(config)
    pair = FlowPairKey(config.emission_flow, GCODE_FLOW)
    train_name = f"train[{pair}]"
    analyze_name = f"analyze[{pair}]"
    # In-memory products of this run: the recorded dataset and summary.
    values: dict = {}

    def dataset():
        """The recorded dataset — in memory if this run recorded it,
        reloaded from ``dataset.npz`` if the record stage was skipped."""
        if "dataset" not in values:
            values["dataset"] = load_dataset(store.path("dataset.npz"))
        return values["dataset"]

    try:
        stage(
            "record",
            {
                "n_moves_per_axis": config.n_moves_per_axis,
                "sample_rate": config.sample_rate,
                "n_bins": config.n_bins,
                "seed": config.seed,
            },
            deps=(),
            outputs=("dataset",),
            body=lambda _fp: _record(config, store, values),
        )
        stage(
            "graph",
            {"flows": list(monitored_flow_names())},
            deps=(),
            outputs=("graph",),
            body=lambda _fp: _graph(pipeline, store),
        )
        stage(
            train_name,
            {
                "pair": str(pair),
                "seed": config.seed,
                "cgan": asdict(pipeline.config.cgan),
                "test_fraction": config.test_fraction,
            },
            deps=("record", "graph"),
            outputs=("model", "history"),
            body=lambda fp: _train(
                pipeline, store, pair, dataset, bus, config.checkpoint_every, fp
            ),
        )
        stage(
            analyze_name,
            {
                "pair": str(pair),
                "seed": config.seed,
                "h": config.h,
                "g_size": config.g_size,
                "test_fraction": config.test_fraction,
                "feature_indices": None,
            },
            deps=(train_name,),
            outputs=("report", "analysis"),
            body=lambda _fp: _analyze(pipeline, store, pair, dataset, bus),
        )
        stage(
            "report",
            {"name": config.name, "seed": config.seed},
            deps=("record", train_name, analyze_name),
            outputs=("summary",),
            body=lambda _fp: _report(config, store, manifest, train_name, values),
        )
    finally:
        if trace_writer is not None:
            bus.unsubscribe(trace_writer.handle)
            trace_writer.close()

    summary = values.get("summary")
    if summary is None:  # the report stage was skipped: reuse its artifact
        summary = store.read_json("summary.json")
    return ExperimentResult(directory=out_dir, config=config, summary=summary)


def experiment_status(out_dir) -> list:
    """Per-stage status of a run directory, for ``experiment status``.

    Returns one dict per manifest record: stage name, short
    fingerprint, recorded duration and event-handler errors, output
    paths, and whether every output still verifies against its digest
    on disk.  Raises :class:`FileNotFoundError` if *out_dir* is not a
    directory and :class:`~repro.errors.SerializationError` if its
    ``manifest.json`` is unreadable (the next run re-executes every
    stage).
    """
    out_dir = Path(out_dir)
    if not out_dir.is_dir():
        raise FileNotFoundError(f"no such run directory: {out_dir}")
    store = ArtifactStore(out_dir)
    manifest = RunManifest.load(out_dir)
    if manifest.recovered:
        raise SerializationError(
            f"{manifest.path} is unreadable; the next run re-executes "
            "every stage"
        )
    rows = []
    for name in manifest.names():
        record = manifest.get(name)
        rows.append(
            {
                "stage": name,
                "fingerprint": record.fingerprint[:12],
                "seconds": record.seconds,
                "handler_errors": record.handler_errors,
                "outputs": sorted(rec.path for rec in record.outputs.values()),
                "verified": all(
                    store.verify(rec) for rec in record.outputs.values()
                ),
            }
        )
    return rows


def invalidate_stage(out_dir, stage: str) -> bool:
    """Drop *stage*'s manifest record so the next resume re-runs it
    (and, through the fingerprint cascade, everything downstream).
    Returns whether a record existed."""
    manifest = RunManifest.load(Path(out_dir))
    removed = manifest.remove(stage)
    if removed:
        manifest.save()
    return removed
