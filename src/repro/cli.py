"""Command-line interface for the GAN-Sec reproduction.

``experiment`` runs the paper's Figure 4 flow (record → G_CPPS → CGAN →
analysis) into a run directory; every other pipeline command is a
read-out of one such directory:

* ``graph``    — run Algorithm 1 on the printer architecture and print
  the G_CPPS listing / DOT;
* ``analyze``  — print the run's full security report;
* ``table1``   — regenerate the paper's Table I for the run's model;
* ``detect``   — evaluate axis-swap attack detection for the run's model;
* ``experiment`` — run the whole staged pipeline into a resumable run
  directory; ``experiment status <dir>`` and
  ``experiment invalidate <dir> <stage>`` inspect and edit its manifest.
* ``stream``   — run the online attack detector over a replayed WAV or
  synthetic printer trace, real-time or max-rate, printing live alarms
  and a throughput summary.

``analyze``, ``table1`` and ``detect`` take ``--run DIR`` and read the
run's ``config.json``, ``dataset.npz`` and ``model/``: the
pair, seed and train/test split are the experiment's, so ``analyze``
prints its ``report.txt``.  Their flags override only read-out values
(Parzen width, draws per condition, analysis workers) and default to the
run's config.  Experiment defaults live only in
:class:`~repro.pipeline.experiment.ExperimentConfig`.

Examples
--------
::

    python -m repro.cli experiment --out run/exp --moves 8 --iterations 200
    python -m repro.cli experiment status run/exp
    python -m repro.cli analyze --run run/exp
    python -m repro.cli table1 --run run/exp
    python -m repro.cli detect --run run/exp --fpr 0.01
    python -m repro.cli stream --synthetic --attack-spans 2 --rate max --progress
    python -m repro.cli stream --wav trace.wav --claims claims.json --rate realtime
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.errors import DataError
from repro.flows.io import load_dataset
from repro.gan.serialization import load_cgan
from repro.graph import adjacency_listing, flow_listing, generate, to_dot
from repro.manufacturing import GCODE_FLOW, monitored_flow_names, printer_architecture
from repro.utils.tables import format_grouped_table


def _profiled(args, func, profile_path) -> int:
    """Run *func*; with ``--profile``, wrap it in cProfile and dump pstats.

    The dump is readable with ``python -m pstats <path>`` (or
    ``pstats.Stats(path)``) to find where an experiment or analysis run
    spends its time.
    """
    if not getattr(args, "profile", False):
        return func()
    import cProfile

    profile_path = Path(profile_path)
    profile_path.parent.mkdir(parents=True, exist_ok=True)
    profiler = cProfile.Profile()
    try:
        rc = profiler.runcall(func)
    finally:
        profiler.dump_stats(profile_path)
        print(f"profile (pstats) written -> {profile_path}")
    return rc


def _report_handler_errors(bus) -> int:
    """Print the event-subscriber failures *bus* collected; 1 if any."""
    if not bus.handler_errors:
        return 0
    event, exc = bus.handler_errors[0]
    print(
        f"error: {len(bus.handler_errors)} event handler error(s); first, "
        f"on {event.kind}: {type(exc).__name__}: {exc}",
        file=sys.stderr,
    )
    return 1


def _cmd_graph(args) -> int:
    result = generate(printer_architecture(), monitored_flow_names())
    print(result.summary())
    print()
    print(flow_listing(result.architecture))
    print()
    if args.dot:
        print(to_dot(result.architecture))
    else:
        print(adjacency_listing(result.architecture))
    return 0


def _given(**values) -> dict:
    """The *values* whose flag was given (not ``None``)."""
    return {name: value for name, value in values.items() if value is not None}


def _read_run(args, **overrides):
    """The run directory ``--run`` as ``(config, key, dataset, pair
    model)``.

    The config is the run's ``config.json`` with the read-out
    *overrides* whose flag was given; the model is ``model/``, loaded
    onto the split the config derives.
    """
    from dataclasses import replace

    from repro.pipeline.experiment import ExperimentConfig, hydrate_pair_model
    from repro.pipeline.pairs import FlowPairKey

    run = Path(args.run)
    config = replace(
        ExperimentConfig.from_json(run / "config.json"), **_given(**overrides)
    )
    key = FlowPairKey(config.emission_flow, GCODE_FLOW)
    dataset = load_dataset(run / "dataset.npz")
    model = hydrate_pair_model(config, run / "model", key, dataset)
    return config, key, dataset, model


def _cmd_analyze(args) -> int:
    # The profile dump lands outside model/: a file inside it would
    # change the digest of the experiment's train stage.
    return _profiled(
        args, lambda: _run_analyze(args), Path(args.run) / "analyze_profile.pstats"
    )


def _run_analyze(args) -> int:
    from repro.pipeline.experiment import CONDITION_NAMES
    from repro.pipeline.gansec import analyze_pairs

    config, key, _dataset, model = _read_run(
        args, h=args.h, g_size=args.g_size, analysis_workers=args.analysis_workers
    )
    report = analyze_pairs({key: model}, config)[key]
    # Byte for byte the experiment's report.txt, which has no final newline.
    sys.stdout.write(report.to_text(condition_names=CONDITION_NAMES))
    if args.profile:
        print()
    return 0


def _cmd_table1(args) -> int:
    from repro.security import choose_analysis_feature, security_analysis_h_sweep

    config, key, _dataset, model = _read_run(args, g_size=args.g_size)
    ft = choose_analysis_feature(
        model.cgan, model.train_set, h=0.2, root_entropy=config.seed
    )
    h_values = (0.2, 0.4, 0.6, 0.8, 1.0)
    # Same draws as the run's analyze stage: at the run's g-size, feature
    # ft of its table at h=0.2 equals this table's column.
    sweep = security_analysis_h_sweep(
        model.cgan,
        model.test_set,
        h_values=h_values,
        feature_indices=[ft],
        g_size=config.g_size,
        root_entropy=config.seed,
        pair=str(key),
    )
    conds = model.test_set.unique_conditions()
    values = [
        [
            [
                float(sweep[h].avg_correct[ci, 0]),
                float(sweep[h].avg_incorrect[ci, 0]),
            ]
            for h in h_values
        ]
        for ci in range(len(conds))
    ]
    print(
        format_grouped_table(
            [f"Cond{i + 1}" for i in range(len(conds))],
            [f"h={h:g}" for h in h_values],
            ["Cor", "Inc"],
            values,
            title=f"Table I (feature #{ft})",
        )
    )
    return 0


def _cmd_detect(args) -> int:
    from repro.security import (
        EmissionModel,
        axis_swap_attack,
        feature_leakage_profile,
        roc_curve,
    )

    config, key, dataset, model = _read_run(args, h=args.h, g_size=args.g_size)
    train, test = model.train_set, model.test_set
    top = np.argsort(feature_leakage_profile(train))[::-1][: args.top_features]
    emission = EmissionModel(
        model.cgan,
        dataset.unique_conditions(),
        h=config.h,
        g_size=config.g_size,
        feature_indices=top,
        root_entropy=config.seed,
        pair=str(key),
    )
    threshold = emission.calibrate(train, false_positive_rate=args.fpr)
    attack_features, attack_claims = axis_swap_attack(test, seed=config.seed)
    report = emission.detection(
        test, attack_features, attack_claims, threshold=threshold
    )
    print(report.summary())
    curve = roc_curve(report.clean_scores, report.attack_scores)
    print()
    print(curve.to_table())
    return 0


def _load_claim_track(path):
    """Read a ClaimTrack from a JSON file.

    Schema::

        {
          "boundaries": [0, 4800, ...],        # span start samples
          "span_conditions": [0, 1, ...],      # index into "conditions"
          "conditions": [[1,0,0], [0,1,0], ...]
        }
    """
    import json

    from repro.streaming import ClaimTrack

    spec = json.loads(Path(path).read_text())
    missing = {"boundaries", "span_conditions", "conditions"} - set(spec)
    if missing:
        raise SystemExit(f"error: claims file {path} missing keys {sorted(missing)}")
    return ClaimTrack(
        np.asarray(spec["boundaries"], dtype=np.int64),
        np.asarray(spec["span_conditions"], dtype=np.int64),
        np.asarray(spec["conditions"], dtype=float),
    )


def _stream_source_error(args) -> str | None:
    """Why the trace and claim flags cannot run together, or ``None``."""
    if bool(args.wav) == bool(args.synthetic):
        return "exactly one of --wav or --synthetic is required"
    if args.synthetic and (args.claims or args.calibration_wav):
        return "--claims and --calibration-wav apply to --wav only"
    if args.wav and not args.claims:
        return "--wav requires --claims"
    if args.calibration_claims and not args.calibration_wav:
        return "--calibration-claims requires --calibration-wav"
    return None


def _cmd_stream(args) -> int:
    import json

    from repro.runtime.events import EventBus
    from repro.runtime.reporters import ConsoleProgressReporter
    from repro.streaming import (
        StreamSession,
        TraceReplay,
        calibrate_stream_monitor,
        inject_claim_attack,
        synthetic_printer_stream,
    )

    error = _stream_source_error(args)
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    sampler = None
    if args.model:
        sampler = load_cgan(args.model)

    if args.synthetic:
        scenario = synthetic_printer_stream(
            n_moves_per_axis=args.moves, seed=args.seed, n_bins=args.bins
        )
        samples, sample_rate = scenario.samples, scenario.sample_rate
        cal_samples, cal_claims = samples, scenario.claims
        claims = scenario.claims
        attacked_spans = []
        if args.attack_spans > 0:
            attacked = inject_claim_attack(
                scenario, n_spans=args.attack_spans, seed=args.seed
            )
            claims = attacked.claims
            attacked_spans = attacked.attacked_spans
    else:
        from repro.manufacturing.wav import read_wav

        trace = read_wav(args.wav)
        samples, sample_rate = trace.samples, trace.sample_rate
        claims = _load_claim_track(args.claims)
        if args.calibration_wav:
            cal = read_wav(args.calibration_wav)
            if cal.sample_rate != sample_rate:
                raise DataError(
                    f"calibration WAV {args.calibration_wav} is sampled at "
                    f"{cal.sample_rate:g} Hz but {args.wav} at {sample_rate:g} Hz"
                )
            cal_samples = cal.samples
            cal_claims = _load_claim_track(args.calibration_claims or args.claims)
        else:
            cal_samples, cal_claims = samples, claims
        attacked_spans = []

    calibration = calibrate_stream_monitor(
        cal_samples,
        sample_rate,
        cal_claims,
        window_size=args.window,
        hop_size=args.hop,
        n_bins=args.bins,
        sampler=sampler,
        h=args.h,
        g_size=args.g_size,
        root_entropy=args.seed,
        detector=args.detector,
        drift=args.drift,
        threshold=args.threshold,
    )

    bus = EventBus()
    if args.progress:
        bus.subscribe(ConsoleProgressReporter().handle)
    session = StreamSession(
        TraceReplay(
            samples,
            sample_rate,
            chunk_size=args.chunk_size,
            rate=args.rate,
            speedup=args.speedup,
        ),
        extractor=calibration.extractor,
        scorer=calibration.scorer,
        claims=claims,
        detector=calibration.make_detector(),
        window_size=args.window,
        hop_size=args.hop,
        sample_rate=sample_rate,
        batch_windows=args.batch_windows,
        queue_chunks=args.queue_chunks,
        policy=args.policy.replace("-", "_"),
        bus=bus,
        name=args.name,
    )
    metrics = session.run()

    summary = metrics.to_dict()
    summary["window_size"] = args.window
    summary["hop_size"] = args.hop
    summary["rate"] = args.rate
    summary["attacked_spans"] = attacked_spans
    if args.metrics_out:
        out = Path(args.metrics_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"stream metrics -> {out}")
    lat = metrics.latency_percentiles()
    print(
        f"stream {metrics.stream}: {metrics.windows_scored} windows scored, "
        f"{len(metrics.alarms)} alarm(s), {metrics.windows_dropped} dropped, "
        f"{metrics.windows_failed} failed"
    )
    print(
        f"  throughput {metrics.windows_per_second:.0f} win/s "
        f"({metrics.realtime_factor:.1f}x real time), scoring latency "
        f"p50={lat['p50_ms']:.1f}ms p95={lat['p95_ms']:.1f}ms"
    )
    if metrics.alarms:
        print(f"  alarm windows: {metrics.alarms}")

    rc = _report_handler_errors(bus)
    if metrics.error:
        print("stream producer error:", metrics.error.strip().splitlines()[-1],
              file=sys.stderr)
        rc = 1
    if args.expect_detection and not metrics.alarms:
        print("FAIL: --expect-detection but no alarm fired", file=sys.stderr)
        rc = 1
    if args.max_dropped is not None and metrics.windows_dropped > args.max_dropped:
        print(
            f"FAIL: {metrics.windows_dropped} windows dropped "
            f"(--max-dropped {args.max_dropped})",
            file=sys.stderr,
        )
        rc = 1
    return rc


def _cmd_experiment(args) -> int:
    if not args.out:
        print(
            "error: --out is required to run an experiment "
            "(see also 'experiment status' / 'experiment invalidate')",
            file=sys.stderr,
        )
        return 2
    return _profiled(
        args, lambda: _run_experiment(args), Path(args.out) / "profile.pstats"
    )


def _run_experiment(args) -> int:
    from repro.pipeline.experiment import ExperimentConfig, run_experiment
    from repro.runtime.events import EventBus
    from repro.runtime.reporters import ConsoleProgressReporter

    if args.config:
        config = ExperimentConfig.from_json(args.config)
    else:
        config = ExperimentConfig(
            trace=args.trace,
            **_given(
                seed=args.seed,
                n_moves_per_axis=args.moves,
                iterations=args.iterations,
                analysis_workers=args.analysis_workers,
                feature_cache=args.feature_cache,
                checkpoint_every=args.checkpoint_every,
            ),
        )
    bus = EventBus()
    if args.progress:
        bus.subscribe(ConsoleProgressReporter().handle)
    result = run_experiment(config, args.out, bus=bus, resume=args.resume)
    print(f"experiment artifacts written to {result.directory}")
    for key, value in result.summary.items():
        print(f"  {key}: {value}")
    return _report_handler_errors(bus)


def _cmd_experiment_status(args) -> int:
    from repro.errors import SerializationError
    from repro.pipeline.experiment import experiment_status

    try:
        rows = experiment_status(args.dir)
    except (FileNotFoundError, SerializationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not rows:
        print(f"no completed stages recorded under {args.dir}")
        return 0
    for row in rows:
        state = "ok" if row["verified"] else "STALE"
        print(
            f"{row['stage']:<24} {state:<6} {row['seconds']:8.2f}s  "
            f"errors={row['handler_errors']}  "
            f"fp={row['fingerprint']}  {', '.join(row['outputs'])}"
        )
    return 0


def _cmd_experiment_invalidate(args) -> int:
    from repro.pipeline.experiment import invalidate_stage

    if invalidate_stage(args.dir, args.stage):
        print(
            f"invalidated stage {args.stage!r} in {args.dir}; the next "
            "resumed run re-executes it and everything downstream"
        )
        return 0
    print(f"no stage {args.stage!r} recorded in {args.dir}", file=sys.stderr)
    return 1


def _read_out_parser(sub, name, help):
    """Subcommand *name* reading one run directory, with ``--g-size``."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--run", required=True, metavar="DIR",
                   help="experiment run directory")
    p.add_argument("--g-size", type=int,
                   help="generator draws per condition (default: the run's)")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gansec",
        description="GAN-Sec: CGAN-based security analysis of CPPS (DATE 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="run Algorithm 1 and print G_CPPS")
    p.add_argument("--dot", action="store_true", help="print Graphviz DOT")
    p.set_defaults(func=_cmd_graph)

    p = _read_out_parser(sub, "analyze", "print the run's security report")
    p.add_argument("--h", type=float,
                   help="Parzen window width (default: the run's)")
    p.add_argument("--analysis-workers", type=int,
                   help="parallel (pair, condition) analysis workers "
                        "(default: the run's)")
    p.add_argument("--profile", action="store_true",
                   help="run under cProfile; dump pstats to "
                        "<run>/analyze_profile.pstats")
    p.set_defaults(func=_cmd_analyze)

    p = _read_out_parser(sub, "table1", "regenerate the paper's Table I")
    p.set_defaults(func=_cmd_table1)

    p = _read_out_parser(
        sub, "detect", "evaluate integrity-attack detection (axis swap)"
    )
    p.add_argument("--h", type=float,
                   help="Parzen window width (default: the run's)")
    p.add_argument("--top-features", type=int, default=20,
                   help="score on the k most leaky feature bins")
    p.add_argument("--fpr", type=float, default=0.05,
                   help="false-positive budget for threshold calibration")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser(
        "experiment",
        help="run a full case-study experiment into an artifact directory",
    )
    p.add_argument("--out", help="artifact directory")
    p.add_argument("--config", help="JSON ExperimentConfig (overrides flags)")
    resume_group = p.add_mutually_exclusive_group()
    resume_group.add_argument(
        "--resume", dest="resume", action="store_true",
        help="skip stages already up to date in --out (default)")
    resume_group.add_argument(
        "--fresh", dest="resume", action="store_false",
        help="ignore any prior state in --out and re-run every stage")
    p.set_defaults(resume=True)
    p.add_argument("--checkpoint-every", type=int,
                   help="training-checkpoint cadence in iterations "
                        "(0 disables crash-recovery checkpoints)")
    p.add_argument("--moves", type=int, help="moves per axis")
    p.add_argument("--iterations", type=int, help="Algorithm 2 iterations")
    p.add_argument("--seed", type=int)
    p.add_argument("--analysis-workers", type=int,
                   help="parallel (pair, condition) analysis workers")
    p.add_argument("--trace", action="store_true",
                   help="write training events to <out>/trace.jsonl")
    p.add_argument("--progress", action="store_true",
                   help="print live training progress to stderr")
    p.add_argument("--feature-cache", metavar="DIR",
                   help="on-disk raw-feature cache directory (reruns over "
                        "identical audio skip CWT extraction)")
    p.add_argument("--profile", action="store_true",
                   help="run under cProfile; dump pstats to <out>/profile.pstats")
    p.set_defaults(func=_cmd_experiment)
    exp_sub = p.add_subparsers(dest="action", metavar="{status,invalidate}")
    ps = exp_sub.add_parser(
        "status", help="show per-stage manifest state of a run directory"
    )
    ps.add_argument("dir", help="experiment run directory")
    ps.set_defaults(func=_cmd_experiment_status)
    pi = exp_sub.add_parser(
        "invalidate",
        help="drop a stage's record so the next resume re-runs it",
    )
    pi.add_argument("dir", help="experiment run directory")
    pi.add_argument("stage", help="stage name (see 'experiment status')")
    pi.set_defaults(func=_cmd_experiment_invalidate)

    p = sub.add_parser(
        "stream",
        help="run the online attack detector over a replayed trace",
    )
    src_group = p.add_mutually_exclusive_group()
    src_group.add_argument("--wav", help="monitor a recorded WAV trace")
    src_group.add_argument("--synthetic", action="store_true",
                           help="monitor a synthetic printer trace")
    p.add_argument("--claims", help="claimed-condition JSON for --wav "
                                    "(boundaries/span_conditions/conditions)")
    p.add_argument("--calibration-wav",
                   help="clean reference WAV for calibration "
                        "(default: the monitored trace itself)")
    p.add_argument("--calibration-claims",
                   help="claims JSON for --calibration-wav")
    p.add_argument("--model", help="trained CGAN directory; omitted = "
                                   "empirical per-condition calibration")
    p.add_argument("--moves", type=int, default=4,
                   help="synthetic mode: calibration moves per axis")
    p.add_argument("--attack-spans", type=int, default=2,
                   help="synthetic mode: G-code spans with forged claims "
                        "(0 = clean run)")
    p.add_argument("--window", type=int, default=600,
                   help="analysis window in samples")
    p.add_argument("--hop", type=int, default=300, help="hop in samples")
    p.add_argument("--bins", type=int, default=100, help="frequency bins")
    p.add_argument("--h", type=float, default=0.2, help="Parzen window width")
    p.add_argument("--g-size", type=int, default=128,
                   help="density samples per condition")
    p.add_argument("--detector", choices=("cusum", "ewma"), default="cusum")
    p.add_argument("--drift", type=float, default=0.5,
                   help="CUSUM per-window allowance (z units)")
    p.add_argument("--threshold", type=float, default=10.0,
                   help="decision-layer alarm threshold")
    p.add_argument("--chunk-size", type=int, default=1024,
                   help="replay chunk size in samples")
    p.add_argument("--rate", choices=("max", "realtime"), default="max",
                   help="replay pacing")
    p.add_argument("--speedup", type=float, default=1.0,
                   help="realtime pacing multiplier")
    p.add_argument("--batch-windows", type=int, default=32,
                   help="windows per scoring batch")
    p.add_argument("--queue-chunks", type=int, default=16,
                   help="bounded chunk-queue capacity")
    p.add_argument("--policy", choices=("block", "drop-oldest"),
                   default="block", help="backpressure policy")
    p.add_argument("--name", default="stream", help="stream label in events")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--progress", action="store_true",
                   help="print live stream events to stderr")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="write the session metrics JSON here")
    p.add_argument("--expect-detection", action="store_true",
                   help="exit 1 unless at least one alarm fired")
    p.add_argument("--max-dropped", type=int, default=None,
                   help="exit 1 if more than this many windows were dropped")
    p.set_defaults(func=_cmd_stream)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
