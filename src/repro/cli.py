"""Command-line interface for the GAN-Sec reproduction.

Subcommands mirror the pipeline stages so each step can run (and be
cached on disk) independently:

* ``record``   — simulate the printer and save the labeled dataset;
* ``graph``    — run Algorithm 1 on the printer architecture and print
  the G_CPPS listing / DOT;
* ``train``    — train a CGAN on a recorded dataset and save it;
* ``analyze``  — load a trained CGAN + dataset and print the full
  security report;
* ``table1``   — regenerate the paper's Table I for a trained model;
* ``experiment`` — run the whole staged pipeline into a resumable run
  directory; ``experiment status <dir>`` and
  ``experiment invalidate <dir> <stage>`` inspect and edit its manifest.
* ``stream``   — run the online attack detector over a replayed WAV or
  synthetic printer trace, real-time or max-rate, printing live alarms
  and a throughput summary.

Examples
--------
::

    python -m repro.cli record --out run/dataset.npz --moves 35 --seed 7
    python -m repro.cli train --dataset run/dataset.npz --out run/model --iterations 2500
    python -m repro.cli analyze --dataset run/dataset.npz --model run/model
    python -m repro.cli table1 --dataset run/dataset.npz --model run/model
    python -m repro.cli experiment --out run/exp --moves 8 --iterations 200
    python -m repro.cli experiment status run/exp
    python -m repro.cli stream --synthetic --attack-spans 2 --rate max --progress
    python -m repro.cli stream --wav trace.wav --claims claims.json --rate realtime
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.flows.io import load_dataset, save_dataset
from repro.gan.cgan import ConditionalGAN
from repro.gan.serialization import load_cgan, save_cgan
from repro.graph import adjacency_listing, flow_listing, generate, to_dot
from repro.manufacturing import (
    monitored_flow_names,
    printer_architecture,
    record_case_study_dataset,
)
from repro.security import (
    build_security_report,
    choose_analysis_feature,
    likelihood_h_sweep,
)
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


def _cmd_record(args) -> int:
    dataset, _extractor, _encoder, runs = record_case_study_dataset(
        n_moves_per_axis=args.moves,
        seed=args.seed,
        n_bins=args.bins,
        sample_rate=args.sample_rate,
        feature_cache=args.feature_cache,
    )
    path = save_dataset(dataset, args.out)
    total = sum(len(r.segments) for r in runs)
    print(f"recorded {dataset} ({total} raw segments) -> {path}")
    return 0


def _cmd_graph(args) -> int:
    result = generate(printer_architecture(), monitored_flow_names())
    print(result.summary())
    print()
    print(flow_listing(result.graph))
    print()
    if args.dot:
        print(to_dot(result.graph))
    else:
        print(adjacency_listing(result.graph))
    return 0


def _cmd_train(args) -> int:
    dataset = load_dataset(args.dataset)
    train, test = dataset.split(args.test_fraction, seed=args.seed)
    cgan = ConditionalGAN(
        dataset.feature_dim, dataset.condition_dim, seed=args.seed
    )
    print(
        f"training CGAN on {len(train)} samples "
        f"({args.iterations} iterations, batch {args.batch_size}) ..."
    )
    progress = None
    trace_writer = None
    if args.trace:
        from repro.runtime.events import EpochProgress
        from repro.runtime.reporters import JsonlTraceWriter

        trace_writer = JsonlTraceWriter(args.trace)

        def progress(iteration, total, d_loss, g_loss):
            trace_writer.handle(
                EpochProgress(
                    pair=dataset.name,
                    iteration=iteration,
                    total_iterations=total,
                    d_loss=d_loss,
                    g_loss=g_loss,
                )
            )

    cgan.train(
        train,
        iterations=args.iterations,
        batch_size=args.batch_size,
        k_disc=args.k_disc,
        progress=progress,
        progress_every=max(1, args.iterations // 20) if args.trace else 0,
    )
    if trace_writer is not None:
        trace_writer.close()
        print(f"training trace ({trace_writer.events_written} events) -> {args.trace}")
    final = cgan.history.final()
    print(
        f"final losses: D={final['d_loss']:.3f} G={final['g_loss']:.3f} "
        f"(D fooled at 2ln2={2 * np.log(2):.3f})"
    )
    save_cgan(cgan, args.out)
    print(f"model saved -> {args.out}")
    return 0


def _cmd_analyze(args) -> int:
    # Profile dump lands next to the model artifacts, the closest thing
    # this read-only command has to an output directory.
    return _profiled(
        args, lambda: _run_analyze(args), Path(args.model) / "analyze_profile.pstats"
    )


def _run_analyze(args) -> int:
    from repro.security import security_analysis

    dataset = load_dataset(args.dataset)
    cgan = load_cgan(args.model)
    _train, test = dataset.split(args.test_fraction, seed=args.seed)
    # The Algorithm 3 table goes through the parallel engine; the rest
    # of the report (attacker, MI) runs serially as before.
    likelihood = security_analysis(
        cgan,
        test,
        h=args.h,
        g_size=args.g_size,
        root_entropy=args.seed,
        pair=dataset.name,
        workers=args.analysis_workers,
    )
    report = build_security_report(
        cgan,
        test,
        pair_name=dataset.name,
        h=args.h,
        g_size=args.g_size,
        seed=args.seed,
        likelihood=likelihood,
    )
    print(report.to_text())
    return 0


def _cmd_table1(args) -> int:
    dataset = load_dataset(args.dataset)
    cgan = load_cgan(args.model)
    train, test = dataset.split(args.test_fraction, seed=args.seed)
    ft = choose_analysis_feature(
        cgan, train, h=0.2, objective="peak", seed=args.seed
    )
    h_values = (0.2, 0.4, 0.6, 0.8, 1.0)
    sweep = likelihood_h_sweep(
        cgan,
        test,
        h_values=h_values,
        feature_indices=[ft],
        g_size=args.g_size,
        seed=args.seed,
    )
    conds = test.unique_conditions()
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
        EmissionAttackDetector,
        axis_swap_attack,
        feature_leakage_profile,
        roc_curve,
    )

    dataset = load_dataset(args.dataset)
    cgan = load_cgan(args.model)
    train, test = dataset.split(args.test_fraction, seed=args.seed)
    top = np.argsort(feature_leakage_profile(train))[::-1][: args.top_features]
    detector = EmissionAttackDetector(
        cgan,
        dataset.unique_conditions(),
        h=args.h,
        g_size=args.g_size,
        feature_indices=top,
        seed=args.seed,
    ).fit()
    detector.calibrate(train, false_positive_rate=args.fpr)
    attack_features, attack_claims = axis_swap_attack(test, seed=args.seed)
    report = detector.evaluate(test, attack_features, attack_claims)
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

    if bool(args.wav) == bool(args.synthetic):
        print("error: exactly one of --wav or --synthetic is required", file=sys.stderr)
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
        bus.subscribe(ConsoleProgressReporter(show_epochs=False).handle)
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

    rc = 0
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
            seed=args.seed,
            n_moves_per_axis=args.moves,
            iterations=args.iterations,
            workers=args.workers,
            executor=args.executor,
            analysis_workers=args.analysis_workers,
            trace=args.trace,
            feature_cache=args.feature_cache,
            checkpoint_every=args.checkpoint_every,
        )
    bus = EventBus()
    if args.progress:
        bus.subscribe(ConsoleProgressReporter(show_epochs=False).handle)
    result = run_experiment(config, args.out, bus=bus, resume=args.resume)
    print(f"experiment artifacts written to {result.directory}")
    for key, value in result.summary.items():
        print(f"  {key}: {value}")
    return 0


def _cmd_experiment_status(args) -> int:
    from repro.pipeline.experiment import experiment_status

    rows = experiment_status(args.dir)
    if not rows:
        print(f"no completed stages recorded under {args.dir}")
        return 0
    for row in rows:
        state = "ok" if row["verified"] else "STALE"
        print(
            f"{row['stage']:<24} {state:<6} {row['seconds']:8.2f}s  "
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gansec",
        description="GAN-Sec: CGAN-based security analysis of CPPS (DATE 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("record", help="simulate the printer and save a dataset")
    p.add_argument("--out", required=True, help="output .npz path")
    p.add_argument("--moves", type=int, default=35, help="moves per axis")
    p.add_argument("--bins", type=int, default=100, help="frequency bins")
    p.add_argument("--sample-rate", type=float, default=12000.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--feature-cache", metavar="DIR",
                   help="on-disk raw-feature cache directory (reruns over "
                        "identical audio skip CWT extraction)")
    p.set_defaults(func=_cmd_record)

    p = sub.add_parser("graph", help="run Algorithm 1 and print G_CPPS")
    p.add_argument("--dot", action="store_true", help="print Graphviz DOT")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("train", help="train a CGAN on a recorded dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output model directory")
    p.add_argument("--iterations", type=int, default=2500)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--k-disc", type=int, default=1)
    p.add_argument("--test-fraction", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", help="write an EpochProgress JSONL trace here")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("analyze", help="print the security report")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--h", type=float, default=0.2, help="Parzen window width")
    p.add_argument("--g-size", type=int, default=200)
    p.add_argument("--test-fraction", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--analysis-workers", type=int, default=1,
                   help="parallel (pair, condition) analysis workers")
    p.add_argument("--profile", action="store_true",
                   help="run under cProfile; dump pstats next to the model")
    p.set_defaults(func=_cmd_analyze)

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
    p.add_argument("--checkpoint-every", type=int, default=500,
                   help="training-checkpoint cadence in iterations "
                        "(0 disables crash-recovery checkpoints)")
    p.add_argument("--moves", type=int, default=30)
    p.add_argument("--iterations", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="parallel pair-training workers")
    p.add_argument("--executor", choices=("serial", "thread", "process"),
                   help="pair-training executor (default: by worker count)")
    p.add_argument("--analysis-workers", type=int, default=1,
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

    p = sub.add_parser(
        "detect", help="evaluate integrity-attack detection (axis swap)"
    )
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--h", type=float, default=0.2)
    p.add_argument("--g-size", type=int, default=200)
    p.add_argument("--top-features", type=int, default=20,
                   help="score on the k most leaky feature bins")
    p.add_argument("--fpr", type=float, default=0.05,
                   help="false-positive budget for threshold calibration")
    p.add_argument("--test-fraction", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("table1", help="regenerate the paper's Table I")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--g-size", type=int, default=300)
    p.add_argument("--test-fraction", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_table1)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
