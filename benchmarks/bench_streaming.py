"""Streaming detector benchmark: sustained throughput and latency.

Measures the online detection engine end to end — windowing, batched
CWT extraction, Parzen scoring, CUSUM decision layer — over a
fixed-seed synthetic printer trace replayed at maximum rate, across a
sweep of scoring batch sizes.  The acceptance headline is the
real-time factor: seconds of 5 kHz-band audio processed per wall
second on a single core, which must stay >= 1.0 for the monitor to be
deployable against a live microphone.

Also verifies, per configuration, that the streamed scores are bitwise
identical to the offline oracle — a benchmark that drifted numerically
would be measuring the wrong thing.

Emits ``BENCH_streaming.json`` (schema ``gansec-bench-streaming/v1``).
Run with ``--smoke`` for a seconds-scale CI variant of the same schema;
it prints its JSON and writes a file only when ``--out`` is given.

Usage::

    PYTHONPATH=src python benchmarks/bench_streaming.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.streaming import (
    StreamSession,
    calibrate_stream_monitor,
    inject_claim_attack,
    offline_stream_scores,
    synthetic_printer_stream,
)

SCHEMA = "gansec-bench-streaming/v1"
BENCH_SEED = 20190325
WINDOW = 600
HOP = 300

#: (batch_windows, chunk_size) per streaming config.
FULL_CONFIGS = [(1, 512), (8, 1024), (32, 1024), (64, 4096)]
SMOKE_CONFIGS = [(32, 1024)]


def build_workload(moves: int):
    scenario = synthetic_printer_stream(n_moves_per_axis=moves, seed=BENCH_SEED)
    attacked = inject_claim_attack(scenario, n_spans=2, seed=7)
    calibration = calibrate_stream_monitor(
        scenario.samples,
        scenario.sample_rate,
        scenario.claims,
        window_size=WINDOW,
        hop_size=HOP,
        g_size=64,
        root_entropy=BENCH_SEED,
    )
    return attacked, calibration


def run_config(attacked, calibration, batch_windows, chunk_size, repeats):
    offline_scores, _, offline_alarms = offline_stream_scores(
        attacked.samples,
        attacked.claims,
        calibration,
        window_size=WINDOW,
        hop_size=HOP,
    )
    best = None
    for _ in range(repeats):
        session = StreamSession(
            attacked.replay(chunk_size=chunk_size, rate="max"),
            extractor=calibration.extractor,
            scorer=calibration.scorer,
            claims=attacked.claims,
            detector=calibration.make_detector(),
            window_size=WINDOW,
            hop_size=HOP,
            sample_rate=attacked.sample_rate,
            batch_windows=batch_windows,
        )
        metrics = session.run()
        if not metrics.ok or metrics.windows_dropped:
            raise RuntimeError(
                f"benchmark session degraded: error={metrics.error!r}, "
                f"dropped={metrics.windows_dropped}"
            )
        if not np.array_equal(metrics.scores, offline_scores):
            raise RuntimeError(
                "streamed scores diverged from the offline oracle; "
                "the benchmark would be measuring the wrong code"
            )
        if metrics.alarms != offline_alarms:
            raise RuntimeError("streamed alarms diverged from the offline oracle")
        if best is None or metrics.wall_seconds < best.wall_seconds:
            best = metrics
    lat = best.latency_percentiles()
    row = {
        "batch_windows": batch_windows,
        "chunk_size": chunk_size,
        "windows_scored": best.windows_scored,
        "alarms": len(best.alarms),
        "wall_seconds": best.wall_seconds,
        "windows_per_second": best.windows_per_second,
        "realtime_factor": best.realtime_factor,
        "latency_p50_ms": lat["p50_ms"],
        "latency_p95_ms": lat["p95_ms"],
        "latency_max_ms": lat["max_ms"],
    }
    print(
        f"  batch={batch_windows:3d} chunk={chunk_size:5d}: "
        f"{row['windows_per_second']:7.0f} win/s "
        f"({row['realtime_factor']:6.1f}x real time)  "
        f"p50={row['latency_p50_ms']:6.1f}ms p95={row['latency_p95_ms']:6.1f}ms"
    )
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-scale CI run (small trace, same JSON schema)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        help="output JSON path (default: repo-root BENCH_streaming.json; "
        "with --smoke, print the JSON and write no file)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        configs, moves, repeats = SMOKE_CONFIGS, 2, 1
    else:
        configs, moves, repeats = FULL_CONFIGS, 6, 3

    print(f"bench_streaming ({'smoke' if args.smoke else 'full'}):")
    t0 = time.perf_counter()
    attacked, calibration = build_workload(moves)
    calibration_seconds = time.perf_counter() - t0
    duration = attacked.duration
    print(
        f"  workload: {len(attacked.samples)} samples "
        f"({duration:.1f}s of audio at {attacked.sample_rate:g} Hz), "
        f"calibrated in {calibration_seconds:.2f}s"
    )

    rows = [
        run_config(attacked, calibration, batch_windows, chunk_size, repeats)
        for batch_windows, chunk_size in configs
    ]
    headline = max(r["realtime_factor"] for r in rows)

    report = {
        "schema": SCHEMA,
        "smoke": bool(args.smoke),
        "cpu_count": os.cpu_count(),
        "seed": BENCH_SEED,
        "sample_rate": attacked.sample_rate,
        "window_size": WINDOW,
        "hop_size": HOP,
        "trace_seconds": duration,
        "calibration_seconds": calibration_seconds,
        # Headline: best sustained real-time factor across configs.
        "realtime_factor": headline,
        "realtime_capable": headline >= 1.0,
        "configs": rows,
        "methodology": (
            "One fixed-seed synthetic printer trace (5 kHz-band audio at "
            "12 kHz sampling) with two forged-claim spans is replayed at "
            "max rate through StreamSession for each (batch_windows, "
            "chunk_size) config; best wall time of N repeats. Every run "
            "is checked bitwise against the offline oracle "
            "(offline_stream_scores) before being timed as valid. "
            "realtime_factor = audio seconds processed per wall second "
            "on one core (>= 1.0 means the monitor keeps up with a live "
            "microphone); latency percentiles are per-batch scoring "
            "times. The headline realtime_factor is the best config's."
        ),
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.smoke and args.out is None:
        # Smoke numbers never replace the committed full-run ones.
        print(text, end="")
    else:
        out = args.out or Path(__file__).resolve().parent.parent / "BENCH_streaming.json"
        out.write_text(text)
        print(f"wrote {out}")
    print(
        f"headline: {headline:.1f}x real time "
        f"({'meets' if headline >= 1.0 else 'FAILS'} the >= 1.0 target)"
    )
    return 0 if headline >= 1.0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
