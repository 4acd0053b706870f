"""End-to-end benchmark of the GAN-Sec reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload stream_max --seed 3 --seconds 10 --trace 0

The workloads are described in ``workloads.py``.  A run derives the
workload's inputs from ``--seed``, sets the workload up several times
(the median is ``setup_s``), performs one untimed warm-up operation, then
repeats the operation until ``--seconds`` have passed (at least
``MIN_OPS`` times).  Every operation's output is checked; ``failed``
counts wrong outputs.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``latency_ms`` — median latency: of one whole operation, or for
  ``stream_paced`` of one window, from the time its audio was due to the
  decision on it.  When operations take turns between several inputs,
  it is the mean of each input's median;
* ``setup_s`` — median time of one set-up.

Both are stated at a nominal machine speed: a fixed reference
computation (``reference.py``) is timed before and after every set-up
and operation, and each time is scaled by how much slower or faster than
nominal the machine ran around it.

With ``--trace 1`` the same loop runs with per-layer spans (``layers.py``)
and reports, per operation, each layer's self time (``<layer>_ms``), the
unattributed remainder (``other_ms``), the traced wall time (``op_ms``),
work counts, and the median reference time (``reference_ms``).  These
are raw wall times, not scaled.  Tracing overhead is ``op_ms`` against
the untraced operation time at the same reference time.

BLAS and OpenMP pools are pinned to one thread, so a run measures the
single-core program and is not disturbed by pool start-up.  The last
line of standard output is one JSON object; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

SETUP_REPEATS = 5
MIN_OPS = 3


def _percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end(timed, setups) -> dict:
    by_case = {}
    for op, scaled in timed:
        by_case.setdefault(op.case, []).extend(scaled)
    latency = statistics.mean(statistics.median(v) for v in by_case.values())
    return {
        "latency_ms": (latency * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
    }


def _per_layer(timed, tracer, layer_names, reference_s) -> dict:
    n = len(timed)
    timed = [op for op, _scaled in timed]
    wall_ns = sum(op.wall_s for op in timed) * 1e9
    metrics = {
        f"{layer}_ms": (tracer.self_ns[layer] / n / 1e6, "ms")
        for layer in layer_names
    }
    late = [s for op in timed for s in op.source_late_s]
    metrics.update(
        {
            "other_ms": ((wall_ns - tracer.total_self_ns()) / n / 1e6, "ms"),
            "op_ms": (wall_ns / n / 1e6, "ms"),
            "d_steps": (tracer.calls["d_step"] / n, "count"),
            "parzen_fits": (tracer.calls["parzen_fit"] / n, "count"),
            "cache_hits": (tracer.hits["sample_cache"] / n, "count"),
            "windows": (sum(op.windows for op in timed) / n, "count"),
            "alarms": (sum(op.alarms for op in timed) / n, "count"),
            "pacer_late_ms": (_percentile(late, 95) * 1e3, "ms"),
            "reference_ms": (statistics.median(reference_s) * 1e3, "ms"),
        }
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: {src}/repro not found; run from the repository root",
            file=sys.stderr,
        )
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    import layers
    import reference
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"--workload must be one of {sorted(workloads.WORKLOADS)}, "
            f"got {args.workload!r}"
        )
    make = workloads.WORKLOADS[args.workload]
    log = lambda msg: print(f"perfbench[{args.workload}]: {msg}", file=sys.stderr)

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp, (
        layers.LayerTracer() if args.trace else nullcontext()
    ) as tracer:
        ref = reference.Reference()
        probes = [ref.seconds()]
        try:
            inputs = make.inputs(args.seed)
            setups = []
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                workload = make(inputs, Path(tmp), tracer)
                took = time.perf_counter() - start
                probes.append(ref.seconds())
                setups.append(reference.at_nominal_speed(took, *probes[-2:]))
        except workloads.SetupError as exc:
            log(str(exc))
            return 1
        warmup = workload.run_once()
        probes.append(ref.seconds())
        if tracer is not None:
            tracer.reset()
        timed = []
        deadline = time.perf_counter() + args.seconds
        while len(timed) < MIN_OPS or time.perf_counter() < deadline:
            op = workload.run_once()
            probes.append(ref.seconds())
            scaled = [reference.at_nominal_speed(s, *probes[-2:]) for s in op.latencies_s]
            timed.append((op, scaled))
        if args.trace:
            metrics = _per_layer(timed, tracer, layers.LAYERS, probes)
            if tracer.missing:
                log(f"hooks not found (layers read 0): {tracer.missing}")
        else:
            metrics = _end_to_end(timed, setups)

    attempted = warmup.attempted + sum(op.attempted for op, _scaled in timed)
    failed = warmup.failed + sum(op.failed for op, _scaled in timed)
    log(
        f"{len(timed)} timed ops, {failed}/{attempted} failed; "
        + ", ".join(f"{k}={v:.4g}{u}" for k, (v, u) in metrics.items())
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
