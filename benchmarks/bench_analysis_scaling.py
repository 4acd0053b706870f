"""Scaling of the parallel, batched security-analysis engine.

Three measurements around the Algorithm 3 runtime redesign:

1. **Worker sweep** — ``run_security_analysis`` over a multi-pair,
   multi-condition workload at 1/2/4/8 workers, verifying that every
   schedule reproduces the serial likelihood tables bitwise (the
   engine's core determinism guarantee).  Wall-clock speedup tracks the
   physical cores available; the bitwise check holds everywhere.
2. **Batched vs naive scoring** — ``ConditionalParzen.log_density``
   (the fused, blocked kernel every analysis runs) against the
   per-point Python loop Algorithm 3 literally describes.  This
   vectorization win does not need multiple cores.
3. **One-pass sweep** — a Table-I-style ``h`` sweep as one engine
   pass, which draws once per condition and scores every ``h`` from one
   set of squared kernel distances, against one engine call per ``h``.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import BENCH_SEED, shape_check
from repro.flows.dataset import FlowPairDataset
from repro.runtime.analysis import ConditionSampleCache
from repro.security.engine import (
    AnalysisTarget,
    run_security_analysis,
    security_analysis_h_sweep,
)
from repro.security.parzen import ConditionalParzen
from repro.utils.tables import format_table

#: Worker counts swept by the analysis fan-out benchmark.
WORKER_SWEEP = (1, 2, 4, 8)
N_PAIRS = 4
N_CONDITIONS = 6
N_TEST = 400
N_FEATURES = 24
G_SIZE = 300


def bench_sampler(condition, n, rng):
    """Deterministic, picklable generator stand-in (no training cost).

    A little deliberate compute per draw keeps the per-job cost realistic
    enough for the fan-out to have something to parallelize.
    """
    cond = np.asarray(condition, dtype=float).ravel()
    center = float(cond @ np.linspace(0.1, 0.9, cond.size))
    draws = rng.normal(center, 0.05, size=(n, N_FEATURES))
    # Simulated generator forward pass (matmul-bound like the real CGAN).
    weights = np.outer(np.linspace(-1, 1, N_FEATURES), np.linspace(1, -1, N_FEATURES))
    for _ in range(8):
        draws = np.tanh(draws @ weights) * 0.05 + draws
    return draws


def _workload():
    rng = np.random.default_rng(BENCH_SEED)
    conditions = np.eye(N_CONDITIONS)
    targets = []
    for p in range(N_PAIRS):
        rows = np.repeat(conditions, N_TEST // N_CONDITIONS, axis=0)
        centers = rows @ np.linspace(0.1, 0.9, N_CONDITIONS)
        features = rng.normal(
            centers[:, None], 0.05, size=(rows.shape[0], N_FEATURES)
        )
        targets.append(
            AnalysisTarget(
                key=f"pair-{p}",
                sampler=bench_sampler,
                test_set=FlowPairDataset(features, rows, name=f"pair-{p}"),
            )
        )
    return targets


def _tables(results):
    return {
        key: (r.avg_correct.tobytes(), r.avg_incorrect.tobytes())
        for key, r in results.items()
    }


def test_analysis_worker_sweep():
    targets = _workload()
    rows = []
    tables = {}
    for workers in WORKER_SWEEP:
        start = time.perf_counter()
        results = run_security_analysis(
            targets,
            h=0.2,
            g_size=G_SIZE,
            root_entropy=BENCH_SEED,
            workers=workers,
        )
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "workers": workers,
                "jobs": N_PAIRS * N_CONDITIONS,
                "wall-clock [s]": round(elapsed, 3),
                "speedup": round(rows[0]["wall-clock [s]"] / elapsed, 2)
                if rows
                else 1.0,
            }
        )
        tables[workers] = _tables(results)

    print()
    print("=" * 70)
    print("Scaling: parallel Algorithm 3 fan-out (per-(pair, condition) jobs)")
    print("=" * 70)
    print(
        format_table(
            [list(r.values()) for r in rows],
            list(rows[0].keys()),
            title=(
                f"{N_PAIRS} pairs x {N_CONDITIONS} conditions x "
                f"{N_FEATURES} features, GSize={G_SIZE}"
            ),
        )
    )
    print()
    print("-- shape checks --")
    serial = tables[WORKER_SWEEP[0]]
    identical = all(tables[w] == serial for w in WORKER_SWEEP[1:])
    print(
        shape_check(
            "every parallel schedule reproduces the serial tables bitwise",
            identical,
        )
    )
    assert identical
    print(
        f"  [info] serial {rows[0]['wall-clock [s]']:.3f}s; speedup scales "
        "with physical cores (>=3x at 8 workers on an 8-core host)"
    )


def naive_likelihood(kernels, x, h):
    """The per-point loop Algorithm 3 describes (Lines 9-13)."""
    out = np.empty(x.shape[0])
    norm = len(kernels) * (h * np.sqrt(2 * np.pi))
    for i, point in enumerate(x):
        out[i] = np.sum(np.exp(-0.5 * ((point - kernels) / h) ** 2)) / norm
    return out * h


def test_batched_vs_naive_scoring():
    # Algorithm 3's real shape: a few hundred kernels (GSize generator
    # samples) scored against many test rows — the regime where the
    # naive loop's per-point Python overhead dominates.
    rng = np.random.default_rng(BENCH_SEED)
    kernels = rng.normal(size=200)  # the paper's default GSize
    x = rng.normal(size=20000)
    model = ConditionalParzen(0.2, [kernels[:, None]])
    points, claims = x[:, None], np.zeros(len(x), dtype=int)
    model.log_density(points[:100], claims[:100])  # warm-up, untimed

    start = time.perf_counter()
    batched = np.exp(model.log_density(points, claims)[:, 0]) * model.h
    batched_s = time.perf_counter() - start

    start = time.perf_counter()
    naive = naive_likelihood(kernels, x, 0.2)
    naive_s = time.perf_counter() - start

    print()
    print("=" * 70)
    print("Batched Parzen scoring vs the naive per-point loop")
    print("=" * 70)
    print(
        format_table(
            [
                ["naive per-point loop", round(naive_s, 4), 1.0],
                [
                    "log_density (blocked)",
                    round(batched_s, 4),
                    round(naive_s / batched_s, 1),
                ],
            ],
            ["method", "seconds", "speedup"],
            title=f"{len(x)} test points x {len(kernels)} kernels",
        )
    )
    print()
    print("-- shape checks --")
    agree = np.allclose(batched, naive, rtol=1e-10, atol=1e-300)
    print(shape_check("blocked scoring matches the naive loop", agree))
    assert agree
    faster = batched_s < naive_s
    print(shape_check("vectorized path is faster on a single core", faster))


def test_h_sweep_cache_benefit():
    targets = _workload()[:1]
    target = targets[0]
    h_values = (0.2, 0.4, 0.6, 0.8, 1.0)

    start = time.perf_counter()
    uncached = {
        h: run_security_analysis(
            targets, h=h, g_size=G_SIZE, root_entropy=BENCH_SEED
        )[target.key]
        for h in h_values
    }
    uncached_s = time.perf_counter() - start

    cache = ConditionSampleCache()
    start = time.perf_counter()
    cached = security_analysis_h_sweep(
        target.sampler,
        target.test_set,
        h_values=h_values,
        g_size=G_SIZE,
        root_entropy=BENCH_SEED,
        pair=target.key,
        cache=cache,
    )
    cached_s = time.perf_counter() - start

    print()
    print("=" * 70)
    print("Table-I h sweep: one engine pass vs one call per h")
    print("=" * 70)
    print(
        format_table(
            [
                ["one call per h", round(uncached_s, 3), "-"],
                [
                    "one sweep pass",
                    round(cached_s, 3),
                    f"{cache.stats()['hits']} hits",
                ],
            ],
            ["strategy", "seconds", "cache"],
            title=f"{len(h_values)} widths x {N_CONDITIONS} conditions",
        )
    )
    print()
    print("-- shape checks --")
    same = all(
        np.array_equal(uncached[h].avg_correct, cached[h].avg_correct)
        and np.array_equal(uncached[h].avg_incorrect, cached[h].avg_incorrect)
        for h in h_values
    )
    print(
        shape_check(
            "the sweep pass is numerically identical to one call per h", same
        )
    )
    assert same
    once = cache.stats() == {
        "entries": N_CONDITIONS, "hits": 0, "misses": N_CONDITIONS
    }
    print(shape_check("generation ran once per condition for the whole sweep", once))
    assert once
