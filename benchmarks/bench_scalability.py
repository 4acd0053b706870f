"""Scalability: Algorithm 1 on growing CPPS architectures, and the
parallel pair-training runtime on multi-pair workloads.

The paper motivates the "graph search and pruning algorithm to reduce
the complexity of the model": without pruning, the number of candidate
CGANs grows quadratically in the number of flows.  This benchmark runs
Algorithm 1 over synthetic factories of increasing size and reports how
pruning (reachability + data coverage) cuts the modeling workload.

The second half benchmarks Algorithm 2 at scale: the surviving pairs
are independent CGANs, so ``train_pairs`` fans them out over
``workers`` processes.  The worker sweep reports
wall-clock per worker count and verifies that every schedule produces
bitwise-identical generator weights.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import BENCH_SEED, shape_check
from repro.flows.dataset import FlowPairDataset
from repro.graph.builder import generate
from repro.graph.generators import random_factory
from repro.pipeline import ExperimentConfig, FlowPairKey, train_pairs
from repro.utils.tables import format_table

SIZES = (2, 4, 8, 16)

#: Worker counts swept by the parallel-training benchmark.
WORKER_SWEEP = (1, 2, 4)
TRAIN_PAIRS = 4
TRAIN_ITERATIONS = 400


def _measure(n_subsystems):
    arch = random_factory(n_subsystems, seed=BENCH_SEED)
    n_flows = len(arch.flows)
    # Historical data exists only for the signal flows into each
    # sub-system and the environment emissions (a realistic monitoring
    # deployment) — pruning has real work to do.
    observed = {
        f.name
        for f in arch.flows.values()
        if f.is_signal or (f.is_energy and not f.intentional)
    }
    result = generate(arch, observed)
    all_ordered_pairs = n_flows * (n_flows - 1)
    return {
        "subsystems": n_subsystems,
        "components": len(arch.component_names()),
        "flows": n_flows,
        "all pairs": all_ordered_pairs,
        "FP_F (reachable)": len(result.candidate_pairs),
        "FP_T (trainable)": len(result.trainable_pairs),
    }


def test_algorithm1_scalability(benchmark):
    rows = [_measure(n) for n in SIZES]
    # Benchmark the largest instance.
    largest = random_factory(SIZES[-1], seed=BENCH_SEED)
    observed = {
        f.name
        for f in largest.flows.values()
        if f.is_signal or (f.is_energy and not f.intentional)
    }
    benchmark(generate, largest, observed)

    print()
    print("=" * 70)
    print("Scalability: Algorithm 1 pruning on synthetic factories")
    print("=" * 70)
    print(
        format_table(
            [list(r.values()) for r in rows],
            list(rows[0].keys()),
            title="candidate-CGAN reduction by reachability + data pruning",
        )
    )
    print()
    print("-- shape checks --")
    print(
        shape_check(
            "reachability pruning always cuts the quadratic pair count",
            all(r["FP_F (reachable)"] < r["all pairs"] for r in rows),
        )
    )
    print(
        shape_check(
            "data pruning cuts further",
            all(r["FP_T (trainable)"] <= r["FP_F (reachable)"] for r in rows)
            and any(r["FP_T (trainable)"] < r["FP_F (reachable)"] for r in rows),
        )
    )
    largest_row = rows[-1]
    reduction = 1 - largest_row["FP_T (trainable)"] / largest_row["all pairs"]
    print(
        f"  [info] at {SIZES[-1]} sub-systems, pruning removes "
        f"{reduction:.1%} of the {largest_row['all pairs']} possible CGANs"
    )


def _multi_pair_workload(n_pairs: int):
    """A factory architecture plus synthetic datasets for *n_pairs* of
    its trainable flow pairs."""
    arch = random_factory(4, seed=BENCH_SEED)
    observed = {
        f.name
        for f in arch.flows.values()
        if f.is_signal or (f.is_energy and not f.intentional)
    }
    result = generate(arch, observed)
    keys = [FlowPairKey(*fp.names) for fp in result.trainable_pairs[:n_pairs]]
    rng = np.random.default_rng(BENCH_SEED)
    data = {}
    for key in keys:
        features = rng.uniform(size=(96, 16))
        conditions = np.tile(np.eye(3), (32, 1))
        data[key] = FlowPairDataset(features, conditions, name=str(key))
    return arch, data


def _generator_checksums(models: dict) -> dict:
    return {
        str(key): {
            name: float(np.sum(w))
            for name, w in model.cgan.generator.get_weights().items()
        }
        for key, model in models.items()
    }


def test_parallel_training_worker_sweep():
    arch, data = _multi_pair_workload(TRAIN_PAIRS)
    assert len(data) >= TRAIN_PAIRS, "factory must yield enough trainable pairs"

    config = ExperimentConfig(iterations=TRAIN_ITERATIONS, seed=BENCH_SEED)
    rows = []
    checksums = {}
    for workers in WORKER_SWEEP:
        start = time.perf_counter()
        models = train_pairs(arch, data, config, workers=workers)
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "workers": workers,
                "pairs": len(models),
                "wall-clock [s]": round(elapsed, 3),
                "speedup": round(rows[0]["wall-clock [s]"] / elapsed, 2)
                if rows
                else 1.0,
            }
        )
        checksums[workers] = _generator_checksums(models)

    print()
    print("=" * 70)
    print("Scalability: parallel Algorithm 2 over independent flow pairs")
    print("=" * 70)
    print(
        format_table(
            [list(r.values()) for r in rows],
            list(rows[0].keys()),
            title=(
                f"{TRAIN_PAIRS} CGANs x {TRAIN_ITERATIONS} iterations, "
                "worker sweep"
            ),
        )
    )
    print()
    print("-- shape checks --")
    serial = checksums[WORKER_SWEEP[0]]
    identical = all(checksums[w] == serial for w in WORKER_SWEEP[1:])
    print(
        shape_check(
            "parallel schedules reproduce the serial weights bitwise",
            identical,
        )
    )
    assert identical
    best = min(r["wall-clock [s]"] for r in rows)
    print(
        f"  [info] best wall-clock {best:.3f}s "
        f"(serial {rows[0]['wall-clock [s]']:.3f}s); speedup scales with "
        "physical cores available"
    )
