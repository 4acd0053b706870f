"""Hot-path benchmark: CWT feature extraction and CGAN training throughput.

Measures the two optimized inner loops against the vendored seed
implementations (``benchmarks/_legacy_hotpath.py``):

* **extraction** — dataset-level feature extraction (what
  ``build_dataset`` runs): the seed's per-segment, per-scale loop with
  its double-extracting ``fit().transform()`` chain, versus the batched
  cached-filter-bank ``fit_transform``, versus a warm on-disk feature
  cache;
* **training** — Algorithm 2 iterations/sec with the seed allocating
  layers/optimizers versus the preallocated zero-allocation hot path
  (bitwise-identical weights, see ``tests/nn/test_hotpath_identity.py``).

Emits ``BENCH_hotpath.json`` (schema ``gansec-bench-hotpath/v1``) with
per-config detail plus headline geometric-mean speedups.  Run with
``--smoke`` for a seconds-scale CI variant of the same schema; it
prints its JSON and writes a file only when ``--out`` is given.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--smoke] [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _legacy_hotpath import build_legacy_cgan, legacy_fit_transform  # noqa: E402

from repro.dsp.cache import FeatureCache  # noqa: E402
from repro.dsp.features import FrequencyFeatureExtractor  # noqa: E402
from repro.dsp.filterbank import clear_filter_bank_cache  # noqa: E402
from repro.flows.dataset import FlowPairDataset  # noqa: E402
from repro.gan.cgan import ConditionalGAN  # noqa: E402

SCHEMA = "gansec-bench-hotpath/v1"
BENCH_SEED = 20190325
SAMPLE_RATE = 12000.0

#: (segment length, segment count, stress) per extraction config.  The
#: paper-scale rows span the case study's segment-length range — 720 to
#: 4800 samples (0.06 s to 0.4 s at 12 kHz) — and feed the headline
#: geomean.  The 8192-sample row stresses a power-of-two FFT length well
#: past any case-study segment; it is reported but flagged ``stress`` and
#: excluded from the headline.
FULL_CONFIGS = [
    (720, 48, False),
    (1200, 36, False),
    (2400, 24, False),
    (4800, 20, False),
    (8192, 12, True),
]
SMOKE_CONFIGS = [(720, 8, False)]


def _best_of(repeats, fn):
    best = math.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return float("nan")
    return float(np.exp(np.mean(np.log(values))))


def bench_extraction(configs, repeats):
    rng = np.random.default_rng(BENCH_SEED)
    rows = []
    for n_samples, n_segments, stress in configs:
        segments = rng.normal(size=(n_segments, n_samples))
        seg_list = [segments[i] for i in range(n_segments)]
        extractor = FrequencyFeatureExtractor(SAMPLE_RATE)
        frequencies = extractor.frequencies

        looped_s, looped_out = _best_of(
            repeats,
            lambda: legacy_fit_transform(seg_list, SAMPLE_RATE, frequencies),
        )

        clear_filter_bank_cache()
        batched_s, batched_out = _best_of(
            repeats, lambda: extractor.fit_transform(segments)
        )
        max_err = float(np.max(np.abs(batched_out - looped_out)))

        with tempfile.TemporaryDirectory() as tmp:
            cached_extractor = FrequencyFeatureExtractor(
                SAMPLE_RATE, feature_cache=FeatureCache(tmp)
            )
            cached_extractor.fit_transform(segments)  # warm the cache
            cached_s, cached_out = _best_of(
                repeats, lambda: cached_extractor.fit_transform(segments)
            )
        assert np.array_equal(cached_out, batched_out)

        rows.append(
            {
                "n_samples": n_samples,
                "n_segments": n_segments,
                "n_bins": len(frequencies),
                "stress": stress,
                "looped_seconds": looped_s,
                "batched_seconds": batched_s,
                "cached_seconds": cached_s,
                "looped_segments_per_sec": n_segments / looped_s,
                "batched_segments_per_sec": n_segments / batched_s,
                "cached_segments_per_sec": n_segments / cached_s,
                "speedup_batched": looped_s / batched_s,
                "speedup_cached": looped_s / cached_s,
                "max_abs_error_batched_vs_looped": max_err,
            }
        )
        print(
            f"  extract n={n_samples:5d} x{n_segments:3d}"
            f"{' (stress)' if stress else '         '}: "
            f"looped {looped_s:7.3f}s  batched {batched_s:7.3f}s "
            f"({rows[-1]['speedup_batched']:4.2f}x)  cached {cached_s:7.4f}s "
            f"({rows[-1]['speedup_cached']:6.1f}x)  err={max_err:.2e}"
        )
    paper_rows = [r for r in rows if not r["stress"]]
    return {
        "configs": rows,
        # Headline geomeans cover the paper-scale rows (case-study
        # segment lengths); stress rows are reported above but excluded.
        "speedup_batched_vs_looped": _geomean(
            [r["speedup_batched"] for r in paper_rows]
        ),
        "speedup_cached_vs_looped": _geomean(
            [r["speedup_cached"] for r in paper_rows]
        ),
        "speedup_batched_vs_looped_all_configs": _geomean(
            [r["speedup_batched"] for r in rows]
        ),
        "speedup_cached_vs_looped_all_configs": _geomean(
            [r["speedup_cached"] for r in rows]
        ),
    }


def bench_training(iterations, warmup):
    feature_dim, condition_dim, batch_size = 100, 3, 32
    rng = np.random.default_rng(BENCH_SEED)
    features = rng.uniform(size=(256, feature_dim))
    conditions = np.tile(np.eye(condition_dim), (256 // condition_dim + 1, 1))[:256]
    dataset = FlowPairDataset(features, conditions)

    def run(gan):
        gan.train(dataset, iterations=warmup, batch_size=batch_size)
        t0 = time.perf_counter()
        gan.train(dataset, iterations=iterations, batch_size=batch_size)
        return time.perf_counter() - t0

    before_s = run(build_legacy_cgan(feature_dim, condition_dim, seed=BENCH_SEED))
    after_s = run(
        ConditionalGAN(feature_dim, condition_dim, seed=BENCH_SEED)
    )
    result = {
        "iterations": iterations,
        "batch_size": batch_size,
        "feature_dim": feature_dim,
        "condition_dim": condition_dim,
        "before_seconds": before_s,
        "after_seconds": after_s,
        "before_iters_per_sec": iterations / before_s,
        "after_iters_per_sec": iterations / after_s,
        "speedup_training": before_s / after_s,
    }
    print(
        f"  train   {iterations} it: before {before_s:6.2f}s "
        f"({result['before_iters_per_sec']:6.1f} it/s)  after {after_s:6.2f}s "
        f"({result['after_iters_per_sec']:6.1f} it/s)  "
        f"{result['speedup_training']:4.2f}x"
    )
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-scale CI run (small configs, same JSON schema)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        help="output JSON path (default: repo-root BENCH_hotpath.json; "
        "with --smoke, print the JSON and write no file)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        configs, repeats, train_iters, warmup = SMOKE_CONFIGS, 1, 40, 5
    else:
        configs, repeats, train_iters, warmup = FULL_CONFIGS, 3, 800, 50

    print(f"bench_hotpath ({'smoke' if args.smoke else 'full'}):")
    extraction = bench_extraction(configs, repeats)
    training = bench_training(train_iters, warmup)

    report = {
        "schema": SCHEMA,
        "smoke": bool(args.smoke),
        "cpu_count": os.cpu_count(),
        "seed": BENCH_SEED,
        "sample_rate": SAMPLE_RATE,
        # Headline numbers: SPEC-style geometric means across configs.
        "speedup_batched_vs_looped": extraction["speedup_batched_vs_looped"],
        "speedup_cached_vs_looped": extraction["speedup_cached_vs_looped"],
        "speedup_training": training["speedup_training"],
        "extraction": extraction,
        "training": training,
        "methodology": (
            "Extraction compares dataset-level fit_transform: the seed "
            "implementation (vendored in benchmarks/_legacy_hotpath.py; "
            "per-segment, per-scale kernel rebuild, and fit().transform() "
            "double extraction) against the batched cached-filter-bank "
            "path and a warm on-disk feature cache; best of N repeats. "
            "Headline extraction speedups are geometric means over the "
            "paper-scale configs (segment lengths 720-4800, the case "
            "study's 0.06-0.4 s range at 12 kHz); rows flagged 'stress' "
            "are reported in extraction.configs but excluded from the "
            "headline (all-config geomeans are reported alongside). "
            "Training compares Algorithm 2 iterations/sec of the seed "
            "allocating layers/optimizers against the preallocated hot "
            "path after identical warmup; weights are bitwise-identical "
            "between the two (tests/nn/test_hotpath_identity.py)."
        ),
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.smoke and args.out is None:
        # Smoke numbers never replace the committed full-run ones.
        print(text, end="")
    else:
        out = args.out or Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"
        out.write_text(text)
        print(f"wrote {out}")
    print(
        f"headline: batched {report['speedup_batched_vs_looped']:.2f}x, "
        f"cached {report['speedup_cached_vs_looped']:.1f}x, "
        f"training {report['speedup_training']:.2f}x"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
