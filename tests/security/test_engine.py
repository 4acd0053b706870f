"""Parallel security-analysis engine: determinism, cache, failures, events.

Mirrors tests/pipeline/test_parallel.py for the Algorithm 3 fan-out:
with a fixed root entropy, the process pool must produce likelihood
tables bitwise-identical to the serial path, failures must be isolated
per (pair, condition) job, and the event stream must narrate the run.
"""

import pickle

import numpy as np
import pytest

from repro.errors import (
    AnalysisError,
    ConfigurationError,
    DataError,
)
from repro.flows.dataset import FlowPairDataset, condition_indices
from repro.gan import ConditionalGAN
from repro.runtime import EventBus
from repro.runtime.analysis import (
    ConditionSampleCache,
    analysis_rng,
    as_sampler,
    condition_tokens,
)
from repro.security.emission import EmissionModel
from repro.security.engine import (
    AnalysisTarget,
    run_security_analysis,
    security_analysis,
    security_analysis_h_sweep,
)
from repro.security.likelihood import repeated_likelihood_analysis
from repro.security.parzen import ConditionalParzen
from repro.utils.rng import stable_entropy

ROOT = 20190325


def gaussian_sampler(condition, n, rng):
    """Deterministic, picklable stand-in for a trained generator."""
    center = float(np.dot(np.asarray(condition, dtype=float).ravel(), [0.2, 0.8]))
    return rng.normal(center, 0.05, size=(n, 4))


class ExplodingSampler:
    """Raises for the first condition only; picklable."""

    def __call__(self, condition, n, rng):
        if float(np.asarray(condition).ravel()[0]) == 1.0:
            raise ValueError("synthetic generator failure")
        return np.full((n, 4), 0.5)


def _run(toy_dataset, **kwargs):
    return security_analysis(
        gaussian_sampler,
        toy_dataset,
        h=0.2,
        g_size=50,
        root_entropy=ROOT,
        pair="toy",
        **kwargs,
    )


class TestDeterminism:
    @pytest.mark.parametrize("workers", [2], ids=["process"])
    def test_parallel_matches_serial_bitwise(self, toy_dataset, workers):
        serial = _run(toy_dataset, workers=1)
        parallel = _run(toy_dataset, workers=workers)
        np.testing.assert_array_equal(serial.avg_correct, parallel.avg_correct)
        np.testing.assert_array_equal(
            serial.avg_incorrect, parallel.avg_incorrect
        )

    def test_trained_cgan_parallel_matches_serial_bitwise(self, toy_dataset):
        cgan = ConditionalGAN(4, 2, seed=5)
        cgan.train(toy_dataset, iterations=5)
        serial, parallel = (
            security_analysis(
                cgan, toy_dataset, g_size=50, root_entropy=ROOT, workers=workers
            )
            for workers in (1, 2)
        )
        np.testing.assert_array_equal(serial.avg_correct, parallel.avg_correct)
        np.testing.assert_array_equal(serial.avg_incorrect, parallel.avg_incorrect)

    def test_matches_manual_per_condition_reference(self, toy_dataset):
        # Recompute one cell by hand: same derived RNG, one single-column
        # Parzen window per feature.
        result = _run(toy_dataset)
        conditions = toy_dataset.unique_conditions()
        claims = np.zeros(len(toy_dataset), dtype=int)
        for ci, cond in enumerate(conditions):
            rng = analysis_rng(ROOT, "toy", cond)
            generated = gaussian_sampler(cond, 50, rng)
            correct = toy_dataset.mask_for_condition(cond)
            for ft in range(toy_dataset.feature_dim):
                window = ConditionalParzen(0.2, [generated[:, [ft]]])
                log_like = window.log_density(toy_dataset.features[:, [ft]], claims)
                likes = np.exp(log_like[:, 0]) * 0.2
                assert result.avg_correct[ci, ft] == likes[correct].mean()
                assert result.avg_incorrect[ci, ft] == likes[~correct].mean()

    def test_multi_target_keys_and_shapes(self, toy_dataset):
        targets = [
            AnalysisTarget(key=("A", "B"), sampler=gaussian_sampler,
                           test_set=toy_dataset),
            AnalysisTarget(key=("C", "D"), sampler=gaussian_sampler,
                           test_set=toy_dataset, feature_indices=[0, 2]),
        ]
        results = run_security_analysis(targets, g_size=30, root_entropy=ROOT)
        assert list(results) == [("A", "B"), ("C", "D")]
        assert results[("A", "B")].avg_correct.shape == (2, 4)
        assert results[("C", "D")].avg_correct.shape == (2, 2)

    def test_same_pair_label_same_numbers_across_targets(self, toy_dataset):
        # The RNG derives from (root, label, condition) — identity of the
        # surrounding batch must not matter.
        alone = _run(toy_dataset)
        batch = run_security_analysis(
            [
                AnalysisTarget(key="other", sampler=gaussian_sampler,
                               test_set=toy_dataset),
                AnalysisTarget(key="toy", sampler=gaussian_sampler,
                               test_set=toy_dataset),
            ],
            h=0.2,
            g_size=50,
            root_entropy=ROOT,
        )
        np.testing.assert_array_equal(
            alone.avg_correct, batch["toy"].avg_correct
        )


class TestPickledSampler:
    def test_carries_only_the_generator(self):
        # A process-pool job is sent the sampler; the discriminator,
        # optimizer moments and training workspaces stay behind.
        rng = np.random.default_rng(0)
        data = FlowPairDataset(
            rng.uniform(size=(60, 100)), np.tile(np.eye(3), (20, 1))
        )
        cgan = ConditionalGAN(100, 3, seed=1)
        cgan.train(data, iterations=5)
        blob = pickle.dumps(as_sampler(cgan))
        assert len(blob) < 2 * cgan.generator.flat_params.nbytes
        draws = [
            sampler([0.0, 1.0, 0.0], 20, analysis_rng(ROOT, "p", [0.0, 1.0, 0.0]))
            for sampler in (as_sampler(cgan), pickle.loads(blob))
        ]
        np.testing.assert_array_equal(*draws)


class TestConditionTokens:
    def test_round_trip_exact(self):
        cond = np.array([0.1 + 0.2, 1e-17])  # 0.30000000000000004 etc.
        assert condition_tokens(cond) == condition_tokens(cond.copy())

    def test_distinguishes_close_values(self):
        assert condition_tokens([0.1]) != condition_tokens([0.1 + 1e-16])

    def test_analysis_rng_is_pure(self):
        a = analysis_rng(ROOT, "p", [1.0, 0.0]).normal(size=4)
        b = analysis_rng(ROOT, "p", [1.0, 0.0]).normal(size=4)
        np.testing.assert_array_equal(a, b)

    def test_analysis_rng_varies_by_identity(self):
        base = analysis_rng(ROOT, "p", [1.0, 0.0]).normal(size=4)
        other_pair = analysis_rng(ROOT, "q", [1.0, 0.0]).normal(size=4)
        other_cond = analysis_rng(ROOT, "p", [0.0, 1.0]).normal(size=4)
        assert not np.array_equal(base, other_pair)
        assert not np.array_equal(base, other_cond)


class TestSampleCache:
    def test_second_run_hits_and_matches(self, toy_dataset):
        cache = ConditionSampleCache()
        first = _run(toy_dataset, cache=cache)
        assert cache.stats() == {"entries": 2, "hits": 0, "misses": 2}
        second = _run(toy_dataset, cache=cache)
        assert cache.stats()["hits"] == 2
        np.testing.assert_array_equal(first.avg_correct, second.avg_correct)
        np.testing.assert_array_equal(first.avg_incorrect, second.avg_incorrect)

    def test_h_sweep_generates_once_per_condition(self, toy_dataset):
        cache = ConditionSampleCache()
        sweep = security_analysis_h_sweep(
            gaussian_sampler,
            toy_dataset,
            h_values=(0.2, 0.5, 1.0),
            g_size=40,
            root_entropy=ROOT,
            pair="toy",
            cache=cache,
        )
        assert set(sweep) == {0.2, 0.5, 1.0}
        # 2 conditions, one pass: each condition is looked up and drawn
        # once for every h together.
        assert cache.stats() == {"entries": 2, "hits": 0, "misses": 2}

    def test_cache_hit_is_bitwise_equal_to_regeneration(self, toy_dataset):
        cached = ConditionSampleCache()
        _run(toy_dataset, cache=cached)
        hit = _run(toy_dataset, cache=cached)
        fresh = _run(toy_dataset)  # no cache at all
        np.testing.assert_array_equal(hit.avg_correct, fresh.avg_correct)

    def test_lru_eviction(self):
        cache = ConditionSampleCache(max_entries=2)
        k = ConditionSampleCache.key
        cache.put(k("p", [1.0], 5, 0), np.zeros(5))
        cache.put(k("p", [2.0], 5, 0), np.ones(5))
        cache.get(k("p", [1.0], 5, 0))  # refresh 1.0
        cache.put(k("p", [3.0], 5, 0), np.full(5, 3.0))  # evicts 2.0
        assert cache.get(k("p", [2.0], 5, 0)) is None
        assert cache.get(k("p", [1.0], 5, 0)) is not None
        assert len(cache) == 2

    def test_key_excludes_h(self):
        # Same (pair, condition, n, seed) under different h must collide:
        # the draw does not depend on the Parzen width.
        assert ConditionSampleCache.key("p", [1.0], 5, 0) == ConditionSampleCache.key(
            "p", np.array([1.0]), 5, 0
        )

    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            ConditionSampleCache(max_entries=0)

    @pytest.mark.parametrize("max_entries", [2.5, True])
    def test_rejects_non_int_capacity(self, max_entries):
        # 2.5 used to hold 2 entries and True 1.
        with pytest.raises(ConfigurationError, match="^max_entries must be an int >= 1"):
            ConditionSampleCache(max_entries=max_entries)


class TestFailureIsolation:
    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "process"])
    def test_one_bad_condition_reported_after_all_attempted(
        self, toy_dataset, workers
    ):
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        with pytest.raises(AnalysisError) as excinfo:
            security_analysis(
                ExplodingSampler(),
                toy_dataset,
                g_size=20,
                root_entropy=ROOT,
                pair="toy",
                workers=workers,
                bus=bus,
            )
        failures = excinfo.value.failures
        assert list(failures) == [("toy", 0)]
        assert "synthetic generator failure" in failures[("toy", 0)]
        # Every job was attempted and narrated before the raise.
        kinds = [e.kind for e in events]
        assert kinds.count("ConditionScored") == 2
        assert kinds[-1] == "AnalysisCompleted"

    def test_rejects_non_callable_sampler(self, toy_dataset):
        with pytest.raises(ConfigurationError):
            security_analysis(object(), toy_dataset)


def model_builders(dataset, **kwargs):
    """Every entry point that fits Parzen models, called with *kwargs*."""
    conds = dataset.unique_conditions()
    return [
        lambda: EmissionModel(gaussian_sampler, conds, **kwargs),
        lambda: security_analysis(gaussian_sampler, dataset, **kwargs),
    ]


def assert_feature_indices_rejected(dataset, indices):
    builders = model_builders(dataset, feature_indices=indices) + [
        lambda: ConditionalParzen(0.2, [np.zeros((5, 4))], feature_indices=indices)
    ]
    for build in builders:
        with pytest.raises(ConfigurationError, match="feature_indices"):
            build()


class TestValidation:
    def test_empty_targets(self):
        assert run_security_analysis([]) == {}

    def test_duplicate_target_keys_rejected_before_any_job(self, toy_dataset):
        # A second target under one key would overwrite the first's result.
        calls = []

        def sampler(condition, n, rng):
            calls.append(condition)
            return gaussian_sampler(condition, n, rng)

        other = toy_dataset.take(len(toy_dataset) - 1, seed=0)
        targets = [
            AnalysisTarget(key="p", sampler=sampler, test_set=toy_dataset),
            AnalysisTarget(key="p", sampler=sampler, test_set=other),
        ]
        with pytest.raises(ConfigurationError, match="'p'"):
            run_security_analysis(targets, g_size=20, root_entropy=ROOT)
        assert calls == []

    def test_keys_with_one_label_rejected_before_any_job(self, toy_dataset):
        # str(key) seeds each condition's RNG stream and names failures,
        # so keys 1 and "1" would share draws and collapse in the error.
        calls = []

        def sampler(condition, n, rng):
            calls.append(condition)
            return gaussian_sampler(condition, n, rng)

        targets = [
            AnalysisTarget(key=1, sampler=sampler, test_set=toy_dataset),
            AnalysisTarget(key="1", sampler=sampler, test_set=toy_dataset),
        ]
        with pytest.raises(ConfigurationError, match="'1'"):
            run_security_analysis(targets, g_size=20, root_entropy=ROOT)
        assert calls == []

    def test_bad_h(self, toy_dataset):
        for h in (0.0, np.inf, np.nan):
            for build in model_builders(toy_dataset, h=h):
                with pytest.raises(ConfigurationError, match="h must be"):
                    build()

    def test_sweep_needs_a_width(self, toy_dataset):
        with pytest.raises(ConfigurationError, match="at least one width"):
            security_analysis_h_sweep(gaussian_sampler, toy_dataset, h_values=())

    def test_bad_g_size(self, toy_dataset):
        for g_size in (0, 2.5, np.inf, True):
            for build in model_builders(toy_dataset, g_size=g_size):
                with pytest.raises(ConfigurationError, match="g_size"):
                    build()

    def test_empty_feature_indices(self, toy_dataset):
        assert_feature_indices_rejected(toy_dataset, [])

    def test_out_of_range_feature_indices(self, toy_dataset):
        assert_feature_indices_rejected(toy_dataset, [4])
        assert_feature_indices_rejected(toy_dataset, [99])

    def test_negative_feature_indices(self, toy_dataset):
        assert_feature_indices_rejected(toy_dataset, [-1])

    def test_non_integer_feature_indices(self, toy_dataset):
        assert_feature_indices_rejected(toy_dataset, [1.5])
        assert_feature_indices_rejected(toy_dataset, [[0, 1]])

    def test_condition_without_test_rows(self, toy_dataset):
        with pytest.raises(DataError):
            security_analysis(
                gaussian_sampler, toy_dataset, conditions=[[0.5, 0.5]]
            )

    @pytest.mark.parametrize(
        "analysis",
        [security_analysis, security_analysis_h_sweep, repeated_likelihood_analysis],
        ids=["single", "h-sweep", "repeated"],
    )
    def test_single_condition_test_set(self, toy_dataset, analysis):
        # No row is ever incorrectly labeled, so Inc (and the margin)
        # would rest on no evidence.
        one = toy_dataset.subset_for_condition(toy_dataset.unique_conditions()[0])
        with pytest.raises(DataError, match="at least 2"):
            analysis(gaussian_sampler, one, g_size=20, root_entropy=ROOT)

    @pytest.mark.parametrize(
        "root", [np.random.default_rng(0), 1.5, "7"], ids=["generator", "float", "str"]
    )
    def test_root_entropy_must_be_int_or_none(self, toy_dataset, root):
        conds = toy_dataset.unique_conditions()
        sampler = gaussian_sampler
        draws = [
            lambda: security_analysis(sampler, toy_dataset, root_entropy=root),
            lambda: EmissionModel(sampler, conds, root_entropy=root),
        ]
        for draw in draws:
            with pytest.raises(ConfigurationError, match="root_entropy"):
                draw()


class TestOneDrawPath:
    """Algorithm 3, the detector, the attacker and the repeats all fit
    draws from the same derived (root, pair, condition) streams."""

    def test_detector_and_attacker_reuse_the_analysis_draws(self, toy_dataset):
        # Same root, same draws, same scores: the models' log likelihoods
        # are the ones Algorithm 3 computed.
        analysis = _run(toy_dataset)
        conds = toy_dataset.unique_conditions()
        kwargs = dict(h=0.2, g_size=50, root_entropy=ROOT, pair="toy")
        detector = EmissionModel(gaussian_sampler, conds, **kwargs)
        attacker = EmissionModel(gaussian_sampler, conds, **kwargs)
        x, claims = toy_dataset.features, toy_dataset.conditions
        joint = analysis.joint_log_likelihoods()
        np.testing.assert_array_equal(attacker.log_likelihoods(x), joint)
        claim_idx = condition_indices(conds, claims)
        np.testing.assert_array_equal(
            detector.score(x, claims),
            joint[np.arange(len(x)), claim_idx] / toy_dataset.feature_dim,
        )

    def test_window_score_is_the_claim_score(self, toy_dataset):
        conds = toy_dataset.unique_conditions()
        detector = EmissionModel(
            gaussian_sampler, conds, g_size=50, root_entropy=ROOT
        )
        claim_idx = np.arange(len(toy_dataset)) % len(conds)
        np.testing.assert_array_equal(
            detector.score_windows(toy_dataset.features, claim_idx),
            detector.score(toy_dataset.features, conds[claim_idx]),
        )

    def test_repeats_run_on_derived_roots(self, toy_dataset):
        res = repeated_likelihood_analysis(
            gaussian_sampler, toy_dataset, n_repeats=2, g_size=50, root_entropy=ROOT
        )
        runs = [
            security_analysis(
                gaussian_sampler,
                toy_dataset,
                g_size=50,
                root_entropy=stable_entropy(ROOT, "repeat", r),
            ).avg_correct
            for r in range(2)
        ]
        np.testing.assert_array_equal(res.mean_correct, np.mean(runs, axis=0))


class TestEvents:
    def test_event_stream_shape(self, toy_dataset):
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        _run(toy_dataset, bus=bus, workers=2)
        kinds = [e.kind for e in events]
        assert kinds[0] == "AnalysisStarted"
        assert kinds[-1] == "AnalysisCompleted"
        assert kinds.count("ConditionScored") == 2
        assert not bus.handler_errors

    def test_started_event_fields(self, toy_dataset):
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        _run(toy_dataset, bus=bus, workers=2)
        started = events[0]
        assert started.total_pairs == 1
        assert started.total_conditions == 2
        assert started.executor == "process"
        assert started.workers == 2

    def test_scored_events_replayed_from_processes(self, toy_dataset):
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        _run(toy_dataset, bus=bus, workers=2)
        scored = [e for e in events if e.kind == "ConditionScored"]
        assert len(scored) == 2
        assert {e.condition for e in scored} == {(1.0, 0.0), (0.0, 1.0)}
        assert all(e.n_features == 4 for e in scored)

    def test_completed_reports_cache_hits(self, toy_dataset):
        cache = ConditionSampleCache()
        _run(toy_dataset, cache=cache)
        bus = EventBus()
        events = []
        bus.subscribe(events.append)
        _run(toy_dataset, cache=cache, bus=bus)
        completed = events[-1]
        assert completed.kind == "AnalysisCompleted"
        assert completed.cache_hits == 2
        assert completed.pairs == 1
        assert completed.conditions == 2
