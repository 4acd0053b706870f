"""Tests for repro.security.parzen."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, DataError, NotFittedError, ShapeError
from repro.security import parzen
from repro.security.confidentiality import SideChannelAttacker
from repro.security.detection import EmissionAttackDetector
from repro.security.parzen import (
    ConditionalParzen,
    ParzenWindow,
    resolve_chunk_size,
    silverman_bandwidth,
)
from repro.utils.rng import as_rng


def naive_log_density(kernels, x, h):
    """O(n·m) reference: direct per-point log of the kernel mixture.

    No log-sum-exp, no blocking — the textbook formula the vectorized
    ``score_batch`` must reproduce.
    """
    kernels = np.atleast_2d(np.asarray(kernels, dtype=float).T).T
    x = np.atleast_2d(np.asarray(x, dtype=float).T).T
    n, d = kernels.shape
    out = np.empty(x.shape[0])
    norm = n * (h * np.sqrt(2 * np.pi)) ** d
    with np.errstate(divide="ignore"):
        for i, point in enumerate(x):
            sq = np.sum((point - kernels) ** 2, axis=1) / (h * h)
            out[i] = np.log(np.sum(np.exp(-0.5 * sq)) / norm)
    return out


class TestFit:
    def test_rejects_bad_h(self):
        with pytest.raises(ConfigurationError):
            ParzenWindow(0.0)

    def test_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            ParzenWindow(0.2).score_samples([0.5])

    def test_1d_samples(self):
        pw = ParzenWindow(0.2).fit([0.0, 1.0, 2.0])
        assert pw.n_kernels == 3
        assert pw.dim == 1

    def test_2d_samples(self):
        pw = ParzenWindow(0.2).fit(np.zeros((5, 3)))
        assert pw.dim == 3

    def test_dim_mismatch_raises(self):
        pw = ParzenWindow(0.2).fit(np.zeros((5, 3)))
        with pytest.raises(ShapeError):
            pw.score_samples(np.zeros((2, 2)))


class TestDensity:
    def test_single_kernel_is_gaussian(self):
        h = 0.3
        pw = ParzenWindow(h).fit([0.0])
        x = np.array([0.0, h, 2 * h])
        expected = np.exp(-0.5 * (x / h) ** 2) / (h * np.sqrt(2 * np.pi))
        np.testing.assert_allclose(pw.density(x), expected, rtol=1e-10)

    def test_density_integrates_to_one(self):
        pw = ParzenWindow(0.25).fit([0.2, 0.5, 0.9])
        grid = np.linspace(-3, 4, 4001)
        integral = np.trapezoid(pw.density(grid), grid)
        assert integral == pytest.approx(1.0, abs=1e-4)

    @given(
        st.lists(
            st.floats(min_value=-5, max_value=5), min_size=1, max_size=8
        ),
        st.floats(min_value=0.05, max_value=1.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_density_normalization_property(self, samples, h):
        pw = ParzenWindow(h).fit(samples)
        grid = np.linspace(min(samples) - 6 * h, max(samples) + 6 * h, 3001)
        integral = np.trapezoid(pw.density(grid), grid)
        assert integral == pytest.approx(1.0, abs=5e-3)

    def test_score_is_log_density(self):
        pw = ParzenWindow(0.4).fit([1.0, 2.0])
        x = np.array([1.5])
        assert pw.score(x) == pytest.approx(float(np.log(pw.density(x)[0])))

    def test_likelihood_scaling(self):
        # Paper's Line 10: Like = exp(LogLike) * h.
        h = 0.2
        pw = ParzenWindow(h).fit([0.5])
        like = pw.likelihood(np.array([0.5]))
        assert like[0] == pytest.approx(h / (h * np.sqrt(2 * np.pi)))

    def test_far_points_no_underflow_to_nan(self):
        pw = ParzenWindow(0.1).fit([0.0])
        scores = pw.score_samples(np.array([100.0]))
        assert np.isfinite(scores[0]) or scores[0] == -np.inf

    def test_density_higher_near_data(self):
        pw = ParzenWindow(0.2).fit([0.3, 0.35, 0.4])
        assert pw.density([0.35])[0] > pw.density([0.9])[0]


class TestBatchedScoring:
    """score_batch: blocked evaluation, chunk invariance, stability."""

    def test_chunk_size_bitwise_invariant(self):
        rng = np.random.default_rng(3)
        pw = ParzenWindow(0.3).fit(rng.normal(size=(40, 3)))
        x = rng.normal(size=(101, 3))
        reference = pw.score_batch(x, chunk_size=101)
        for chunk in (1, 2, 7, 50, 100, 1000):
            chunked = pw.score_batch(x, chunk_size=chunk)
            assert np.array_equal(chunked, reference), f"chunk={chunk}"

    def test_memory_budget_path_matches_explicit_chunk(self):
        rng = np.random.default_rng(4)
        pw = ParzenWindow(0.5).fit(rng.normal(size=(30, 2)))
        x = rng.normal(size=(64, 2))
        auto = pw.score_batch(x, memory_budget_mb=0.001)  # forces tiny chunks
        assert np.array_equal(auto, pw.score_batch(x, chunk_size=64))

    @given(
        kernels=st.lists(
            st.floats(min_value=-10, max_value=10), min_size=1, max_size=12
        ),
        points=st.lists(
            st.floats(min_value=-10, max_value=10), min_size=1, max_size=12
        ),
        h=st.floats(min_value=0.05, max_value=2.0),
        chunk=st.integers(min_value=1, max_value=15),
    )
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_naive_reference(self, kernels, points, h, chunk):
        pw = ParzenWindow(h).fit(kernels)
        got = pw.score_batch(np.array(points), chunk_size=chunk)
        want = naive_log_density(kernels, points, h)
        # Where the naive exp() underflows (densities below the smallest
        # normal float64, log < ~-708), the naive sum is computed from
        # subnormals and loses precision, so the strict tolerance only
        # applies in the normal range; log-sum-exp keeps the true (very
        # negative) value — only require that the stable path is at
        # least as far in the tail as float64 allows.
        normal = np.isfinite(want) & (want > np.log(np.finfo(float).tiny))
        np.testing.assert_allclose(
            got[normal], want[normal], atol=1e-10, rtol=1e-10
        )
        assert np.all(got[~np.isfinite(want)] < np.log(np.finfo(float).tiny) + 1)
        subnormal = np.isfinite(want) & ~normal
        np.testing.assert_allclose(got[subnormal], want[subnormal], rtol=1e-3)

    @given(
        shift=st.floats(min_value=-50, max_value=50),
        h=st.floats(min_value=0.1, max_value=1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_translation_invariance(self, shift, h):
        kernels = np.array([0.0, 0.7, 1.9, -2.2])
        x = np.array([-1.0, 0.3, 2.5])
        base = ParzenWindow(h).fit(kernels).score_batch(x)
        moved = ParzenWindow(h).fit(kernels + shift).score_batch(x + shift)
        np.testing.assert_allclose(moved, base, atol=1e-9)

    @given(permutation=st.permutations(list(range(6))))
    @settings(max_examples=30, deadline=None)
    def test_kernel_permutation_invariance(self, permutation):
        rng = np.random.default_rng(11)
        kernels = rng.normal(size=(6, 2))
        x = rng.normal(size=(9, 2))
        base = ParzenWindow(0.4).fit(kernels).score_batch(x)
        shuffled = ParzenWindow(0.4).fit(kernels[permutation]).score_batch(x)
        np.testing.assert_allclose(shuffled, base, atol=1e-12)

    @given(
        points=st.lists(
            st.floats(min_value=-1e308, max_value=1e308), min_size=1, max_size=6
        ),
        h=st.floats(min_value=0.01, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_never_nan(self, points, h):
        # Log-sum-exp stability: any finite input, however extreme,
        # yields a real log density or exactly -inf — never nan.
        pw = ParzenWindow(h).fit([0.0, 1.0])
        scores = pw.score_batch(np.array(points))
        assert not np.isnan(scores).any()

    def test_far_point_is_exact_neg_inf(self):
        # Regression: points whose exponent overflows used to become
        # nan through the -inf - -inf max subtraction.
        pw = ParzenWindow(0.1).fit([0.0])
        scores = pw.score_batch(np.array([1e200, -1e308, 0.0]))
        assert scores[0] == -np.inf
        assert scores[1] == -np.inf
        assert np.isfinite(scores[2])

    def test_density_of_far_point_is_zero(self):
        pw = ParzenWindow(0.2).fit([0.0, 1.0])
        assert pw.density(np.array([1e300]))[0] == 0.0

    def test_score_batch_unfitted_raises(self):
        with pytest.raises(NotFittedError):
            ParzenWindow(0.2).score_batch([0.5])

    def test_score_batch_shape_mismatch_raises(self):
        pw = ParzenWindow(0.2).fit(np.zeros((4, 3)))
        with pytest.raises(ShapeError):
            pw.score_batch(np.zeros((2, 5)))


class TestResolveChunkSize:
    def test_explicit_wins(self):
        assert resolve_chunk_size(1000, 10, chunk_size=7) == 7

    def test_explicit_invalid_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_chunk_size(10, 1, chunk_size=0)

    def test_bad_budget_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_chunk_size(10, 1, memory_budget_mb=0.0)

    def test_budget_scales_chunk(self):
        small = resolve_chunk_size(500, 4, memory_budget_mb=1.0)
        large = resolve_chunk_size(500, 4, memory_budget_mb=64.0)
        # Proportional up to integer truncation of each division.
        assert 64 * small <= large <= 64 * (small + 1)

    def test_at_least_one_row(self):
        assert resolve_chunk_size(10**9, 10**3, memory_budget_mb=0.001) == 1


@st.composite
def conditional_case(draw):
    """Draws, test rows and claims for a ConditionalParzen, with the row
    count placed next to a block boundary of the drawn block size."""
    n_conds = draw(st.integers(1, 3), label="n_conds")
    n_feats = draw(st.integers(1, 10), label="n_feats")
    g = draw(st.integers(1, 40), label="g")
    block = draw(st.sampled_from([1, 7, 64, 1000, parzen.BLOCK_ELEMENTS]))
    pairs = max(1, block // g)
    n_rows = max(
        1,
        draw(st.integers(1, 2)) * min(pairs, 300) + draw(st.integers(-1, 1)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    draws = [rng.uniform(-5, 5, size=(g, n_feats)) for _ in range(n_conds)]
    x = rng.uniform(-10, 10, size=(n_rows, n_feats))
    # Points so far away that every kernel's weight underflows to 0.
    far = rng.random(size=x.shape) < 0.1
    x[far] = rng.choice([-1e308, -1e200, 1e200, 1e308], size=int(far.sum()))
    claims = rng.integers(0, n_conds, size=n_rows)
    h = draw(st.floats(min_value=0.01, max_value=5.0), label="h")
    return draws, x, claims, h, block


def per_feature_scores(draws, x, h):
    """``(n_conds, n_rows, n_feats)``: one ``ParzenWindow`` per column."""
    return np.array(
        [
            np.column_stack(
                [
                    ParzenWindow(h).fit(d[:, j]).score_batch(x[:, j])
                    for j in range(x.shape[1])
                ]
            )
            for d in draws
        ]
    )


class TestConditionalParzen:
    @given(case=conditional_case())
    @settings(max_examples=80, deadline=None)
    def test_bitwise_equal_to_per_feature_windows(self, case):
        draws, x, claims, h, block = case
        with mock.patch.object(parzen, "BLOCK_ELEMENTS", block):
            got = ConditionalParzen(h, draws).log_density(x, claims)
        want = per_feature_scores(draws, x, h)[claims, np.arange(len(x))]
        np.testing.assert_array_equal(got, want)
        assert not np.isnan(got).any()

    def test_far_points_are_exact_neg_inf(self):
        model = ConditionalParzen(0.1, [np.zeros((3, 2)), np.ones((3, 2))])
        x = np.array([[1e200, 0.0], [0.5, -1e308]])
        got = model.log_density(x, [0, 1])
        assert got[0, 0] == -np.inf and got[1, 1] == -np.inf
        assert np.isfinite(got[0, 1]) and np.isfinite(got[1, 0])

    def test_feature_indices_select_columns(self):
        rng = np.random.default_rng(3)
        draws = [rng.normal(size=(20, 5)) for _ in range(2)]
        x = rng.normal(size=(7, 5))
        claims = rng.integers(0, 2, size=7)
        subset = ConditionalParzen(0.3, draws, feature_indices=[4, 1])
        full = ConditionalParzen(0.3, draws).log_density(x, claims)
        np.testing.assert_array_equal(
            subset.log_density(x, claims), full[:, [4, 1]]
        )

    def test_rejects_non_finite_features(self):
        model = ConditionalParzen(0.2, [np.zeros((4, 2))])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DataError):
                model.log_density(np.array([[0.0, bad]]), [0])

    @pytest.mark.parametrize("claims", [[2], [-1], [0.0]])
    def test_rejects_out_of_range_claims(self, claims):
        model = ConditionalParzen(0.2, [np.zeros((4, 2)), np.ones((4, 2))])
        with pytest.raises(DataError):
            model.log_density(np.zeros((1, 2)), claims)

    def test_rejects_misaligned_inputs(self):
        model = ConditionalParzen(0.2, [np.zeros((4, 2))])
        with pytest.raises(DataError):
            model.log_density(np.zeros((2, 2)), [0])
        with pytest.raises(DataError):
            model.log_density(np.zeros((1, 3)), [0])

    def test_rejects_bad_fit_inputs(self):
        with pytest.raises(ConfigurationError):
            ConditionalParzen(0.0, [np.zeros((4, 2))])
        with pytest.raises(DataError):
            ConditionalParzen(0.2, [np.zeros((4, 2)), np.zeros((5, 2))])
        with pytest.raises(DataError):
            ConditionalParzen(0.2, [])


def _sampler(condition, n, rng):
    return rng.normal(loc=condition[0], size=(n, 12))


class TestViewsMatchPerFeatureLoop:
    """The detector and the attacker reduce ConditionalParzen scores in
    the same order as the per-feature ParzenWindow loops they replace."""

    CONDS = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    FEATURES = [0, 3, 4, 5, 6, 7, 8, 9, 10, 11]  # 10 >= 8: pairwise != serial

    def _windows(self, seed):
        rng = as_rng(seed)
        return [
            [
                ParzenWindow(0.3).fit(d[:, ft])
                for ft in self.FEATURES
            ]
            for d in (_sampler(c, 30, rng) for c in self.CONDS)
        ]

    @pytest.mark.parametrize("n_rows", [1, 2, 9])
    def test_detector_score(self, n_rows):
        rng = np.random.default_rng(n_rows)
        x = rng.normal(size=(n_rows, 12))
        claim_idx = rng.integers(0, len(self.CONDS), size=n_rows)
        detector = EmissionAttackDetector(
            _sampler, self.CONDS, h=0.3, g_size=30,
            feature_indices=self.FEATURES, seed=5,
        ).fit()
        got = detector.score(x, self.CONDS[claim_idx])

        windows = self._windows(5)
        want = np.empty(n_rows)
        for i, (row, ci) in enumerate(zip(x, claim_idx)):
            total = 0.0
            for d, distr in enumerate(windows[ci]):
                ft = self.FEATURES[d]
                total += float(distr.score_samples(np.array([row[ft]]))[0])
            want[i] = total / len(self.FEATURES)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n_rows", [1, 2, 9])
    def test_attacker_log_likelihoods(self, n_rows):
        x = np.random.default_rng(n_rows).normal(size=(n_rows, 12))
        attacker = SideChannelAttacker(
            _sampler, self.CONDS, h=0.3, g_size=30,
            feature_indices=self.FEATURES, seed=5,
        ).fit()
        got = attacker.log_likelihoods(x)

        want = np.empty((n_rows, len(self.CONDS)))
        for ci, per_feature in enumerate(self._windows(5)):
            total = np.zeros(n_rows)
            for d, distr in enumerate(per_feature):
                total += distr.score_samples(x[:, self.FEATURES[d]])
            want[:, ci] = total
        np.testing.assert_array_equal(got, want)


class TestSample:
    def test_shape(self):
        pw = ParzenWindow(0.1).fit(np.zeros((10, 2)))
        out = pw.sample(20, seed=0)
        assert out.shape == (20, 2)

    def test_distribution_near_kernels(self):
        pw = ParzenWindow(0.05).fit([0.0, 10.0])
        draws = pw.sample(1000, seed=0).ravel()
        near_any = (np.abs(draws) < 1) | (np.abs(draws - 10) < 1)
        assert near_any.mean() > 0.99

    def test_rejects_bad_count(self):
        pw = ParzenWindow(0.1).fit([0.0])
        with pytest.raises(ConfigurationError):
            pw.sample(0)


class TestSilverman:
    def test_scales_with_spread(self):
        rng = np.random.default_rng(0)
        tight = silverman_bandwidth(rng.normal(0, 0.1, 200))
        wide = silverman_bandwidth(rng.normal(0, 10.0, 200))
        assert wide > 20 * tight

    def test_requires_two_samples(self):
        with pytest.raises(DataError):
            silverman_bandwidth([1.0])

    def test_degenerate_data(self):
        bw = silverman_bandwidth(np.ones(50))
        assert bw > 0
