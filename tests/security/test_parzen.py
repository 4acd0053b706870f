"""Tests for repro.security.parzen."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, DataError, ShapeError
from repro.flows.dataset import FlowPairDataset
from repro.runtime.analysis import DEFAULT_PAIR, analysis_rng
from repro.security import parzen
from repro.security.emission import EmissionModel
from repro.security.engine import security_analysis, security_analysis_h_sweep
from repro.security.parzen import ConditionalParzen


def naive_log_density(kernels, x, h):
    """O(n·m) reference: direct per-point log of the kernel mixture.

    No log-sum-exp, no blocking — the textbook formula the fused
    ``log_density`` must reproduce.
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


def window(h, kernels):
    """A one-condition, one-feature model: a 1-D window on *kernels*."""
    return ConditionalParzen(h, [np.asarray(kernels, dtype=float)[:, None]])


def log_density(model, x):
    """Log density of the 1-D points *x* under a :func:`window`."""
    x = np.asarray(x, dtype=float)
    return model.log_density(x[:, None], np.zeros(len(x), dtype=int))[:, 0]


def density(model, x):
    return np.exp(log_density(model, x))


class TestFit:
    def test_rejects_bad_h(self):
        for h in (0.0, -0.2, np.inf, np.nan):
            with pytest.raises(ConfigurationError, match="h must be"):
                window(h, [0.0])

    def test_1d_samples(self):
        model = window(0.2, [0.0, 1.0, 2.0])
        assert (model.n_conditions, model.n_features, model.g_size) == (1, 1, 3)

    def test_2d_samples(self):
        draws = np.arange(15.0).reshape(5, 3)
        model = ConditionalParzen(0.2, [draws, -draws])
        assert model.kernels.shape == (2, 3, 5)
        np.testing.assert_array_equal(model.kernels[1, 2], -draws[:, 2])

    def test_dim_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ConditionalParzen(0.2, [np.zeros(5)])


class TestDensity:
    def test_single_kernel_is_gaussian(self):
        h = 0.3
        model = window(h, [0.0])
        x = np.array([0.0, h, 2 * h])
        expected = np.exp(-0.5 * (x / h) ** 2) / (h * np.sqrt(2 * np.pi))
        np.testing.assert_allclose(density(model, x), expected, rtol=1e-10)

    def test_density_integrates_to_one(self):
        model = window(0.25, [0.2, 0.5, 0.9])
        grid = np.linspace(-3, 4, 4001)
        integral = np.trapezoid(density(model, grid), grid)
        assert integral == pytest.approx(1.0, abs=1e-4)

    @given(
        st.lists(
            st.floats(min_value=-5, max_value=5), min_size=1, max_size=8
        ),
        st.floats(min_value=0.05, max_value=1.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_density_normalization_property(self, samples, h):
        model = window(h, samples)
        grid = np.linspace(min(samples) - 6 * h, max(samples) + 6 * h, 3001)
        integral = np.trapezoid(density(model, grid), grid)
        assert integral == pytest.approx(1.0, abs=5e-3)

    def test_score_is_log_density(self):
        # The mixture's density is the mean of its kernels' densities.
        kernels = [1.0, 2.0]
        x = np.array([1.5, 0.2])
        mixture = np.mean([density(window(0.4, [k]), x) for k in kernels], axis=0)
        np.testing.assert_allclose(
            log_density(window(0.4, kernels), x), np.log(mixture), rtol=1e-12
        )

    def test_likelihood_scaling(self):
        # Paper's Line 10: Like = exp(LogLike) * h.
        h = 0.2
        test = FlowPairDataset(np.array([[0.5], [0.9]]), np.eye(2))
        result = security_analysis(
            lambda cond, n, rng: np.full((n, 1), 0.5),
            test,
            h=h,
            g_size=1,
            root_entropy=0,
        )
        expected = h / (h * np.sqrt(2 * np.pi))
        assert result.avg_correct[0][0] == pytest.approx(expected)

    def test_far_points_no_underflow_to_nan(self):
        scores = log_density(window(0.1, [0.0]), [100.0])
        assert np.isfinite(scores[0]) or scores[0] == -np.inf

    def test_density_higher_near_data(self):
        model = window(0.2, [0.3, 0.35, 0.4])
        assert density(model, [0.35])[0] > density(model, [0.9])[0]


class TestBatchedScoring:
    """log_density: blocked evaluation, block invariance, stability."""

    def test_chunk_size_bitwise_invariant(self):
        rng = np.random.default_rng(3)
        model = ConditionalParzen(0.3, [rng.normal(size=(40, 3)) for _ in range(2)])
        x = rng.normal(size=(101, 3))
        claims = rng.integers(0, 2, size=101)
        reference = model.log_density(x, claims)
        for block in (1, 2, 7, 50, 100, 1000):
            with mock.patch.object(parzen, "BLOCK_ELEMENTS", block):
                blocked = model.log_density(x, claims)
            assert np.array_equal(blocked, reference), f"block={block}"

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
        with mock.patch.object(parzen, "BLOCK_ELEMENTS", chunk):
            got = log_density(window(h, kernels), points)
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
        base = log_density(window(h, kernels), x)
        moved = log_density(window(h, kernels + shift), x + shift)
        np.testing.assert_allclose(moved, base, atol=1e-9)

    @given(permutation=st.permutations(list(range(6))))
    @settings(max_examples=30, deadline=None)
    def test_kernel_permutation_invariance(self, permutation):
        rng = np.random.default_rng(11)
        kernels = rng.normal(size=(6, 2))
        x = rng.normal(size=(9, 2))
        claims = np.zeros(9, dtype=int)
        base = ConditionalParzen(0.4, [kernels]).log_density(x, claims)
        shuffled = ConditionalParzen(0.4, [kernels[permutation]]).log_density(
            x, claims
        )
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
        scores = log_density(window(h, [0.0, 1.0]), points)
        assert not np.isnan(scores).any()

    def test_far_point_is_exact_neg_inf(self):
        # Regression: points whose exponent overflows used to become
        # nan through the -inf - -inf max subtraction.
        scores = log_density(window(0.1, [0.0]), [1e200, -1e308, 0.0])
        assert scores[0] == -np.inf
        assert scores[1] == -np.inf
        assert np.isfinite(scores[2])

    def test_density_of_far_point_is_zero(self):
        assert density(window(0.2, [0.0, 1.0]), [1e300])[0] == 0.0

    def test_score_batch_shape_mismatch_raises(self):
        model = ConditionalParzen(0.2, [np.zeros((4, 3))])
        with pytest.raises(ShapeError):
            model.log_density(np.zeros(3), [0])


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
    """``(n_conds, n_rows, n_feats)``: one single-column model per column."""
    claims = np.zeros(len(x), dtype=int)
    return np.array(
        [
            np.column_stack(
                [
                    ConditionalParzen(h, [d[:, [j]]]).log_density(x[:, [j]], claims)
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


class TestBandwidthSweep:
    """``log_densities`` scores every width from one set of squared
    distances, bitwise as one model per width."""

    @given(
        case=conditional_case(),
        widths=st.lists(
            st.floats(min_value=0.01, max_value=5.0), min_size=1, max_size=3
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equal_to_one_model_per_width(self, case, widths):
        draws, x, claims, h, block = case
        hs = (h, *widths)
        with mock.patch.object(parzen, "BLOCK_ELEMENTS", block):
            got = ConditionalParzen(h, draws).log_densities(x, claims, hs)
            for k, width in enumerate(hs):
                want = ConditionalParzen(width, draws).log_density(x, claims)
                np.testing.assert_array_equal(got[k], want)

    def test_far_rows_are_the_same_bits(self):
        # Row 0, feature 0 underflows every kernel at every width (the
        # -inf branch); row 1, feature 1 underflows only at h = 0.1.
        draws = [np.zeros((3, 2)), np.ones((3, 2))]
        x = np.array([[1e200, 0.0], [0.5, 1e154], [0.3, 0.2]])
        claims = [0, 1, 0]
        hs = (0.1, 1.0, 2.0)
        got = ConditionalParzen(0.1, draws).log_densities(x, claims, hs)
        for k, h in enumerate(hs):
            want = ConditionalParzen(h, draws).log_density(x, claims)
            np.testing.assert_array_equal(got[k], want)
        assert np.all(got[:, 0, 0] == -np.inf)
        assert got[0, 1, 1] == -np.inf and np.isfinite(got[1:, 1, 1]).all()
        assert np.isfinite(got[:, 2]).all()

    def test_rejects_bad_width(self):
        model = ConditionalParzen(0.2, [np.zeros((4, 2))])
        with pytest.raises(ConfigurationError, match="h must be"):
            model.log_densities(np.zeros((1, 2)), [0], (0.2, 0.0))

    def test_process_sweep_is_the_serial_sweep(self):
        rng = np.random.default_rng(4)
        conds = np.repeat([[0.0, 1.0], [1.0, 0.0]], 10, axis=0)
        test_set = FlowPairDataset(rng.normal(size=(20, 12)) + conds[:, :1], conds)
        hs = (0.2, 0.5, 1.0)
        kwargs = dict(g_size=30, root_entropy=5, pair="sweep")
        serial = security_analysis_h_sweep(
            _sampler, test_set, h_values=hs, workers=1, **kwargs
        )
        process = security_analysis_h_sweep(
            _sampler, test_set, h_values=hs, workers=2, **kwargs
        )
        assert list(serial) == list(process) == list(hs)
        for h in hs:
            single = security_analysis(_sampler, test_set, h=h, **kwargs)
            for result in (process[h], single):
                np.testing.assert_array_equal(result.avg_correct, serial[h].avg_correct)
                np.testing.assert_array_equal(
                    result.avg_incorrect, serial[h].avg_incorrect
                )


def _sampler(condition, n, rng):
    return rng.normal(loc=condition[0], size=(n, 12))


class TestViewsMatchPerFeatureLoop:
    """The detector and the attacker reduce ConditionalParzen scores in
    the same order as a loop over one single-column model per feature."""

    CONDS = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    FEATURES = [0, 3, 4, 5, 6, 7, 8, 9, 10, 11]  # 10 >= 8: pairwise != serial

    def _windows(self, root_entropy):
        draws = (
            _sampler(c, 30, analysis_rng(root_entropy, DEFAULT_PAIR, c))
            for c in self.CONDS
        )
        return [
            [ConditionalParzen(0.3, [d[:, [ft]]]) for ft in self.FEATURES]
            for d in draws
        ]

    @pytest.mark.parametrize("n_rows", [1, 2, 9])
    def test_detector_score(self, n_rows):
        rng = np.random.default_rng(n_rows)
        x = rng.normal(size=(n_rows, 12))
        claim_idx = rng.integers(0, len(self.CONDS), size=n_rows)
        detector = EmissionModel(
            _sampler, self.CONDS, h=0.3, g_size=30,
            feature_indices=self.FEATURES, root_entropy=5,
        )
        got = detector.score(x, self.CONDS[claim_idx])

        windows = self._windows(5)
        want = np.empty(n_rows)
        for i, (row, ci) in enumerate(zip(x, claim_idx)):
            total = 0.0
            for d, distr in enumerate(windows[ci]):
                ft = self.FEATURES[d]
                total += float(log_density(distr, [row[ft]])[0])
            want[i] = total / len(self.FEATURES)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n_rows", [1, 2, 9])
    def test_attacker_log_likelihoods(self, n_rows):
        x = np.random.default_rng(n_rows).normal(size=(n_rows, 12))
        attacker = EmissionModel(
            _sampler, self.CONDS, h=0.3, g_size=30,
            feature_indices=self.FEATURES, root_entropy=5,
        )
        got = attacker.log_likelihoods(x)

        want = np.empty((n_rows, len(self.CONDS)))
        for ci, per_feature in enumerate(self._windows(5)):
            total = np.zeros(n_rows)
            for d, distr in enumerate(per_feature):
                total += log_density(distr, x[:, self.FEATURES[d]])
            want[:, ci] = total
        np.testing.assert_array_equal(got, want)
