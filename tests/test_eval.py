"""Evaluation metrics: perplexity, coherence, qq tables, feature matching."""

import json
import math
import warnings

import numpy as np
import pytest

from s3ribp import (
    ChainConfig,
    CountMatrix,
    DomainError,
    ObservationMask,
    baseline_row_mean_log_perplexity,
    binomial_baseline_qq,
    evaluate_folds,
    feature_line,
    jaccard_match,
    live_features,
    log_perplexity,
    make_splits,
    meta_features,
    predictive_log_lik,
    qq_row_nonzeros,
    run_chain,
    top_features,
    umass_coherence,
)
from s3ribp import mcmc
from s3ribp.model import poisson_log_pmf
from test_mcmc import make_summary, tiny_hyper


class TestLogPerplexity:
    def test_all_zero_matrix_with_dead_features(self):
        summary = make_summary(z_samples=[[[0], [0]]], b_samples=[[[2.0]]])
        data = CountMatrix.from_dense(np.zeros((2, 1), dtype=np.int64))
        mask = ObservationMask(frozenset({(0, 0), (1, 0)}), 2, 1)
        np.testing.assert_allclose(log_perplexity(summary, data, mask), 0.0, atol=1e-15)

    def test_single_cell_hand_value(self):
        summary = make_summary(z_samples=[[[1]]], b_samples=[[[1.0]]])
        data = CountMatrix.from_dense(np.array([[1]]))
        mask = ObservationMask(frozenset({(0, 0)}), 1, 1)
        np.testing.assert_allclose(log_perplexity(summary, data, mask), 1.0, rtol=1e-12)

    def test_empty_mask_is_an_error(self):
        summary = make_summary(z_samples=[[[1]]], b_samples=[[[1.0]]])
        data = CountMatrix.from_dense(np.array([[1]]))
        with pytest.raises(DomainError):
            log_perplexity(summary, data, ObservationMask.none_held_out(1, 1))

    def test_posterior_of_another_shape_is_refused(self, rng):
        # the held-out cells of the first rows all lie inside the summary,
        # but it was fitted on more rows than the data has
        summary = make_summary(rng.integers(0, 2, size=(2, 6, 2)), rng.gamma(1.0, 1.0, size=(2, 2, 3)))
        data = CountMatrix.from_dense(rng.poisson(1.0, size=(4, 3)))
        mask = ObservationMask([(0, 1), (3, 2)], 4, 3)
        with pytest.raises(DomainError, match="fitted on a 6x3 matrix, but the data is 4x3"):
            log_perplexity(summary, data, mask)

    @pytest.mark.parametrize("n_samples", [1, 4])
    @pytest.mark.parametrize("chunk", [3, None])
    def test_equals_mean_of_per_cell_predictive(self, rng, monkeypatch, n_samples, chunk):
        if chunk:
            monkeypatch.setattr(mcmc, "_SCORE_CHUNK", chunk)
        n, d, k = 6, 5, 3
        z = rng.integers(0, 2, size=(n_samples, n, k))
        z[:, 0] = 0  # row 0 has rate zero in every sample
        b = rng.gamma(1.0, 1.0, size=(n_samples, k, d))
        summary = make_summary(z, b)
        x = rng.poisson(1.0, size=(n, d))
        x[0] = 0  # ...and no counts, so its cells score log 1 = 0
        x[2, :3] = 0
        data = CountMatrix.from_dense(x)
        held = [(0, 1), (0, 4), (1, 0), (2, 0), (2, 1), (2, 4), (3, 2), (4, 3), (5, 0), (5, 4)]
        mask = ObservationMask(held, n, d)
        # oracle: one predictive_log_lik call per held-out cell
        per_cell = [predictive_log_lik(summary, (r, c), x[r, c]) for r, c in mask.held_out_sorted()]
        assert per_cell[0] == per_cell[1] == 0.0
        assert np.all(np.isfinite(per_cell))
        np.testing.assert_allclose(log_perplexity(summary, data, mask), -np.mean(per_cell), rtol=1e-12)

    def test_positive_cell_without_rate_scores_inf_not_nan(self, rng):
        # row 0's only positive cell is held out, and no retained draw has a
        # feature on in row 0: the model and the baseline both give that
        # cell rate zero, so its probability is zero and both scores are +inf
        x = np.array([[0, 2, 0, 0], [1, 0, 3, 1], [0, 1, 1, 2]])
        data = CountMatrix.from_dense(x)
        mask = ObservationMask([(0, 1), (0, 2), (1, 0), (2, 3)], 3, 4)
        z = [[[0, 0], [1, 0], [0, 1]], [[0, 0], [1, 1], [0, 1]], [[0, 0], [0, 1], [1, 1]]]
        summary = make_summary(z, rng.gamma(2.0, 1.0, size=(3, 2, 4)))
        assert predictive_log_lik(summary, (0, 1), 2) == -math.inf
        assert predictive_log_lik(summary, (0, 2), 0) == 0.0
        assert log_perplexity(summary, data, mask) == math.inf
        assert baseline_row_mean_log_perplexity(data, mask) == math.inf


class TestBaselinePerplexity:
    def test_hand_value(self):
        data = CountMatrix.from_dense(np.array([[2, 4], [0, 6]]))
        mask = ObservationMask(frozenset({(0, 1)}), 2, 2)
        # row 0 trains on {2} alone, so its rate is 2
        want = -float(poisson_log_pmf(4, 2.0))
        np.testing.assert_allclose(baseline_row_mean_log_perplexity(data, mask), want, rtol=1e-12)

    def test_unobserved_row_falls_back_to_global_mean(self):
        data = CountMatrix.from_dense(np.array([[3, 5], [2, 2]]))
        mask = ObservationMask(frozenset({(0, 0), (0, 1)}), 2, 2)
        want = -0.5 * float(poisson_log_pmf(3, 2.0) + poisson_log_pmf(5, 2.0))
        np.testing.assert_allclose(baseline_row_mean_log_perplexity(data, mask), want, rtol=1e-12)

    def test_empty_mask_is_an_error(self):
        data = CountMatrix.from_dense(np.array([[1]]))
        with pytest.raises(DomainError):
            baseline_row_mean_log_perplexity(data, ObservationMask.none_held_out(1, 1))

    def test_equals_per_cell_recomputation(self, rng):
        x = rng.poisson(1.5, size=(5, 4))
        x[:, :2] += 1  # every row keeps a positive training cell but row 0
        data = CountMatrix.from_dense(x)
        # every cell of row 0 is held out, so it falls back to the global mean
        held = [(0, 0), (0, 1), (0, 2), (0, 3), (2, 1), (3, 0), (3, 3), (4, 2)]
        mask = ObservationMask(held, 5, 4)
        train = np.ones(x.shape, dtype=bool)
        for r, c in held:
            train[r, c] = False
        global_mean = x[train].sum() / train.sum()
        want = []
        for r, c in held:
            rate = x[r, train[r]].mean() if train[r].any() else global_mean
            want.append(float(poisson_log_pmf(x[r, c], rate)))
        assert np.all(np.isfinite(want))
        np.testing.assert_allclose(baseline_row_mean_log_perplexity(data, mask), -np.mean(want), rtol=1e-12)


class TestUmassCoherence:
    def co_data(self, present):
        return CountMatrix.from_dense(np.asarray(present, dtype=np.int64))

    def test_single_column_feature_is_zero(self):
        data = self.co_data(np.ones((10, 2)))
        assert umass_coherence(np.array([[2.0, 1.0]]), data, top_m=1) == 0.0

    def test_perfect_cooccurrence(self):
        data = self.co_data(np.ones((10, 2)))
        got = umass_coherence(np.array([[2.0, 1.0]]), data, top_m=2)
        np.testing.assert_allclose(got, np.log(11.0 / 10.0), rtol=1e-12)

    def test_never_cooccurring_pair(self):
        present = np.zeros((10, 2), dtype=np.int64)
        present[:, 0] = 1
        got = umass_coherence(np.array([[2.0, 1.0]]), self.co_data(present), top_m=2)
        np.testing.assert_allclose(got, np.log(1.0 / 10.0), rtol=1e-12)

    def test_zero_document_count_pairs_are_skipped(self):
        present = np.zeros((10, 2), dtype=np.int64)
        present[:5, 1] = 1
        # the higher-weighted column never appears, so the pair conditions
        # on a zero count and is skipped
        got = umass_coherence(np.array([[2.0, 1.0]]), self.co_data(present), top_m=2)
        assert got == 0.0

    def test_mean_over_live_features_only(self):
        data = self.co_data(np.ones((10, 2)))
        b = np.array([[2.0, 1.0], [3.0, 1.5]])
        both = umass_coherence(b, data, top_m=2)
        only_second = umass_coherence(b, data, top_m=2, live=np.array([False, True]))
        np.testing.assert_allclose(both, np.log(11.0 / 10.0), rtol=1e-12)
        np.testing.assert_allclose(only_second, np.log(11.0 / 10.0), rtol=1e-12)

    def test_zero_weight_features_are_excluded(self):
        data = self.co_data(np.ones((10, 2)))
        b = np.array([[0.0, 0.0], [2.0, 1.0]])
        np.testing.assert_allclose(umass_coherence(b, data, top_m=2), np.log(1.1), rtol=1e-12)

    def test_nothing_to_score_is_an_error(self):
        data = self.co_data(np.ones((10, 2)))
        with pytest.raises(DomainError):
            umass_coherence(np.zeros((2, 2)), data, top_m=2)

    def test_validation(self):
        data = self.co_data(np.ones((10, 2)))
        with pytest.raises(DomainError):
            umass_coherence(np.zeros(3), data)
        with pytest.raises(DomainError):
            umass_coherence(np.ones((1, 2)), data, top_m=0)


class TestQQRowNonzeros:
    def test_two_row_analytic_means(self, rng):
        summary = make_summary(z_samples=[[[1], [1]]], b_samples=[[[2.0]]])
        data = CountMatrix.from_dense(np.array([[1], [3]]))
        points = qq_row_nonzeros(summary, data, 4000, rng)
        empirical = [p[0] for p in points]
        predicted = [p[1] for p in points]
        assert empirical == [1.0, 1.0]
        p = 1.0 - np.exp(-2.0)
        np.testing.assert_allclose(predicted, [p * p, 2 * p - p * p], atol=0.025)

    def test_predicted_side_is_sorted(self, rng):
        summary = make_summary(
            z_samples=[[[1, 0], [0, 1], [1, 1]]],
            b_samples=[[[0.5, 2.0, 0.1], [1.0, 0.2, 3.0]]],
        )
        data = CountMatrix.from_dense(rng.poisson(1.0, size=(3, 3)))
        points = qq_row_nonzeros(summary, data, 50, rng)
        predicted = [p[1] for p in points]
        assert predicted == sorted(predicted)

    def test_deterministic_given_rng(self):
        summary = make_summary(z_samples=[[[1], [1]]], b_samples=[[[2.0]]])
        data = CountMatrix.from_dense(np.array([[1], [3]]))
        a = qq_row_nonzeros(summary, data, 20, np.random.default_rng(9))
        b = qq_row_nonzeros(summary, data, 20, np.random.default_rng(9))
        assert a == b

    def test_needs_draws(self, rng):
        summary = make_summary(z_samples=[[[1]]], b_samples=[[[1.0]]])
        data = CountMatrix.from_dense(np.array([[1]]))
        with pytest.raises(DomainError):
            qq_row_nonzeros(summary, data, 0, rng)

    @pytest.mark.parametrize("shape", [(3, 2), (2, 3)], ids=["rows", "cols"])
    def test_posterior_of_another_shape_is_refused_before_drawing(self, shape):
        summary = make_summary(z_samples=[[[1], [1]]], b_samples=[[[2.0, 1.0]]])
        data = CountMatrix.from_dense(np.ones(shape, dtype=np.int64))
        gen = np.random.default_rng(2)
        before = gen.bit_generator.state
        with pytest.raises(DomainError, match=rf"fitted on a 2x2 matrix, but the data is {shape[0]}x{shape[1]}"):
            qq_row_nonzeros(summary, data, 5, gen)
        assert gen.bit_generator.state == before

    def test_zero_rate_never_and_rate_fifty_always_nonzero(self, rng):
        # row 0 has no active feature; row 1's one cell of rate 50 is zero
        # with probability e^-50 and its cell of rate 0 never scores
        summary = make_summary(z_samples=[[[0], [1]], [[0], [1]]], b_samples=[[[50.0, 0.0]], [[50.0, 0.0]]])
        data = CountMatrix.from_dense(np.array([[0, 0], [3, 0]]))
        points = qq_row_nonzeros(summary, data, 200, rng)
        assert points == [(0.0, 0.0), (1.0, 1.0)]

    def test_one_integer_and_one_uniform_per_cell_each_replicate(self, rng):
        # the same draws as P(Poisson(lam) > 0) = -expm1(-lam) tested against
        # one N x D uniform array per replicate, after one sample index
        z = rng.integers(0, 2, size=(3, 5, 2))
        b = rng.gamma(1.0, 0.5, size=(3, 2, 4))
        summary = make_summary(z, b)
        data = CountMatrix.from_dense(rng.poisson(1.0, size=(5, 4)))
        got = qq_row_nonzeros(summary, data, 30, np.random.default_rng(4))
        gen = np.random.default_rng(4)
        acc = np.zeros(5)
        for _ in range(30):
            s = int(gen.integers(3))
            lam = z[s].astype(np.float64) @ b[s]
            acc += np.sort(np.count_nonzero(gen.random(lam.shape) < -np.expm1(-lam), axis=1))
        np.testing.assert_array_equal([p[1] for p in got], acc / 30)


class TestBinomialBaselineQQ:
    def test_saturated_matrix_is_exact_diagonal(self, rng):
        data = CountMatrix.from_dense(np.full((4, 3), 2))
        points = binomial_baseline_qq(data, 10, rng)
        for e, p in points:
            assert e == 3.0 and p == 3.0

    def test_empty_matrix(self, rng):
        data = CountMatrix.from_dense(np.zeros((3, 2), dtype=np.int64))
        points = binomial_baseline_qq(data, 10, rng)
        for e, p in points:
            assert e == 0.0 and p == 0.0

    def test_small_matrix_enumeration(self, rng):
        data = CountMatrix.from_dense(np.array([[1, 1], [1, 0]]))
        points = binomial_baseline_qq(data, 20000, rng)
        assert [p[0] for p in points] == [1.0, 2.0]
        # row 0 is 1 + Bernoulli(2/3); row 1 is Bernoulli(2/3) + Bernoulli(1/3)
        e_min = e_max = 0.0
        for c0, p0 in ((1, 1 / 3), (2, 2 / 3)):
            for c1, p1 in ((0, 2 / 9), (1, 5 / 9), (2, 2 / 9)):
                e_min += p0 * p1 * min(c0, c1)
                e_max += p0 * p1 * max(c0, c1)
        np.testing.assert_allclose([p[1] for p in points], [e_min, e_max], atol=0.02)

    def test_needs_draws(self, rng):
        data = CountMatrix.from_dense(np.array([[1]]))
        with pytest.raises(DomainError):
            binomial_baseline_qq(data, 0, rng)


class TestJaccardMatch:
    def test_identical_sets(self):
        m = jaccard_match([{1, 2}, {3}], [{3}, {1, 2}])
        assert m.pairs == ((0, 1, 1.0), (1, 0, 1.0))
        assert m.mean_score == 1.0
        assert m.unmatched_a == () and m.unmatched_b == ()

    def test_partial_overlap(self):
        m = jaccard_match([{"a", "b", "c"}], [{"b", "c", "d"}])
        np.testing.assert_allclose(m.scores, [0.5])

    def test_disjoint_sets_still_pair_at_zero(self):
        m = jaccard_match([{1}], [{2}])
        assert m.pairs == ((0, 0, 0.0),)
        assert m.mean_score == 0.0

    def test_unmatched_leftovers(self):
        m = jaccard_match([{1}, {2}, {3}], [{2}])
        assert m.pairs == ((1, 0, 1.0),)
        assert m.unmatched_a == (0, 2)
        assert m.unmatched_b == ()

    def test_tie_breaks_toward_lowest_indices(self):
        m = jaccard_match([{1}, {1}], [{1}])
        assert m.pairs == ((0, 0, 1.0),)
        assert m.unmatched_a == (1,)

    def test_score_multiset_is_symmetric(self):
        a = [{1, 2}, {3, 4}, {5}]
        b = [{2, 3}, {5, 6}]
        ab = sorted(jaccard_match(a, b).scores)
        ba = sorted(jaccard_match(b, a).scores)
        np.testing.assert_allclose(ab, ba)

    def test_empty_set_is_an_error(self):
        with pytest.raises(DomainError):
            jaccard_match([set()], [{1}])
        with pytest.raises(DomainError):
            jaccard_match([{1}], [frozenset()])


class TestLiveFeatures:
    def test_threshold_is_one_over_n(self):
        z_mean = np.zeros((10, 3))
        z_mean[:, 0] = 0.5
        z_mean[0, 1] = 1.0  # column mean exactly 1/N stays dead
        z_mean[0, 2] = 1.0
        z_mean[1, 2] = 0.2
        np.testing.assert_array_equal(live_features(z_mean), [True, False, True])

    def test_validation(self):
        with pytest.raises(DomainError):
            live_features(np.zeros(4))


class TestTopFeatures:
    def test_one_hot(self):
        b = np.array([[0.0, 3.0, 0.0], [1.0, 0.0, 0.0]])
        out = top_features(b, ("a", "b", "c"), top_m=1)
        assert out == [(0, (("b", 3.0),)), (1, (("a", 1.0),))]

    def test_tie_breaks_by_ascending_column(self):
        out = top_features(np.array([[0.5, 0.5, 0.1]]), ("a", "b", "c"), top_m=2)
        assert out == [(0, (("a", 0.5), ("b", 0.5)))]

    def test_top_m_larger_than_width(self):
        out = top_features(np.array([[0.5, 0.2]]), ("a", "b"), top_m=5)
        assert out == [(0, (("a", 0.5), ("b", 0.2)))]

    def test_dead_and_zero_features_omitted(self):
        b = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]])
        out = top_features(b, ("a", "b"), top_m=1, live=np.array([True, True, False]))
        assert out == [(0, (("a", 1.0),))]

    def test_validation(self):
        with pytest.raises(DomainError, match="1 column labels for a weight matrix 2 columns wide"):
            top_features(np.ones((1, 2)), ("a",), top_m=1)
        with pytest.raises(DomainError):
            top_features(np.ones((1, 2)), ("a", "b"), top_m=0)

    def test_feature_line_format(self):
        line = feature_line((("wheat", 0.781), ("barley", 0.5)))
        assert line == "wheat (0.78), barley (0.50)"


class TestMetaFeatures:
    def meta_config(self, seed=0):
        hp = tiny_hyper(
            seed=seed, k_max=3, burn_in=400, n_samples=100, alpha_b=0.5, mu_b=0.5
        )
        return ChainConfig(hyper=hp)

    def test_recovers_two_group_structure(self):
        # first layer: rows 0-9 use features 0-2, rows 10-19 use features 3-5
        z_mean = np.zeros((20, 6))
        z_mean[:10, :3] = 1.0
        z_mean[10:, 3:] = 1.0
        summary = make_summary(
            z_samples=z_mean[None, :, :].astype(np.int8),
            b_samples=np.ones((1, 6, 4)),
        )
        meta = meta_features(summary, self.meta_config())
        groups = (meta.z_mean >= 0.5).astype(int)
        # each original group shares one meta feature and excludes the other
        first = groups[:10]
        second = groups[10:]
        assert (first == first[0]).all() and (second == second[0]).all()
        assert first[0].sum() == 1 and second[0].sum() == 1
        assert not np.array_equal(first[0], second[0])

    def test_threshold_includes_exact_half(self):
        z_samples = np.stack(
            [np.ones((4, 2), dtype=np.int8), np.zeros((4, 2), dtype=np.int8)]
        )
        z_samples[1, :, 0] = 1  # feature 0 mean 1.0, feature 1 mean 0.5
        summary = make_summary(z_samples=z_samples, b_samples=np.ones((2, 2, 3)))
        meta = meta_features(summary, self.meta_config())
        # both features pass the 0.5 threshold, so the meta data is 4x2
        assert meta.z_samples.shape[1] == 4

    def test_all_dead_is_an_error(self):
        summary = make_summary(
            z_samples=np.zeros((2, 3, 2), dtype=np.int8),
            b_samples=np.ones((2, 2, 3)),
        )
        with pytest.raises(DomainError):
            meta_features(summary, self.meta_config())


class TestEvaluateFolds:
    def test_two_fold_smoke(self, rng):
        x = rng.poisson(3.0, size=(10, 6))
        x[:5, :3] += 4
        x[5:, 3:] += 4
        data = CountMatrix.from_dense(x)
        masks = make_splits(data, 0.15, 2, seed=3)
        hp = tiny_hyper(seed=11, k_max=3, burn_in=150, n_samples=40)
        report = evaluate_folds(data, masks, ChainConfig(hyper=hp), top_m=3, qq_draws=10)
        assert report.n_folds == 2
        assert [f["fold"] for f in report.folds] == [0, 1]
        assert [f["seed"] for f in report.folds] == [11, 12]
        assert report.folds[0]["mask_digest"] != report.folds[1]["mask_digest"]
        perps = [f["log_perplexity"] for f in report.folds]
        np.testing.assert_allclose(report.log_perplexity_mean, np.mean(perps), rtol=1e-12)
        assert len(report.qq_points) == 10
        assert len(report.qq_baseline_points) == 10
        assert all(len(p) == 2 for p in report.qq_points)
        parsed = json.loads(report.to_json())
        assert parsed["n_folds"] == 2
        assert len(parsed["folds"]) == 2
        assert "mean" in parsed["log_perplexity"]
        text = report.to_text()
        assert "folds: 2" in text
        assert "baseline is the rate-only row-mean Poisson model" in text
        assert len(report.feature_matches) <= 1

    def test_infinite_cells_counted_and_finite_mean_reported(self):
        # row 0's only positive cell is held out in fold 0; with no training
        # count there, every retained draw at this seed leaves row 0 empty,
        # so the cell scores -inf and the fold's log-perplexity is +inf
        x = np.random.default_rng(0).poisson(2.0, size=(8, 5)) + 1
        x[0] = 0
        x[0, 3] = 4
        data = CountMatrix.from_dense(x)
        masks = [ObservationMask([(0, 3), (2, 1), (5, 4)], 8, 5), ObservationMask([(1, 1), (6, 0)], 8, 5)]
        hp = tiny_hyper(seed=2, k_max=3, burn_in=20, n_samples=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = evaluate_folds(data, masks, ChainConfig(hyper=hp), top_m=2, qq_draws=2)
            text = report.to_text()
        for fold, mask in zip(report.folds, masks):
            summary = run_chain(data, mask, ChainConfig(hyper=hp.replace(seed=fold["seed"])))
            per_cell = np.array([predictive_log_lik(summary, (r, c), x[r, c]) for r, c in mask.held_out_sorted()])
            finite = np.isfinite(per_cell)
            assert fold["infinite_cells"] == int((~finite).sum())
            assert fold["log_perplexity"] == log_perplexity(summary, data, mask)
            np.testing.assert_allclose(fold["log_perplexity_finite"], -per_cell[finite].mean(), rtol=1e-12)
        assert [f["infinite_cells"] for f in report.folds] == [1, 0]
        assert report.folds[0]["log_perplexity"] == math.inf
        assert math.isfinite(report.folds[0]["log_perplexity_finite"])
        # an infinite fold has no spread: None, printed "n/a", never NaN
        assert report.log_perplexity_std is None
        parsed = json.loads(report.to_json())
        assert parsed["log_perplexity"]["std"] is None
        assert [f["infinite_cells"] for f in parsed["folds"]] == [1, 0]
        assert parsed["folds"][1]["log_perplexity_finite"] == report.folds[1]["log_perplexity_finite"]
        finite_mean = np.mean([f["log_perplexity_finite"] for f in report.folds])
        assert "log-perplexity: inf +/- n/a; " in text
        assert "nan" not in text.lower()
        assert f"1 held-out cells with zero probability, finite cells {finite_mean:.4f}" in text

    def test_fold_seeds_wrap_at_64_bits(self, rng):
        data = CountMatrix.from_dense(rng.poisson(2.0, size=(6, 4)) + 1)
        masks = make_splits(data, 0.2, 2, seed=0)
        hp = tiny_hyper(seed=2**64 - 1, burn_in=4, n_samples=2)
        report = evaluate_folds(data, masks, ChainConfig(hyper=hp), top_m=2, qq_draws=2)
        assert [f["seed"] for f in report.folds] == [2**64 - 1, 0]

    def test_needs_masks(self, rng):
        data = CountMatrix.from_dense(rng.poisson(1.0, size=(4, 3)))
        with pytest.raises(DomainError):
            evaluate_folds(data, [], ChainConfig(hyper=tiny_hyper()))

    def test_training_cells_score_no_worse_than_held_out(self, rng):
        # in-sample predictive perplexity should not exceed held-out
        # perplexity by any real margin on block-structured data
        x = rng.poisson(1.0, size=(30, 12))
        x[:15, :6] += 5
        x[15:, 6:] += 5
        data = CountMatrix.from_dense(x)
        masks = make_splits(data, 0.1, 2, seed=0)
        hp = tiny_hyper(seed=4, k_max=4, burn_in=500, n_samples=150)
        summary = run_chain(data, masks[0], ChainConfig(hyper=hp))
        held = log_perplexity(summary, data, masks[0])
        second = masks[1].held_out
        train_cells = second[~masks[0].is_held_out(second[:, 0], second[:, 1])]
        train_mask = ObservationMask(train_cells, data.n_rows, data.n_cols)
        train = log_perplexity(summary, data, train_mask)
        assert train <= held * 1.05
