"""Evaluation metrics: perplexity, coherence, qq tables, feature matching."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from s3ribp import (
    ChainConfig,
    CountMatrix,
    DomainError,
    MatchResult,
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
from s3ribp import evaluate, mcmc
from s3ribp.evaluate import _cell_replicates, _top_columns, _unit_replicates, _unit_tables
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
    @pytest.mark.parametrize("cells", [3, None])
    def test_equals_mean_of_per_cell_predictive(self, rng, monkeypatch, n_samples, cells):
        if cells:
            # fewer cells than a row holds: one row per pass
            monkeypatch.setattr(mcmc, "_SCORE_CELLS", cells)
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


def gathered_log_liks(summary, rows, cols, x):
    """The scorer the row-blocked one replaced, as its oracle: per retained
    sample, each cell's rate from its own row of Z and column of B, the full
    Poisson log pmf, then scipy's logsumexp over the samples."""
    lp = np.empty((summary.n_samples, len(rows)))
    for s in range(summary.n_samples):
        lam = np.einsum("ik,ki->i", summary.z_samples[s][rows].astype(np.float64), summary.b_samples[s][:, cols])
        lp[s] = poisson_log_pmf(x, lam)
    return logsumexp(lp, axis=0) - math.log(summary.n_samples)


class TestRowBlockedScorer:
    """``_predictive_log_liks`` against the per-cell gather it replaced."""

    @pytest.mark.parametrize("n_samples", [1, 4])
    @pytest.mark.parametrize("one_row_passes", [False, True])
    def test_matches_the_gathered_scorer(self, rng, monkeypatch, n_samples, one_row_passes):
        if one_row_passes:
            monkeypatch.setattr(mcmc, "_SCORE_CELLS", 1)
        n, d, k = 9, 7, 4
        z = rng.integers(0, 2, size=(n_samples, n, k))
        z[:, [0, 5]] = 0  # rows 0 and 5 have rate zero in every sample
        summary = make_summary(z, rng.gamma(0.5, 2.0, size=(n_samples, k, d)))
        x = rng.poisson(1.5, size=(n, d))
        x[0, :3] = 0
        x[0, 3:] = 2
        # unsorted cells with repeats, a row's cells spread through the list
        rows, cols = rng.integers(0, n, size=80), rng.integers(0, d, size=80)
        rows, cols = np.append(rows, [0, 5, 0, 3, 0]), np.append(cols, [1, 2, 4, 3, 1])
        got = mcmc._predictive_log_liks(summary, rows, cols, x[rows, cols])
        want = gathered_log_liks(summary, rows, cols, x[rows, cols])
        np.testing.assert_array_equal(np.isfinite(got), np.isfinite(want))
        np.testing.assert_allclose(got, want, rtol=1e-12)
        # a zero-rate row scores 0 at a zero count and -inf at a positive one
        assert np.all(got[(rows == 0) & (cols < 3)] == 0.0)
        assert np.all(got[(rows == 0) & (cols >= 3)] == -math.inf)
        assert np.all(got[rows == 5][x[5, cols[rows == 5]] == 0] == 0.0)

    @pytest.mark.parametrize("bad", [-3.0, math.nan, math.inf])
    def test_bad_loading_at_a_scored_cell_is_refused(self, bad):
        b = np.ones((2, 2, 3))
        b[1, 0, 2] = bad
        summary = make_summary(np.ones((2, 2, 2), dtype=np.int8), b)
        # the check reads the rates of the scored cells only
        assert np.isfinite(mcmc._predictive_log_liks(summary, [0, 1], [1, 0], [1, 2])).all()
        with pytest.raises(DomainError, match="rates must be finite and non-negative"):
            mcmc._predictive_log_liks(summary, [0, 1], [1, 2], [1, 2])
        with pytest.raises(DomainError, match="rates must be finite and non-negative"):
            predictive_log_lik(summary, (1, 2), 0)


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


def looped_coherence(b_mean, data, top_m, live):
    """The oracle of ``umass_coherence``: D(v_l) from a bincount of the
    stored cells and a double loop over the pairs (m, l), l < m."""
    top = _top_columns(np.asarray(b_mean, dtype=np.float64), top_m, live)
    doc = np.bincount(data.cols, minlength=data.n_cols).astype(np.float64)
    all_rows = np.arange(data.n_rows)[:, None]
    scores = []
    for _, cols in top:
        present = (data.counts_at(all_rows, cols[None, :]) > 0).astype(np.float64)
        co = present.T @ present
        total = 0.0
        for m in range(1, len(cols)):
            for l in range(m):
                d_l = doc[cols[l]]
                if d_l == 0:
                    continue
                total += math.log((co[m, l] + 1.0) / d_l)
        scores.append(total)
    if not scores:
        raise DomainError("no live feature has positive weights; coherence is undefined")
    return float(np.mean(scores))


@st.composite
def _coherence_cases(draw):
    """A count matrix of up to 9 x 7 cells, mostly zero so that top columns
    are often empty, and a weight matrix with zero rows and tied weights."""
    n, d, k = draw(st.integers(1, 9)), draw(st.integers(1, 7)), draw(st.integers(1, 4))
    x = draw(st.lists(st.sampled_from([0, 0, 0, 1, 3]), min_size=n * d, max_size=n * d))
    b = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5]), min_size=k * d, max_size=k * d))
    live = draw(st.none() | st.lists(st.booleans(), min_size=k, max_size=k))
    return np.reshape(x, (n, d)), np.reshape(b, (k, d)), draw(st.integers(1, d + 1)), live


class TestUmassCoherence:
    def co_data(self, present):
        return CountMatrix.from_dense(np.asarray(present, dtype=np.int64))

    @settings(max_examples=300, deadline=None)
    @given(case=_coherence_cases())
    @example(case=(np.array([[0, 1, 0], [0, 2, 0]]), np.array([[3.0, 2.0, 1.0]]), 3, None))
    def test_equals_the_looped_oracle(self, case):
        x, b, top_m, live = case
        data = self.co_data(x)
        try:
            want = looped_coherence(b, data, top_m, live)
        except DomainError:
            with pytest.raises(DomainError):
                umass_coherence(b, data, top_m, live)
            return
        assert umass_coherence(b, data, top_m, live) == want

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


def path_counts(path, z, b, n_draws, rng):
    """n_draws replicates' per-row non-zero counts of the sample (z, b), drawn
    by one path's per-replicate helper, as an n_draws x N array."""
    z, b = np.asarray(z), np.asarray(b, dtype=np.float64)
    if path == "unit":
        rows, feats = np.nonzero(z)
        cum, beta = _unit_tables(b)
        return np.array(list(_unit_replicates(z.shape[0], rows, beta[feats], cum, feats, None, n_draws, rng)))
    return np.array(list(_cell_replicates(-np.expm1(-(z @ b)), n_draws, rng)))


def cell_words(gen, shape):
    """The 16-bit words of one cell-path replicate in cell order: four to a
    64-bit draw of ``gen``, least significant field first."""
    n = math.prod(shape)
    raw = gen.bit_generator.random_raw(-(-n // 4)).tolist()
    return np.array([(w >> (16 * i)) & 0xFFFF for w in raw for i in range(4)][:n]).reshape(shape)


def cell_replicate_oracle(p, gen):
    """One cell-path replicate written cell by cell: a word r per cell, hit
    iff r < t = min(floor(65536 p), 65535), then one uniform per tie (r == t)
    in row-major order, hit iff below 65536 p - t.  Returns the per-row
    non-zero counts and the number of ties."""
    scaled = p * 65536.0
    t = np.minimum(np.floor(scaled), 65535.0)
    r = cell_words(gen, p.shape)
    hit = r < t
    ties = np.argwhere(r == t)
    for (n, d), u in zip(ties, gen.random(len(ties))):
        hit[n, d] = u < scaled[n, d] - t[n, d]
    return np.count_nonzero(hit, axis=1), len(ties)


def count_path_calls(monkeypatch):
    """Count the replicates each path's helper is asked for, by path name."""
    calls = {"unit": 0, "cell": 0}
    for name in ("unit", "cell"):
        helper = getattr(evaluate, f"_{name}_replicates")

        def counted(*args, name=name, helper=helper):
            calls[name] += args[-2]
            return helper(*args)

        monkeypatch.setattr(evaluate, f"_{name}_replicates", counted)
    return calls


def poisson_binomial_pmf(probs):
    """The law of a sum of independent Bernoulli(probs[i]), by convolution."""
    pmf = np.ones(1)
    for p in probs:
        pmf = np.convolve(pmf, [1.0 - p, p])
    return pmf


def unit_qq_oracle(z, b, picks, gen):
    """The unit path written with numpy alone: per replicate, Poisson(beta_k)
    units for each active pair in row-major order, then one uniform per unit
    turned into a column by searchsorted on the normalised cumulative
    loadings, then each row's distinct columns; the sorted counts summed."""
    acc = np.zeros(z.shape[1])
    for s in np.unique(picks):
        rows, feats = np.nonzero(z[s])
        cum = np.cumsum(b[s], axis=1)
        for _ in range(int(np.sum(picks == s))):
            units = gen.poisson(cum[feats, -1])
            keys = 1.0 - gen.random(int(units.sum()))
            unit_feats = np.repeat(feats, units)
            cols = [np.searchsorted(cum[k] / cum[k, -1], key) for k, key in zip(unit_feats, keys)]
            cells = set(zip(np.repeat(rows, units).tolist(), cols))
            acc += np.sort(np.bincount([n for n, _ in cells], minlength=z.shape[1]))
    return acc


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
        for path in ("unit", "cell"):
            counts = np.sort(path_counts(path, [[1], [1]], [[2.0]], 4000, rng), axis=1)
            np.testing.assert_allclose(counts.mean(axis=0), [p * p, 2 * p - p * p], atol=0.025)

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
        for path in ("unit", "cell"):
            counts = path_counts(path, [[0], [1]], [[50.0, 0.0]], 200, rng)
            assert np.array_equal(counts, np.tile([0, 1], (200, 1)))

    def test_unit_path_row_counts_follow_the_poisson_binomial_law(self):
        # 3 x 5, K = 2: row 0 holds both features, row 1 one, row 2 none;
        # feature 1 loads nothing on column 3, so row 1 never counts it
        z = np.array([[1, 1], [0, 1], [0, 0]])
        b = np.array([[0.1, 0.6, 0.0, 1.5, 0.3], [0.4, 0.05, 0.9, 0.0, 2.0]])
        n_draws = 20_000
        counts = path_counts("unit", z, b, n_draws, np.random.default_rng(23))
        cell_p = -np.expm1(-(z @ b))
        for n in range(3):
            pmf = poisson_binomial_pmf(cell_p[n])
            freq = np.bincount(counts[:, n], minlength=6) / n_draws
            assert freq.size == 6
            se = np.sqrt(pmf * (1.0 - pmf) / n_draws)
            assert np.all(np.abs(freq - pmf) <= 4.0 * se + 1e-12), (n, freq, pmf)

    def test_both_paths_agree_in_mean(self):
        gen = np.random.default_rng(31)
        z = gen.integers(0, 2, size=(6, 3))
        b = gen.gamma(0.5, 0.6, size=(3, 8))
        n_draws = 4_000
        unit = path_counts("unit", z, b, n_draws, gen)
        cell = path_counts("cell", z, b, n_draws, gen)
        se = np.sqrt((unit.var(axis=0) + cell.var(axis=0)) / n_draws)
        assert np.all(np.abs(unit.mean(axis=0) - cell.mean(axis=0)) <= 4.0 * se + 1e-12)
        np.testing.assert_allclose(cell.mean(axis=0), (-np.expm1(-(z @ b))).sum(axis=1), atol=0.1)

    @pytest.mark.parametrize(
        "loading, path",
        [(0.25, "unit"), (0.2500001, "cell"), (2.0, "cell")],
        ids=["at-the-rule", "just-above", "dense"],
    )
    def test_a_sample_takes_the_unit_path_iff_its_units_are_at_most_a_sixteenth_of_the_cells(
        self, rng, monkeypatch, loading, path
    ):
        # 4 x 4 cells: the rule allows 16 / 16 = 1 expected unit, and the one
        # active pair expects sum_d b_0d = 4 * loading
        calls = count_path_calls(monkeypatch)
        summary = make_summary(z_samples=[[[1], [0], [0], [0]]], b_samples=[[[loading] * 4]])
        qq_row_nonzeros(summary, CountMatrix.from_dense(np.eye(4, dtype=np.int64)), 7, rng)
        assert calls == {"unit": 7 if path == "unit" else 0, "cell": 7 if path == "cell" else 0}

    def test_feature_with_all_zero_loadings_draws_no_unit(self, rng):
        # feature 1's cumulative loadings are not divided by its zero total,
        # so no RuntimeWarning (an error in this suite) is raised; row 1
        # holds only feature 1
        z = np.array([[1, 1], [0, 1], [0, 0]])
        b = np.array([[0.3, 0.0, 0.2, 0.1], [0.0, 0.0, 0.0, 0.0]])
        counts = path_counts("unit", z, b, 300, rng)
        assert np.all(counts[:, 1:] == 0)
        assert 0 < counts[:, 0].mean() < 3

    def test_one_integer_then_a_word_per_cell_and_a_uniform_per_tie(self, rng):
        # every sample index first, then per distinct sample in ascending
        # order: P(Poisson(lam) > 0) = -expm1(-lam) built once, then per
        # replicate one 16-bit word per cell and one uniform per tie.  The
        # first replicate's sample has an identity Z and loadings set from
        # the words a copy of the generator draws for it, each cell at
        # p = (r + 1/2) / 65536, so every cell of that replicate ties
        z = rng.integers(0, 2, size=(3, 5, 5))
        b = rng.gamma(1.0, 0.5, size=(3, 5, 4))
        ahead = np.random.default_rng(4)
        first = int(ahead.integers(3, size=30).min())
        z[first] = np.eye(5, dtype=np.int64)
        b[first] = -np.log1p(-(cell_words(ahead, (5, 4)) + 0.5) / 65536)
        summary = make_summary(z, b)
        data = CountMatrix.from_dense(rng.poisson(1.0, size=(5, 4)))
        got = qq_row_nonzeros(summary, data, 30, np.random.default_rng(4))
        gen = np.random.default_rng(4)
        picks = gen.integers(3, size=30)
        acc, ties = np.zeros(5), []
        for s in np.unique(picks):
            lam = z[s].astype(np.float64) @ b[s]
            assert lam.sum() > lam.size / 16
            for _ in range(int(np.sum(picks == s))):
                counts, n_ties = cell_replicate_oracle(-np.expm1(-lam), gen)
                acc += np.sort(counts)
                ties.append(n_ties)
        assert ties[0] == 20
        np.testing.assert_array_equal([p[1] for p in got], acc / 30)

    def test_cell_path_cells_are_non_zero_with_their_probability(self):
        # 3 * 2^-20 lies below the first threshold, so only a tie can hit;
        # 12345 / 65536 is a threshold with nothing left for its ties; 0 and
        # 1 - 2^-20 and 1 are the ends.  One row per probability, 2,048
        # cells each, so a row counts Binomial(2048, p) ...
        probs = np.array([0.0, 1.0, 3 * 2.0**-20, 12345 / 65536, 1 - 2.0**-20])
        n_cols, n_draws = 2048, 10_000
        gen = np.random.default_rng(29)
        counts = np.array(list(_cell_replicates(np.repeat(probs[:, None], n_cols, axis=1), n_draws, gen)))
        assert counts[:, 0].max() == 0 and counts[:, 1].min() == n_cols
        se = np.sqrt(n_cols * probs * (1.0 - probs) / n_draws)
        assert np.all(np.abs(counts.mean(axis=0) - n_cols * probs) <= 4.0 * se + 1e-12), counts.mean(axis=0)
        # ... and a row of the five cells counts by their Poisson-binomial law
        counts = np.array(list(_cell_replicates(probs[None, :], n_draws, gen)))[:, 0]
        pmf = poisson_binomial_pmf(probs)
        freq = np.bincount(counts, minlength=pmf.size) / n_draws
        assert freq.size == pmf.size
        se = np.sqrt(pmf * (1.0 - pmf) / n_draws)
        assert np.all(np.abs(freq - pmf) <= 4.0 * se + 1e-12), (freq, pmf)

    def test_one_poisson_per_active_pair_and_one_uniform_per_unit_each_replicate(self, rng):
        # a sparse 12 x 40 summary: every sample takes the unit path
        z = (rng.random(size=(3, 12, 3)) < 0.4).astype(np.int64)
        b = rng.gamma(0.3, 0.05, size=(3, 3, 40))
        b[0, 1, :] = 0.0
        summary = make_summary(z, b)
        for s in range(3):
            assert (z[s] @ b[s]).sum() <= 12 * 40 / 16
        data = CountMatrix.from_dense(rng.poisson(0.1, size=(12, 40)))
        got = qq_row_nonzeros(summary, data, 25, np.random.default_rng(5))
        gen = np.random.default_rng(5)
        want = unit_qq_oracle(z, b, gen.integers(3, size=25), gen)
        assert want.sum() > 0
        np.testing.assert_array_equal([p[1] for p in got], want / 25)

    @pytest.mark.parametrize("n_cols", [255, 256, 2**16 - 1, 2**16, 2**16 + 3])
    def test_cell_path_counts_do_not_wrap_at_any_width(self, n_cols):
        # a certain cell in every column: each row counts n_cols, which a
        # fixed 8- or 16-bit accumulator would wrap at 256 or 65,536
        p = np.ones((2, n_cols))
        p[1, ::2] = 0.0
        (counts,) = _cell_replicates(p, 1, np.random.default_rng(0))
        assert counts.tolist() == [n_cols, n_cols // 2]


def baseline_law(x):
    """The baseline's cell probabilities min(1, k_n k_d / W) of the dense
    matrix x, with its sure cells (k_n k_d >= W, as integers) and the
    expected proposals g W of its unit path."""
    k_n, k_d = np.count_nonzero(x, axis=1), np.count_nonzero(x, axis=0)
    w = int(np.count_nonzero(x))
    cross = np.outer(k_n, k_d)
    sure = cross >= w
    p_max = cross[~sure].max(initial=0) / w
    g = -math.log1p(-p_max) / p_max if p_max > 0 else 0.0
    return np.minimum(1.0, cross / w), sure, g, g * w


def baseline_counts(data, n_draws, rng, monkeypatch):
    """The per-row non-zero counts of each baseline replicate, n_draws x N,
    read off the replicates ``binomial_baseline_qq`` hands to its qq table."""
    got = []
    monkeypatch.setattr(evaluate, "_replicate_qq", lambda data, n_draws, replicates: got.extend(replicates))
    binomial_baseline_qq(data, n_draws, rng)
    return np.array(got)


# a 12 x 12 sparse matrix: cell (0, 0) is sure (k_n k_d = 9 >= W = 6), and
# the unit path expects g W = 6 * 2 log 2 = 8.3 proposals, at most 144 / 16
_SPARSE_WITH_A_SURE_CELL = np.zeros((12, 12), dtype=np.int64)
for _n, _d in ((0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (5, 7)):
    _SPARSE_WITH_A_SURE_CELL[_n, _d] = 1 + _n


class TestBinomialBaselineQQ:
    def test_dense_matrix_takes_the_cell_path_bit_for_bit(self):
        # per replicate one 16-bit word per cell against the thresholds of
        # min(1, k_n k_d / W), then one uniform per tie; the full first row
        # and column make some cells sure, which a tie's uniform always hits
        x = np.random.default_rng(8).poisson(1.0, size=(7, 9))
        x[0, :] = x[:, 0] = 1
        p, sure, _, proposals = baseline_law(x)
        assert proposals > x.size / 16 and sure.any() and not sure.all()
        got = binomial_baseline_qq(CountMatrix.from_dense(x), 40, np.random.default_rng(6))
        gen = np.random.default_rng(6)
        acc = np.zeros(7)
        for _ in range(40):
            acc += np.sort(cell_replicate_oracle(p, gen)[0])
        np.testing.assert_array_equal([q for _, q in got], acc / 40)

    def test_unit_path_row_counts_follow_the_poisson_binomial_law(self, monkeypatch):
        x = _SPARSE_WITH_A_SURE_CELL
        p, sure, _, proposals = baseline_law(x)
        assert proposals <= x.size / 16 and sure.sum() == 1
        n_draws = 10_000
        counts = baseline_counts(CountMatrix.from_dense(x), n_draws, np.random.default_rng(12), monkeypatch)
        for n in range(12):
            pmf = poisson_binomial_pmf(p[n])
            freq = np.bincount(counts[:, n], minlength=pmf.size) / n_draws
            assert freq.size == pmf.size
            se = np.sqrt(pmf * (1.0 - pmf) / n_draws)
            assert np.all(np.abs(freq - pmf) <= 4.0 * se + 1e-12), (n, freq, pmf)

    def test_one_poisson_per_row_then_a_column_and_a_keep_uniform_per_unit(self):
        # a sparse 25 x 40 matrix with a dense first row and column, so some
        # cells are sure and the rest thinned
        gen = np.random.default_rng(14)
        x = (gen.random((25, 40)) < 0.015).astype(np.int64)
        x[0, :10] = x[:6, 0] = 1
        p, sure, g, proposals = baseline_law(x)
        assert proposals <= x.size / 16 and sure.any() and (p[~sure] > 0).any()
        got = binomial_baseline_qq(CountMatrix.from_dense(x), 30, np.random.default_rng(2))
        k_n, k_d = np.count_nonzero(x, axis=1), np.count_nonzero(x, axis=0)
        w = int(np.count_nonzero(x))
        cum = np.cumsum(k_d) / w
        gen = np.random.default_rng(2)
        acc = np.zeros(25)
        for _ in range(30):
            units = gen.poisson(g * k_n)
            cols = np.searchsorted(cum, 1.0 - gen.random(int(units.sum())))
            rows = np.repeat(np.arange(25), units)
            u = gen.random(rows.size)
            cross = k_n[rows] * k_d[cols]
            thin = np.where(cross < w, cross, 0) / w
            keep = np.divide(-np.log1p(-thin), g * thin, out=np.zeros_like(thin), where=thin > 0)
            cells = set(zip(rows[u < keep].tolist(), cols[u < keep].tolist()))
            acc += np.sort(sure.sum(axis=1) + np.bincount([n for n, _ in cells], minlength=25))
        assert acc.sum() > sure.sum() * 30
        np.testing.assert_array_equal([q for _, q in got], acc / 30)

    @pytest.mark.parametrize(
        "cells, path",
        [(15, "unit"), (16, "cell"), ("all", "unit")],
        ids=["below-the-rule", "above-the-rule", "every-cell-sure"],
    )
    def test_the_unit_path_iff_its_proposals_are_at_most_a_sixteenth_of_the_cells(
        self, rng, monkeypatch, cells, path
    ):
        # 16 x 16 cells, so the rule allows 16 proposals.  A diagonal of m
        # cells has p_max = 1/m and expects -m^2 log1p(-1/m): 15.52 at
        # m = 15, 16.52 at m = 16.  A full matrix has only sure cells, so
        # g = 0 and no proposal is drawn
        x = np.ones((16, 16), dtype=np.int64) if cells == "all" else np.diag(np.ones(cells, dtype=np.int64))
        x = np.pad(x, [(0, 16 - x.shape[0]), (0, 16 - x.shape[1])])
        assert (baseline_law(x)[3] <= 16) == (path == "unit")
        calls = count_path_calls(monkeypatch)
        binomial_baseline_qq(CountMatrix.from_dense(x), 7, rng)
        assert calls == {"unit": 7 if path == "unit" else 0, "cell": 7 if path == "cell" else 0}

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


def rescoring_match(features_a, features_b):
    """The oracle of ``jaccard_match``: the greedy loop that rescores every
    free pair on every pick, keeping the first best pair in index order."""
    sets_a = [frozenset(s) for s in features_a]
    sets_b = [frozenset(s) for s in features_b]
    free_a, free_b = set(range(len(sets_a))), set(range(len(sets_b)))
    pairs = []
    while free_a and free_b:
        best = None
        for i in sorted(free_a):
            for j in sorted(free_b):
                s = len(sets_a[i] & sets_b[j]) / len(sets_a[i] | sets_b[j])
                if best is None or s > best[0]:
                    best = (s, i, j)
        s, i, j = best
        pairs.append((i, j, s))
        free_a.remove(i)
        free_b.remove(j)
    return MatchResult(tuple(pairs), tuple(sorted(free_a)), tuple(sorted(free_b)))


# up to 8 features a side over 6 labels: many ties, and empty sides
_FEATURE_LISTS = st.lists(st.frozensets(st.integers(0, 5), min_size=1), max_size=8)


class TestJaccardMatch:
    @settings(max_examples=300, deadline=None)
    @given(a=_FEATURE_LISTS, b=_FEATURE_LISTS)
    @example(a=[], b=[frozenset({1})])
    @example(a=[frozenset({1})], b=[])
    @example(a=[frozenset({1})] * 3, b=[frozenset({1}), frozenset({1, 2})] * 2)
    def test_equals_the_rescoring_oracle(self, a, b):
        got = jaccard_match(a, b)
        assert got == rescoring_match(a, b)
        assert all(type(i) is int and type(j) is int and type(s) is float for i, j, s in got.pairs)

    def test_identical_sets(self):
        m = jaccard_match([{1, 2}, {3}], [{3}, {1, 2}])
        assert m.pairs == ((0, 1, 1.0), (1, 0, 1.0))
        assert m.mean_score == 1.0
        assert m.unmatched_a == () and m.unmatched_b == ()

    def test_partial_overlap(self):
        m = jaccard_match([{"a", "b", "c"}], [{"b", "c", "d"}])
        assert m.pairs == ((0, 0, 0.5),)
        assert m.mean_score == 0.5

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
        ab = sorted(p[2] for p in jaccard_match(a, b).pairs)
        ba = sorted(p[2] for p in jaccard_match(b, a).pairs)
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

    def test_every_mask_is_checked_before_the_first_chain(self, rng, monkeypatch):
        monkeypatch.setattr(evaluate, "run_chain", lambda *a, **k: pytest.fail("a chain ran before the check"))
        data = CountMatrix.from_dense(rng.poisson(2.0, size=(6, 4)))
        good = ObservationMask([(0, 0), (5, 3)], 6, 4)
        for masks, message in (
            ([ObservationMask.none_held_out(6, 4), good], "fold 0's mask holds nothing out"),
            ([good, good, ObservationMask([(0, 0)], 4, 6)], "fold 2's mask is 4x6, the data 6x4"),
        ):
            with pytest.raises(DomainError, match=f"^{message}"):
                evaluate_folds(data, masks, ChainConfig(hyper=tiny_hyper()), top_m=2, qq_draws=2)

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
