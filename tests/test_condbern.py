"""The kernel's ESP tables and conditional-Bernoulli sampler against brute-force enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from s3ribp import ChainConfig, ChainRunner, DomainError, log_odds, sample_row_given_sum
from s3ribp.condbern import _log_esp_from_logw, _suffix_log_esp
from s3ribp.mcmc import _log_convolve
from conftest import brute_force_inclusion, brute_force_row_log_prior, brute_force_sum_probs, enumerate_rows
from test_mcmc import tiny_data, tiny_hyper


def random_pi(rng, k, lo=0.02, hi=0.95):
    return rng.uniform(lo, hi, size=k)


def log_f_from_probs(f):
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(f, dtype=np.float64))


def kernel_inclusion_probs(pi, s):
    """P(z_k = 1 | sum z = s) = w_k e_{s-1}(w_{-k}) / e_s(w), read off the
    tables the kernel builds: e(w_{-k}) is the atoms before k, by the plain
    recursion padded with -inf, convolved with row k + 1 of the suffix
    table, as the pi sweep reads it; e(w) is the plain recursion."""
    logw = log_odds(pi)
    k = logw.shape[0]
    out = np.zeros(k)
    if s == 0:
        return out
    log_e = _log_esp_from_logw(logw)
    suffix = _suffix_log_esp(logw, k)
    for j in range(k):
        prefix = np.append(_log_esp_from_logw(logw[:j]), np.full(k - j, -np.inf))
        others = _log_convolve(prefix, suffix[j + 1])
        out[j] = np.exp(logw[j] + others[s - 1] - log_e[s])
    return out


def kernel_row_log_prior(rows, pi, log_f):
    """log f(|z|) + z . log w - log e_|z|(w) for each row z of ``rows``: the
    restricted row prior whose ratios the Z sweep takes, with log e from the
    kernel's recursion."""
    logw = log_odds(pi)
    s = rows.sum(axis=1)
    return log_f[s] + rows @ logw - _log_esp_from_logw(logw)[s]


class TestLogESP:
    def test_small_vector_by_hand(self):
        # e_0..e_3 of (1, 2, 3) are 1, 6, 11, 6
        log_e = _log_esp_from_logw(np.log([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(np.exp(log_e), [1.0, 6.0, 11.0, 6.0], rtol=1e-12)

    def test_zero_odds_do_not_contribute(self):
        with np.errstate(divide="ignore"):
            log_e = _log_esp_from_logw(np.log([1.0, 0.0, 2.0]))
        np.testing.assert_allclose(np.exp(log_e), [1.0, 3.0, 2.0, 0.0], atol=1e-300)

    def test_empty_vector(self):
        np.testing.assert_allclose(_log_esp_from_logw(np.array([])), [0.0])

    @given(
        st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=1, max_size=8),
        st.floats(min_value=0.01, max_value=50.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_recurrence_property(self, w_list, extra):
        # e_s(w + {v}) = e_s(w) + v * e_{s-1}(w)
        w = np.array(w_list)
        base = np.exp(_log_esp_from_logw(np.log(w)))
        grown = np.exp(_log_esp_from_logw(np.log(np.append(w, extra))))
        expected = np.append(base, 0.0) + extra * np.append([0.0], base)
        np.testing.assert_allclose(grown, expected, rtol=1e-9)


class TestLogOdds:
    def test_values(self):
        np.testing.assert_allclose(log_odds(np.array([0.5, 0.25])), [0.0, np.log(1 / 3)])

    def test_rejects_boundary(self):
        for bad in ([0.0, 0.5], [0.5, 1.0], [-0.1]):
            with pytest.raises(DomainError):
                log_odds(np.array(bad))


class TestPoissonBinomial:
    def test_matches_enumeration(self, rng):
        # P(sum = s) = e_s(w) prod_k (1 - pi_k)
        for k in (1, 2, 5, 9):
            pi = random_pi(rng, k)
            exact = brute_force_sum_probs(pi)
            got = np.exp(_log_esp_from_logw(log_odds(pi)) + np.log1p(-pi).sum())
            np.testing.assert_allclose(got, exact, rtol=1e-10)


class TestInclusionProbs:
    def test_two_feature_hand_value(self):
        # pi = (0.2, 0.6): w = (0.25, 1.5); P(z_0=1 | s=1) = 0.25/1.75 = 1/7
        got = kernel_inclusion_probs(np.array([0.2, 0.6]), 1)
        np.testing.assert_allclose(got, [1 / 7, 6 / 7], rtol=1e-12)

    def test_edge_sums(self):
        pi = np.array([0.3, 0.7, 0.2])
        np.testing.assert_allclose(kernel_inclusion_probs(pi, 0), np.zeros(3))
        np.testing.assert_allclose(kernel_inclusion_probs(pi, 3), np.ones(3), rtol=1e-12)

    def test_matches_enumeration_randomized(self, rng):
        for _ in range(25):
            k = int(rng.integers(2, 10))
            s = int(rng.integers(0, k + 1))
            pi = random_pi(rng, k, lo=0.01, hi=0.99)
            got = kernel_inclusion_probs(pi, s)
            np.testing.assert_allclose(got, brute_force_inclusion(pi, s), atol=1e-10)

    def test_extreme_weight_spread(self):
        # weights spanning many orders of magnitude stay finite and exact
        pi = np.array([1e-12, 0.5, 1 - 1e-12])
        got = kernel_inclusion_probs(pi, 1)
        np.testing.assert_allclose(got, brute_force_inclusion(pi, 1), atol=1e-10)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=8),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_sums_to_target(self, pi_list, data):
        pi = np.array(pi_list)
        s = data.draw(st.integers(min_value=0, max_value=pi.shape[0]))
        np.testing.assert_allclose(kernel_inclusion_probs(pi, s).sum(), s, atol=1e-9)


class TestSampleRowGivenSum:
    def test_sum_always_exact(self, rng):
        for _ in range(200):
            k = int(rng.integers(1, 9))
            s = int(rng.integers(0, k + 1))
            pi = random_pi(rng, k, lo=0.01, hi=0.99)
            z = sample_row_given_sum(pi, s, rng)
            assert z.sum() == s
            assert z.shape == (k,)
            assert set(np.unique(z)) <= {0, 1}

    def test_distribution_chi_square(self, rng):
        pi = np.array([0.15, 0.5, 0.8, 0.4])
        s = 2
        rows = enumerate_rows(4)
        keep = rows.sum(axis=1) == s
        support = rows[keep]
        probs = np.prod(np.where(support == 1, pi, 1.0 - pi), axis=1)
        probs /= probs.sum()
        support_codes = support @ (1 << np.arange(4))
        # one row per call, and 20,000 rows from one call with a vector of
        # sums, mixed with rows of other sums that must not disturb them
        single = np.array([sample_row_given_sum(pi, s, rng) for _ in range(20000)])
        sums = rng.permutation(np.repeat([s, 0, 1, 3, 4], [20000, 500, 500, 500, 500]))
        vector = sample_row_given_sum(pi, sums, rng)
        assert vector.shape == (sums.shape[0], 4) and vector.dtype == np.int8
        np.testing.assert_array_equal(vector.sum(axis=1), sums)
        for draws in (single, vector[sums == s]):
            codes = draws @ (1 << np.arange(4))
            counts = np.array([(codes == c).sum() for c in support_codes])
            assert counts.sum() == 20000
            chi2 = stats.chisquare(counts, probs * 20000)
            assert chi2.pvalue > 0.01

    def test_out_of_range(self, rng):
        with pytest.raises(DomainError):
            sample_row_given_sum(np.array([0.5]), 2, rng)
        with pytest.raises(DomainError):
            sample_row_given_sum(np.array([0.5, 0.5]), np.array([1, 3]), rng)
        with pytest.raises(DomainError):
            sample_row_given_sum(np.array([0.5, 0.5]), np.array([-1, 0]), rng)


class TestRestrictedRowLogPrior:
    def test_normalizes_over_rows(self, rng):
        for _ in range(10):
            k = int(rng.integers(1, 8))
            pi = random_pi(rng, k, lo=0.01, hi=0.99)
            log_f = log_f_from_probs(rng.dirichlet(np.ones(k + 1)))
            total = np.exp(kernel_row_log_prior(enumerate_rows(k), pi, log_f)).sum()
            np.testing.assert_allclose(total, 1.0, atol=1e-10)

    def test_matches_direct_formula(self):
        pi = np.array([0.3, 0.6, 0.1])
        f = np.array([0.1, 0.5, 0.3, 0.1])
        z = np.array([[1, 0, 1]], dtype=np.int8)
        # f(s) times the conditional-Bernoulli probability of this subset
        joint = np.prod(np.where(z[0] == 1, pi, 1 - pi))
        expected = np.log(f[2]) + np.log(joint / brute_force_sum_probs(pi)[2])
        got = kernel_row_log_prior(z, pi, np.log(f))
        np.testing.assert_allclose(got, [expected], rtol=1e-12)
        np.testing.assert_allclose(brute_force_row_log_prior(z[0], pi, np.log(f)), expected, rtol=1e-12)

    def test_reuses_esp_table(self, rng):
        # the Z sweep reads one cached table; after every stage it is the
        # recursion over the current logits
        runner = ChainRunner(tiny_data(rng), None, ChainConfig(hyper=tiny_hyper()))
        for _ in range(5):
            runner.step_once()
            np.testing.assert_array_equal(runner._log_e, _log_esp_from_logw(runner._logw))


def conditional_logodds(z_row, k, pi, log_f):
    """Full-conditional log odds of z_k = 1 given the rest of the row, as a
    ratio of brute-force restricted row priors."""
    z1, z0 = z_row.copy(), z_row.copy()
    z1[k], z0[k] = 1, 0
    return brute_force_row_log_prior(z1, pi, log_f) - brute_force_row_log_prior(z0, pi, log_f)


class TestKernelInvariance:
    def test_single_sweep_preserves_row_prior(self, rng):
        # start rows at exact draws from the restricted prior (one vector
        # call), apply one systematic Gibbs sweep of entry updates, and check
        # the resulting state histogram still matches the prior by chi-square
        pi = np.array([0.35, 0.6, 0.15])
        f = np.array([0.2, 0.4, 0.3, 0.1])
        log_f = log_f_from_probs(f)
        rows = enumerate_rows(3)
        prior = np.exp([brute_force_row_log_prior(z, pi, log_f) for z in rows])
        n_chains = 20000
        sums = rng.choice(4, size=n_chains, p=f)
        states = sample_row_given_sum(pi, sums, rng)
        for k in range(3):
            lo = np.array([conditional_logodds(z, k, pi, log_f) for z in states])
            p_on = 1.0 / (1.0 + np.exp(-lo))
            states[:, k] = (rng.random(n_chains) < p_on).astype(np.int8)
        codes = states @ (1 << np.arange(3))
        counts = np.bincount(codes, minlength=8)
        chi2 = stats.chisquare(counts, prior * n_chains)
        assert chi2.pvalue > 0.01
