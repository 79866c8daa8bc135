"""Generative samplers: buffet processes, truncated atom weights, exposure mass."""

import hashlib
import logging
import math
from math import lgamma

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad
from scipy.special import expit, logit

from s3ribp import (
    BinaryFeatureMatrix,
    DomainError,
    HyperParams,
    PI_CEILING,
    atom_log_prior,
    levy_exposure_mass,
    new_dish_rate,
    sample_3p_ibp,
    sample_3r_ibp,
    sample_ibp,
    sample_pi_truncated,
)
from s3ribp.priors import _envelope, _propose
from conftest import deadline


def harmonic(n):
    return sum(1.0 / i for i in range(1, n + 1))


def two_sample_chisq(counts_a, counts_b):
    """Homogeneity chi-square over shared bins, merging thin bins into one tail."""
    width = max(len(counts_a), len(counts_b))
    a = np.zeros(width)
    b = np.zeros(width)
    a[: len(counts_a)] = counts_a
    b[: len(counts_b)] = counts_b
    pooled = a + b
    # merge from the right until every kept bin has a healthy pooled count
    keep = np.flatnonzero(np.cumsum(pooled[::-1])[::-1] >= 10)
    cut = keep[-1] if keep.size else 0
    a = np.append(a[:cut], a[cut:].sum())
    b = np.append(b[:cut], b[cut:].sum())
    pooled = a + b
    mask = pooled > 0
    a, b, pooled = a[mask], b[mask], pooled[mask]
    tot_a, tot_b = a.sum(), b.sum()
    grand = tot_a + tot_b
    stat = 0.0
    for obs, tot in ((a, tot_a), (b, tot_b)):
        exp = pooled * tot / grand
        stat += ((obs - exp) ** 2 / exp).sum()
    dof = mask.sum() - 1
    return stats.chi2.sf(stat, dof)


def poisson_chisq(draws, mean):
    """Goodness-of-fit chi-square p-value of integer draws against
    Poisson(mean), each thin tail pooled into one cell holding an expected
    count of at least 5."""
    n = draws.shape[0]
    ks = np.arange(int(draws.max()) + int(mean) + 50)
    lo = ks[np.argmax(n * stats.poisson.cdf(ks, mean) >= 5)]
    hi = ks[np.flatnonzero(n * stats.poisson.sf(ks - 1, mean) >= 5)[-1]]
    # cells: {0..lo}, lo + 1, ..., hi - 1, {hi, hi + 1, ...}
    probs = np.diff(np.concatenate([[0.0], stats.poisson.cdf(np.arange(lo, hi), mean), [1.0]]))
    observed = np.bincount(np.clip(draws, lo, hi) - lo, minlength=hi - lo + 1)
    return stats.chisquare(observed, n * probs).pvalue


def _cumulative_trapezoid(f, t):
    return np.concatenate([[0.0], np.cumsum((f[1:] + f[:-1]) * 0.5 * np.diff(t))])


# Below this v = log(1 - p), p rounds to 1, so the density in v is
# exp(v (c + sigma)) and its integral up to v is exp(v (c + sigma)) / (c + sigma).
_ORACLE_V_MIN = -60.0


def restricted_density_cdf(c, sigma, eps):
    """Independent oracle CDF of the normalized density p^(-1-sigma) (1-p)^(c+sigma-1)
    on [eps, 1), normalised over the whole of [eps, 1).  Trapezoids on fine
    grids where each integrand is bounded: in u = log p up to m = max(eps, 1/2),
    and above m in v = log(1 - p), down to ``_ORACLE_V_MIN`` and in closed form
    below it.  At a small c + sigma most of the mass lies within 1e-15 of 1."""
    m, a = max(eps, 0.5), c + sigma
    u = np.linspace(math.log(eps), math.log(m), 100_000)
    p = np.exp(u)
    lower = _cumulative_trapezoid(p**-sigma * (1.0 - p) ** (a - 1.0), u)
    # tail[i]: the mass of p in [1 - exp(v[i]), 1)
    v = np.linspace(_ORACLE_V_MIN, math.log1p(-m), 100_000)
    tail = math.exp(_ORACLE_V_MIN * a) / a + _cumulative_trapezoid((-np.expm1(v)) ** (-1.0 - sigma) * np.exp(v * a), v)
    total = lower[-1] + tail[-1]

    def cdf(x):
        x = np.clip(np.asarray(x, dtype=np.float64), eps, 1.0)
        with np.errstate(divide="ignore"):
            w = np.log1p(-x)
        above = np.where(w < v[0], np.exp(w * a) / a, np.interp(w, v, tail))
        return np.where(x < m, np.interp(np.log(x), u, lower), total - above) / total

    return cdf


class TestBinaryFeatureMatrix:
    def test_holds_an_int8_copy(self):
        z = np.array([[1, 0], [1, 1], [0, 1]])
        fm = BinaryFeatureMatrix(z)
        assert fm.z.dtype == np.int8
        np.testing.assert_array_equal(fm.z, z)

    def test_rejects_empty_column(self):
        with pytest.raises(DomainError):
            BinaryFeatureMatrix(np.array([[1, 0], [1, 0]]))

    def test_rejects_non_binary(self):
        with pytest.raises(DomainError):
            BinaryFeatureMatrix(np.array([[2, 1]]))

    def test_zero_feature_matrix_is_fine(self):
        fm = BinaryFeatureMatrix(np.zeros((4, 0), dtype=np.int8))
        assert fm.z.shape == (4, 0)


def _restricted_hp(**kw):
    return HyperParams(**{**dict(k_max=8, c=1.0, sigma=0.25, nb_r=1.0, nb_p=0.5, eps_trunc=1e-4), **kw})


# the sha256 of each sampler's z at seed 7, so a refactor of the buffet loop
# or the weight-law checks that changes one draw shows here
FIXED_SEED_DRAWS = {
    "ibp": (
        lambda rng: sample_ibp(2.5, 40, rng),
        (40, 12),
        "67312bfc7798a2112331407cc2993acfcd0386528a008cda0e2e0bd0ae045fe2",
    ),
    "3p": (
        lambda rng: sample_3p_ibp(2.5, 1.5, 0.4, 40, rng),
        (40, 31),
        "4066be1534b163d8a887512fb7de7af962f3e9051d8b19fe9a44536e954e3e76",
    ),
    "3r": (
        lambda rng: sample_3r_ibp(_restricted_hp(), 40, rng),
        (40, 8),
        "580daaa18e5c878da77de8e72d5f1d6648f90faef9837ce213335a4f74abce08",
    ),
    # c + sigma < 1 at sigma = 0: the two-piece envelope with the log-uniform below 1/2
    "3r-sigma-zero": (
        lambda rng: sample_3r_ibp(_restricted_hp(sigma=0.0, c=0.5), 40, rng),
        (40, 8),
        "553d424ca375c702f6f9c31108d39c3d5c1c103e8e140545e3895faf9e5c572a",
    ),
}


@pytest.mark.parametrize("name", FIXED_SEED_DRAWS)
def test_fixed_seed_draws_are_pinned(name):
    draw, shape, digest = FIXED_SEED_DRAWS[name]
    z = draw(np.random.default_rng(7)).z
    assert z.shape == shape
    assert hashlib.sha256(np.ascontiguousarray(z).tobytes()).hexdigest() == digest


class TestSampleIBP:
    def test_moments(self, rng):
        n_rows, alpha, draws = 20, 2.0, 3000
        row_means = np.empty(draws)
        k_plus = np.empty(draws)
        for i in range(draws):
            fm = sample_ibp(alpha, n_rows, rng)
            row_means[i] = fm.z.sum(axis=1).mean()
            k_plus[i] = fm.z.shape[1]
        se_rows = row_means.std(ddof=1) / np.sqrt(draws)
        se_k = k_plus.std(ddof=1) / np.sqrt(draws)
        assert abs(row_means.mean() - alpha) < 3 * se_rows
        assert abs(k_plus.mean() - alpha * harmonic(n_rows)) < 3 * se_k

    def test_first_row_is_poisson_alpha(self, rng):
        draws = np.array([sample_ibp(3.0, 1, rng).z.shape[1] for _ in range(4000)])
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - 3.0) < 3 * se

    def test_validation(self, rng):
        with pytest.raises(DomainError):
            sample_ibp(0.0, 5, rng)
        with pytest.raises(DomainError):
            sample_ibp(1.0, 0, rng)


class TestNewDishRate:
    def test_classic_special_case(self):
        for n in range(1, 6):
            np.testing.assert_allclose(new_dish_rate(2.0, 1.0, 0.0, n), 2.0 / n, rtol=1e-12)

    def test_first_row_rate_is_alpha(self):
        for c, sigma in ((3.7, 0.6), (0.5, 0.25), (10.0, 0.0)):
            np.testing.assert_allclose(new_dish_rate(1.3, c, sigma, 1), 1.3, rtol=1e-12)

    def test_power_law_decay(self):
        # for large n the rate falls like n^(sigma - 1)
        sigma = 0.4
        ratio = new_dish_rate(1.0, 2.0, sigma, 1000) / new_dish_rate(1.0, 2.0, sigma, 500)
        np.testing.assert_allclose(ratio, 2.0 ** (sigma - 1.0), rtol=1e-2)

    def test_matches_lgamma_formula(self):
        alpha, c, sigma, n = 0.9, 2.5, 0.3, 7
        want = alpha * np.exp(
            lgamma(1 + c) + lgamma(n - 1 + c + sigma) - lgamma(n + c) - lgamma(c + sigma)
        )
        np.testing.assert_allclose(new_dish_rate(alpha, c, sigma, n), want, rtol=1e-12)


class TestSample3PIBP:
    def test_reduces_to_classic_process(self, rng):
        # at c = 1, sigma = 0, K+ has the classic process's law Poisson(alpha H_N)
        draws = 4000
        n_rows = 10
        alpha = 1.5
        k_3p = np.array(
            [sample_3p_ibp(alpha, 1.0, 0.0, n_rows, rng).z.shape[1] for _ in range(draws)]
        )
        p = poisson_chisq(k_3p, alpha * harmonic(n_rows))
        assert p > 0.01

    def test_power_law_enriches_singletons(self, rng):
        def singleton_fraction(sigma):
            frac = []
            for _ in range(600):
                fm = sample_3p_ibp(2.0, 1.0, sigma, 30, rng)
                if fm.z.shape[1]:
                    frac.append((fm.z.sum(axis=0) == 1).mean())
            return np.mean(frac)

        assert singleton_fraction(0.7) > singleton_fraction(0.0) + 0.1

    def test_validation(self, rng):
        with pytest.raises(DomainError):
            sample_3p_ibp(1.0, 1.0, 1.0, 5, rng)
        with pytest.raises(DomainError):
            sample_3p_ibp(1.0, -0.5, 0.3, 5, rng)
        with pytest.raises(DomainError):
            sample_3p_ibp(-1.0, 1.0, 0.0, 5, rng)
        with pytest.raises(DomainError):
            sample_3p_ibp(1.0, 1.0, 0.0, 0, rng)


class TestAtomLogPrior:
    def test_power_law_branch(self):
        p, c, sigma = 0.2, 2.0, 0.4
        want = (-1 - sigma) * np.log(p) + (c + sigma - 1) * np.log1p(-p)
        np.testing.assert_allclose(atom_log_prior(p, c, sigma), want, rtol=1e-12)

    def test_sigma_zero_is_the_same_law(self):
        # the weight measure's density at sigma = 0: p^-1 (1-p)^(c-1)
        p, c = 0.3, 3.0
        want = -np.log(p) + (c - 1) * np.log1p(-p)
        np.testing.assert_allclose(atom_log_prior(p, c, 0.0), want, rtol=1e-12)


class TestSamplePiTruncated:
    def test_support_and_order(self, rng):
        for c, sigma in ((2.0, 0.0), (1.0, 0.5), (0.2, 0.3)):
            draws = sample_pi_truncated(c, sigma, 50, 0.01, rng)
            assert draws.shape == (50,)
            assert np.all(draws >= 0.01) and np.all(draws <= PI_CEILING)
            assert np.all(np.diff(draws) <= 0)

    @pytest.mark.parametrize("c, eps", [(2.0, 0.01), (0.3, 1e-4)])
    def test_sigma_zero_distribution(self, rng, c, eps):
        # sigma = 0 runs the same rejection loop: the power-law piece is the
        # log-uniform, reached through _MIN_POWER_LAW_EXPONENT
        draws = sample_pi_truncated(c, 0.0, 3000, eps, rng)
        assert stats.kstest(draws, restricted_density_cdf(c, 0.0, eps)).pvalue > 0.01

    @pytest.mark.parametrize("c, eps", [(1.0, 1e-4), (0.2, 0.01), (5.0, 1e-4)])
    def test_sigma_zero_is_the_limit_of_small_sigma(self, c, eps):
        # one law at every sigma: sigma = 0 and sigma = 1e-12 draw alike
        at_zero = sample_pi_truncated(c, 0.0, 4000, eps, np.random.default_rng(1))
        near_zero = sample_pi_truncated(c, 1e-12, 4000, eps, np.random.default_rng(2))
        assert stats.ks_2samp(at_zero, near_zero).pvalue > 0.01

    def test_rejection_branch_distribution(self, rng):
        c, sigma, eps = 1.0, 0.5, 0.01
        draws = sample_pi_truncated(c, sigma, 3000, eps, rng)
        assert stats.kstest(draws, restricted_density_cdf(c, sigma, eps)).pvalue > 0.01

    @pytest.mark.parametrize("c, sigma, eps", [(30.27, 0.19, 0.398), (8.9, 0.74, 0.94), (30.0, 0.5, 0.1)])
    def test_tail_proposal_distribution(self, rng, c, sigma, eps):
        # a large c with a floor far from zero: the tail proposal's envelope
        # is the tighter one, and the power law alone would accept ~1e-8
        assert _envelope(c, sigma, eps)[:2] == (eps, 0.0)
        draws = sample_pi_truncated(c, sigma, 3000, eps, rng)
        assert stats.kstest(draws, restricted_density_cdf(c, sigma, eps)).pvalue > 0.01

    @pytest.mark.parametrize("c, sigma, eps", [(2.08, 5.8e-127, 2.4e-9), (2.0, 5e-324, 0.9)])
    def test_tiny_sigma_distribution(self, rng, c, sigma, eps):
        # eps^-sigma rounds to 1: the power law (first case) and the tail
        # proposal (second) still draw the power-law density's sigma -> 0 limit
        with deadline(20):
            draws = sample_pi_truncated(c, sigma, 3000, eps, rng)
        assert stats.kstest(draws, restricted_density_cdf(c, sigma, eps)).pvalue > 0.01

    @pytest.mark.parametrize(
        "c, sigma, eps, pieces",
        [(0.3, 0.2, 0.6, "tail"), (0.6, 0.1, 0.5, "tail"), (0.5, 1e-9, 1e-3, "two"), (0.6, 1e-200, 1e-6, "two")],
    )
    def test_split_envelope_distribution(self, rng, c, sigma, eps, pieces):
        # c + sigma < 1: a floor at or above 1/2 leaves only the tail piece,
        # a lower one splits at 1/2; the last two at a tiny sigma
        m, w, _ = _envelope(c, sigma, eps)
        assert (m, w == 0.0) == ((eps, True) if pieces == "tail" else (0.5, False))
        with deadline(20):
            draws = sample_pi_truncated(c, sigma, 3000, eps, rng)
        assert stats.kstest(draws, restricted_density_cdf(c, sigma, eps)).pvalue > 0.01

    @settings(max_examples=40, deadline=None)
    @given(
        c_plus_sigma=st.floats(1e-6, 1.0, exclude_max=True),
        sigma=st.floats(1e-300, 0.999),
        eps=st.floats(1e-12, 0.999),
    )
    def test_split_envelope_acceptance(self, c_plus_sigma, sigma, eps):
        # below c + sigma = 1 each piece accepts w.p. at least 1/4; a mean of
        # 4,000 proposals under 0.2 is 8 standard errors below that
        c = c_plus_sigma - sigma
        with deadline(20):
            _, accept = _propose(np.random.default_rng(0).random(4000), c, sigma, eps)
        assert np.all(accept <= 1.0 + 1e-12)
        assert accept.mean() >= 0.2

    def test_mass_at_the_ceiling(self, rng):
        # at c + sigma = 0.01 about two thirds of the law lies above
        # PI_CEILING, where the sampler clips it: the share of draws there
        # against the oracle's mass above it, and the draws below against
        # the oracle's CDF conditional on lying below
        c, sigma, eps, n = 0.01, 1e-9, 1e-4, 20_000
        cdf = restricted_density_cdf(c, sigma, eps)
        draws = sample_pi_truncated(c, sigma, n, eps, rng)
        at_ceiling = draws == PI_CEILING
        below = float(cdf(PI_CEILING))
        assert stats.binomtest(int(at_ceiling.sum()), n, 1.0 - below).pvalue > 0.01
        assert stats.kstest(draws[~at_ceiling], lambda x: cdf(x) / below).pvalue > 0.01

    def test_grid_branch_distribution(self, rng):
        c, sigma, eps = 0.2, 0.3, 0.01
        draws = sample_pi_truncated(c, sigma, 3000, eps, rng)
        assert stats.kstest(draws, restricted_density_cdf(c, sigma, eps)).pvalue > 0.01

    def test_validation(self, rng):
        with pytest.raises(DomainError):
            sample_pi_truncated(-0.5, 0.3, 5, 0.01, rng)
        with pytest.raises(DomainError):
            sample_pi_truncated(1.0, -0.1, 5, 0.01, rng)
        with pytest.raises(DomainError):
            sample_pi_truncated(1.0, 0.0, 0, 0.01, rng)
        with pytest.raises(DomainError):
            sample_pi_truncated(1.0, 0.0, 5, 1.5, rng)

    def test_floor_above_the_ceiling_is_refused(self, rng):
        # the weights live on [eps_trunc, PI_CEILING], which is empty here:
        # the sampler would clip every draw to PI_CEILING, below the floor
        eps = 1 - 5e-16
        assert PI_CEILING < eps < 1.0
        with pytest.raises(DomainError, match="^eps_trunc must lie in"):
            HyperParams(c=1.0, sigma=0.25, eps_trunc=eps)
        with pytest.raises(DomainError, match="^eps_trunc must lie in"):
            sample_pi_truncated(1.0, 0.25, 5, eps, rng)
        np.testing.assert_array_equal(sample_pi_truncated(1.0, 0.25, 5, PI_CEILING, rng), PI_CEILING)


class TestSample3RIBP:
    def hp(self, **kw):
        return _restricted_hp(**kw)

    def test_shapes_and_invariants(self, rng):
        fm = sample_3r_ibp(self.hp(), 40, rng)
        assert isinstance(fm, BinaryFeatureMatrix)
        assert fm.z.shape[0] == 40
        assert fm.z.shape[1] <= 8
        assert np.all(fm.z.sum(axis=1) <= 8)
        assert np.all(fm.z.sum(axis=0) >= 1)

    def test_row_sums_follow_clamped_negative_binomial(self, rng):
        hp = self.hp(k_max=30, nb_r=2.0, nb_p=0.4)
        sums = np.concatenate([sample_3r_ibp(hp, 50, rng).z.sum(axis=1) for _ in range(80)])
        want = 50 * 80 * np.exp(
            np.array(
                [
                    stats.nbinom.logpmf(s, hp.nb_r, hp.nb_p)
                    for s in range(int(sums.max()) + 1)
                ]
            )
        )
        counts = np.bincount(sums)
        # clamping never bites here (P(sum > 30) ~ 1e-11), so the raw pmf applies
        p = two_sample_chisq(counts, want.astype(np.int64))
        assert p > 0.01

    def test_clamping_warns(self, rng, caplog):
        hp = self.hp(k_max=2, nb_r=6.0, nb_p=0.2)
        with caplog.at_level(logging.WARNING):
            fm = sample_3r_ibp(hp, 30, rng)
        assert np.all(fm.z.sum(axis=1) <= 2)
        assert any("clamped" in rec.message for rec in caplog.records)

    def test_deterministic_given_seed(self):
        a = sample_3r_ibp(self.hp(), 25, np.random.default_rng(11))
        b = sample_3r_ibp(self.hp(), 25, np.random.default_rng(11))
        np.testing.assert_array_equal(a.z, b.z)

    def test_needs_rows(self, rng):
        with pytest.raises(DomainError):
            sample_3r_ibp(self.hp(), 0, rng)


class TestLevyExposureMass:
    def test_classic_case_is_log_inverse_eps(self):
        np.testing.assert_allclose(levy_exposure_mass(float(np.exp(-2.0)), 1.0, 0.0), 2.0, rtol=1e-9)
        np.testing.assert_allclose(levy_exposure_mass(0.1, 1.0, 0.0), np.log(10.0), rtol=1e-9)

    def test_matches_grid_quadrature(self):
        for c, sigma in ((2.5, 0.4), (0.3, 0.2), (5.0, 0.0)):
            eps = 0.01
            const = np.exp(lgamma(1 + c) - lgamma(1 - sigma) - lgamma(c + sigma))
            u = np.linspace(logit(eps), logit(1.0 - 1e-12), 400_000)
            p = expit(u)
            dens = const * p**-sigma * (1.0 - p) ** (c + sigma)
            want = np.trapezoid(dens, u)
            np.testing.assert_allclose(levy_exposure_mass(eps, c, sigma), want, rtol=1e-5)

    @settings(max_examples=60, deadline=None)
    @given(
        c=st.floats(0.01, 500.0),
        sigma=st.floats(0.0, 0.999),
        eps=st.floats(1e-12, 1e-2),
    )
    def test_converges_over_the_accepted_box(self, c, sigma, eps):
        # oracle: split at p = 1/2; the lower part in log p, the upper part
        # by a rule that weights the (1 - p)^(c + sigma - 1) endpoint
        # singularity exactly
        const = math.exp(lgamma(1 + c) - lgamma(1 - sigma) - lgamma(c + sigma))
        expo = c + sigma - 1.0
        low, _ = quad(
            lambda u: math.exp(-sigma * u) * (-math.expm1(u)) ** expo,
            math.log(eps),
            math.log(0.5),
            epsabs=0.0,
            epsrel=1e-12,
            limit=200,
        )
        high, _ = quad(lambda p: p ** (-1.0 - sigma), 0.5, 1.0, weight="alg", wvar=(0.0, expo), epsabs=0.0, epsrel=1e-12)
        got = levy_exposure_mass(eps, c, sigma)
        assert np.isfinite(got) and got > 0
        np.testing.assert_allclose(got, const * (low + high), rtol=1e-8)

    def test_grows_as_eps_shrinks(self):
        assert levy_exposure_mass(1e-6, 1.0, 0.5) > levy_exposure_mass(1e-3, 1.0, 0.5)

    def test_validation(self):
        with pytest.raises(DomainError):
            levy_exposure_mass(0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            levy_exposure_mass(0.01, 1.0, 1.0)
        with pytest.raises(DomainError):
            levy_exposure_mass(0.01, -0.5, 0.3)
