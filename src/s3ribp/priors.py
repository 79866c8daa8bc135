"""Generative samplers for the feature-allocation prior family.

Three nested processes over binary feature matrices:

* the classic buffet process (rows take existing dishes in proportion to
  their popularity and open Poisson(alpha/n) new ones);
* its three-parameter power-law extension with concentration c and index
  sigma, which recovers the classic process at c = 1, sigma = 0;
* the restricted variant, which keeps the power-law weight measure but
  forces per-row feature counts to follow an arbitrary pmf (here a clamped
  negative binomial), sampled through the conditional Bernoulli law.

The restricted variant works on a fixed truncation: k_max atom weights are
drawn i.i.d. from the weight measure's normalized density restricted to
[eps_trunc, 1).  The exposure mass of that restriction (the expected number
of atoms above the floor per unit of alpha) is also computed here; the MCMC
alpha update consumes it.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import lgamma

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import betainc, betaincinv

from .errors import DomainError, NumericsError
from .model import PI_CEILING, negbin_row_sum_log_pmf
from .condbern import sample_row_given_sum

__all__ = [
    "BinaryFeatureMatrix",
    "sample_ibp",
    "sample_3p_ibp",
    "sample_pi_truncated",
    "sample_3r_ibp",
    "atom_log_prior",
    "levy_exposure_mass",
    "new_dish_rate",
]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BinaryFeatureMatrix:
    """Binary matrix in dish-creation order with per-column taker counts.

    No column is all-zero: a feature exists only if somebody uses it.
    """

    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=np.int8)
        object.__setattr__(self, "z", z)
        if z.ndim != 2:
            raise DomainError("feature matrix must be 2-d")
        if z.size and not np.isin(z, (0, 1)).all():
            raise DomainError("feature matrix must be binary")
        if z.shape[1] and np.any(z.sum(axis=0) == 0):
            raise DomainError("feature matrix must not contain all-zero columns")

    @property
    def m(self):
        """Per-feature taker counts."""
        return self.z.sum(axis=0, dtype=np.int64)

    @property
    def n_rows(self):
        return self.z.shape[0]

    @property
    def n_features(self):
        return self.z.shape[1]

    def row_sums(self):
        return self.z.sum(axis=1, dtype=np.int64)


def _check_weight_law(alpha, c, sigma):
    """The (alpha, c, sigma) every member of the family needs: alpha > 0,
    sigma in [0, 1), c > -sigma."""
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if not 0.0 <= sigma < 1.0:
        raise DomainError(f"sigma must lie in [0, 1), got {sigma}")
    if not c > -sigma:
        raise DomainError(f"c must exceed -sigma, got c={c}, sigma={sigma}")


def _buffet(n_rows, rng, take_prob, new_rate):
    """Row n takes each existing dish k w.p. take_prob(m, n), m the taker
    counts, then opens Poisson(new_rate(n)) new dishes."""
    if n_rows < 1:
        raise DomainError("need at least one row")
    m = np.zeros(0, dtype=np.int64)
    rows = []
    for n in range(1, n_rows + 1):
        k = m.shape[0]
        take = np.flatnonzero(rng.random(k) < take_prob(m, n))
        new = int(rng.poisson(new_rate(n)))
        m[take] += 1
        m = np.concatenate([m, np.ones(new, dtype=np.int64)])
        rows.append(np.concatenate([take, np.arange(k, k + new)]))
    z = np.zeros((n_rows, m.shape[0]), dtype=np.int8)
    for i, idx in enumerate(rows):
        z[i, idx] = 1
    return BinaryFeatureMatrix(z)


def sample_ibp(alpha, n_rows, rng):
    """Culinary-process draw: row n takes dish k w.p. m_k/n, then opens
    Poisson(alpha/n) new dishes."""
    _check_weight_law(alpha, 1.0, 0.0)
    return _buffet(n_rows, rng, lambda m, n: m / n, lambda n: alpha / n)


def new_dish_rate(alpha, c, sigma, n):
    """Poisson rate of fresh dishes for row n of the three-parameter process:
    alpha G(1+c) G(n-1+c+sigma) / (G(n+c) G(c+sigma))."""
    return alpha * np.exp(lgamma(1.0 + c) + lgamma(n - 1.0 + c + sigma) - lgamma(n + c) - lgamma(c + sigma))


def sample_3p_ibp(alpha, c, sigma, n_rows, rng):
    """Three-parameter buffet draw with power-law feature sizes.

    Row n takes an existing dish w.p. (m_k - sigma)/(n - 1 + c) and opens
    Poisson(new_dish_rate) fresh ones.  c = 1, sigma = 0 recovers the
    classic process exactly.
    """
    _check_weight_law(alpha, c, sigma)
    return _buffet(
        n_rows, rng, lambda m, n: (m - sigma) / (n - 1.0 + c), lambda n: new_dish_rate(alpha, c, sigma, n)
    )


def atom_log_prior(p, alpha, c, sigma, k_max):
    """Unnormalized log density of one truncated atom weight on [eps, 1).

    sigma > 0: the restricted power-law measure p^(-1-sigma) (1-p)^(c+sigma-1);
    sigma = 0: the finite-model marginal Beta(alpha c / k_max, c).
    Support restriction is the caller's job; the normalizer cancels in MH.
    """
    if sigma > 0.0:
        return (-1.0 - sigma) * np.log(p) + (c + sigma - 1.0) * np.log1p(-p)
    a = alpha * c / k_max
    return (a - 1.0) * np.log(p) + (c - 1.0) * np.log1p(-p)


# Below this a = -sigma log(eps), the power law on [eps, 1) is its sigma -> 0
# limit, the log-uniform, to within a relative 1e-200, and a subnormal a
# would lose digits, so the power-law formulas use a at least this large.
_MIN_POWER_LAW_EXPONENT = 1e-200


def _powerlaw_ppf(u, sigma, eps):
    """Inverse CDF of the density proportional to x^(-1-sigma) on [eps, 1).

    x = (1 + m (1-u))^(-1/sigma) with m = eps^-sigma - 1, written as
    exp(log(eps) log1p(expm1(a) (1-u)) / a), a = -sigma log(eps): at a tiny
    sigma eps^-sigma rounds to 1 and the plain form returns 1 for every u,
    which the rejection step never accepts.
    """
    log_eps = math.log(eps)
    a = max(-sigma * log_eps, _MIN_POWER_LAW_EXPONENT)
    return np.exp(log_eps * np.log1p(np.expm1(a) * (1.0 - u)) / a)


def _tail_ppf(u, c, sigma, eps):
    """Inverse CDF of the density proportional to (1-x)^(c+sigma-1) on [eps, 1)."""
    return 1.0 - (1.0 - eps) * (1.0 - u) ** (1.0 / (c + sigma))


def _tail_proposal_is_tighter(c, sigma, eps):
    """Whether the tail proposal's envelope eps^(-1-sigma) (1-x)^(c+sigma-1)
    has a smaller integral over [eps, 1) than the power law's x^(-1-sigma):
    eps^(-1-sigma) (1-eps)^(c+sigma) / (c+sigma) against (eps^-sigma - 1) / sigma,
    compared in logs, the first as log(-log eps) + log(expm1(a) / a) with
    a = -sigma log(eps).  The target's normaliser is common to both."""
    log_eps = math.log(eps)
    a = max(-sigma * log_eps, _MIN_POWER_LAW_EXPONENT)
    power_law = math.log(-log_eps) + a + math.log(-math.expm1(-a)) - math.log(a)
    tail = (-1.0 - sigma) * log_eps + (c + sigma) * math.log1p(-eps) - math.log(c + sigma)
    return tail < power_law


def _grid_inverse_cdf(c, sigma, eps, n_grid=8192):
    """Inverse CDF via logit-grid quadrature, for the c + sigma < 1 regime
    where the rejection bound fails.  In logit coordinates the density is
    p^-sigma (1-p)^(c+sigma), bounded on the whole support."""
    lo = np.log(eps) - np.log1p(-eps)
    hi = np.log(PI_CEILING) - np.log1p(-PI_CEILING)
    u = np.linspace(lo, hi, n_grid)
    p = 1.0 / (1.0 + np.exp(-u))
    logd = -sigma * np.log(p) + (c + sigma) * np.log1p(-p)
    d = np.exp(logd - logd.max())
    cdf = np.concatenate([[0.0], np.cumsum((d[1:] + d[:-1]) * 0.5 * np.diff(u))])
    if cdf[-1] <= 0 or not np.isfinite(cdf[-1]):
        raise NumericsError("degenerate weight-density grid")
    cdf /= cdf[-1]
    return u, cdf


def sample_pi_truncated(alpha, c, sigma, k_max, eps_trunc, rng):
    """k_max i.i.d. truncated atom weights, sorted descending.

    sigma > 0 draws from the normalized restricted power-law density
    p^(-1-sigma) (1-p)^(c+sigma-1) on [eps_trunc, 1); sigma = 0 draws from
    Beta(alpha c / k_max, c) conditioned on the same support.

    When c + sigma >= 1 the draw is exact rejection off one of two analytic
    proposals, whichever envelope has the smaller integral: the power law
    p^(-1-sigma), accepted with probability (1-p)^(c+sigma-1), or the tail
    (1-p)^(c+sigma-1), accepted with probability (p/eps)^(-1-sigma).  The
    first suits a small floor, the second a large c with a floor far from
    zero, where the power law's acceptance collapses.  Below c + sigma = 1
    the draw is a grid inverse CDF.
    """
    _check_weight_law(alpha, c, sigma)
    if k_max < 1:
        raise DomainError("k_max must be at least 1")
    if not 0.0 < eps_trunc < 1.0:
        raise DomainError(f"eps_trunc must lie in (0, 1), got {eps_trunc}")
    if sigma == 0.0:
        a = alpha * c / k_max
        if not a > 0:
            raise DomainError("degenerate Beta shape")
        floor = betainc(a, c, eps_trunc)
        u = floor + (1.0 - floor) * rng.random(k_max)
        draws = betaincinv(a, c, u)
    elif c + sigma >= 1.0:
        draws = np.empty(0)
        tail = _tail_proposal_is_tighter(c, sigma, eps_trunc)
        while draws.shape[0] < k_max:
            u = rng.random(max(2 * (k_max - draws.shape[0]), 16))
            if tail:
                batch = _tail_ppf(u, c, sigma, eps_trunc)
                accept = (batch / eps_trunc) ** (-1.0 - sigma)
            else:
                batch = _powerlaw_ppf(u, sigma, eps_trunc)
                accept = (1.0 - batch) ** (c + sigma - 1.0)
            keep = rng.random(batch.shape[0]) < accept
            draws = np.concatenate([draws, batch[keep]])
        draws = draws[:k_max]
    else:
        grid_u, grid_cdf = _grid_inverse_cdf(c, sigma, eps_trunc)
        u = np.interp(rng.random(k_max), grid_cdf, grid_u)
        draws = 1.0 / (1.0 + np.exp(-u))
    draws = np.clip(draws, eps_trunc, PI_CEILING)
    return np.sort(draws)[::-1].copy()


def sample_3r_ibp(hp, n_rows, rng, alpha=None):
    """Forward draw from the restricted process on the fixed truncation.

    Atom weights come from sample_pi_truncated; each row's feature count is
    a negative binomial draw clamped to k_max (with a logged warning when
    clamping bites); the row itself is conditional Bernoulli given its
    count.  Unused atoms are dropped so the result has no empty columns.
    ``alpha`` pins the mass parameter instead of drawing it from its prior;
    sample_pi_truncated checks it before any draw.
    """
    if n_rows < 1:
        raise DomainError("need at least one row")
    if alpha is None:
        alpha = rng.gamma(hp.alpha_prior_shape, hp.alpha_prior_scale)
    pi = sample_pi_truncated(alpha, hp.c, hp.sigma, hp.k_max, hp.eps_trunc, rng)
    sums = rng.negative_binomial(hp.nb_r, hp.nb_p, size=n_rows)
    clamped = int(np.sum(sums > hp.k_max))
    if clamped:
        log.warning("clamped %d of %d row feature counts to k_max=%d", clamped, n_rows, hp.k_max)
    sums = np.minimum(sums, hp.k_max)
    z = sample_row_given_sum(pi, sums, rng)
    live = z.any(axis=0)
    return BinaryFeatureMatrix(z[:, live])


def _levy_norm_const(c, sigma):
    """G(1+c) / (G(1-sigma) G(c+sigma)), the weight measure's constant."""
    return np.exp(lgamma(1.0 + c) - lgamma(1.0 - sigma) - lgamma(c + sigma))


@lru_cache(maxsize=64)
def levy_exposure_mass(eps_trunc, c, sigma):
    """Integral of the weight measure's density over [eps_trunc, 1).

    M = int C(c, sigma) p^(-1-sigma) (1-p)^(c+sigma-1) dp with
    C = G(1+c)/(G(1-sigma) G(c+sigma)).  Diverges as eps -> 0, which is why
    the truncation floor exists.  The quadrature runs in u = log p, where
    the integrand C exp(-sigma u) (-expm1(u))^(c+sigma-1) on [log eps, 0]
    stays bounded however small eps is (in p it grows like p^(-1-sigma)),
    to a 1e-8 relative tolerance; anything worse is an error, and
    ``HyperParams`` refuses the (c, sigma, eps_trunc) where it happens.
    """
    if not 0.0 <= sigma < 1.0:
        raise DomainError(f"sigma must lie in [0, 1), got {sigma}")
    if not c > -sigma:
        raise DomainError(f"c must exceed -sigma, got c={c}, sigma={sigma}")
    if not 0.0 < eps_trunc < 1.0:
        raise DomainError(f"eps_trunc must lie in (0, 1), got {eps_trunc}")
    const = _levy_norm_const(c, sigma)

    def integrand(u):
        return const * math.exp(-sigma * u) * (-math.expm1(u)) ** (c + sigma - 1.0)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)  # a missed tolerance raises below
        try:
            val, err = quad(integrand, math.log(eps_trunc), 0.0, epsabs=0.0, epsrel=1e-10, limit=400)
        except OverflowError:  # exp(-sigma u) at a subnormal eps
            val, err = math.inf, math.inf
    if not np.isfinite(val) or val <= 0 or err > 1e-8 * abs(val):
        raise NumericsError(f"exposure-mass quadrature failed to converge (value {val}, error {err})")
    return float(val)
