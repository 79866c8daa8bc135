"""Generative samplers for the feature-allocation prior family.

Three nested processes over binary feature matrices:

* the three-parameter power-law buffet process with concentration c and
  index sigma, whose c = 1, sigma = 0 case is the classic process (rows
  take existing dishes in proportion to their popularity and open
  Poisson(alpha/n) new ones);
* the restricted variant, which keeps the power-law weight measure but
  forces per-row feature counts to follow an arbitrary pmf (here a clamped
  negative binomial), sampled through the conditional Bernoulli law.

The restricted variant works on a fixed truncation: k_max atom weights are
drawn i.i.d. from the weight measure's normalized density restricted to
[eps_trunc, 1), at sigma > 0 by one exact rejection loop.  The exposure
mass of that restriction (the expected number of atoms above the floor per
unit of alpha) is also computed here; the MCMC alpha update consumes it.
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
from .model import PI_CEILING, _whole
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


def _check_weight_law(alpha, c, sigma, eps_trunc=None):
    """The (alpha, c, sigma) every member of the family needs: alpha > 0,
    sigma in [0, 1), c > -sigma; and a truncation floor, if given, in (0, 1)."""
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    if not 0.0 <= sigma < 1.0:
        raise DomainError(f"sigma must lie in [0, 1), got {sigma}")
    if not c > -sigma:
        raise DomainError(f"c must exceed -sigma, got c={c}, sigma={sigma}")
    if eps_trunc is not None and not 0.0 < eps_trunc < 1.0:
        raise DomainError(f"eps_trunc must lie in (0, 1), got {eps_trunc}")


def new_dish_rate(alpha, c, sigma, n):
    """Poisson rate of fresh dishes for row n of the three-parameter process:
    alpha G(1+c) G(n-1+c+sigma) / (G(n+c) G(c+sigma))."""
    return alpha * np.exp(lgamma(1.0 + c) + lgamma(n - 1.0 + c + sigma) - lgamma(n + c) - lgamma(c + sigma))


def sample_3p_ibp(alpha, c, sigma, n_rows, rng):
    """Three-parameter buffet draw with power-law feature sizes.

    Row n takes existing dish k w.p. (m_k - sigma)/(n - 1 + c), m the taker
    counts, and opens Poisson(new_dish_rate) fresh ones.  c = 1, sigma = 0
    is the classic process, ``sample_ibp``.
    """
    _check_weight_law(alpha, c, sigma)
    n_rows = _whole(n_rows, "n_rows", 1)
    m = np.zeros(0, dtype=np.int64)
    rows = []
    for n in range(1, n_rows + 1):
        k = m.shape[0]
        take = np.flatnonzero(rng.random(k) < (m - sigma) / (n - 1.0 + c))
        new = int(rng.poisson(new_dish_rate(alpha, c, sigma, n)))
        m[take] += 1
        m = np.concatenate([m, np.ones(new, dtype=np.int64)])
        rows.append(np.concatenate([take, np.arange(k, k + new)]))
    z = np.zeros((n_rows, m.shape[0]), dtype=np.int8)
    z[np.repeat(np.arange(n_rows), [r.shape[0] for r in rows]), np.concatenate(rows)] = 1
    return BinaryFeatureMatrix(z)


def sample_ibp(alpha, n_rows, rng):
    """Classic buffet draw: ``sample_3p_ibp`` at c = 1, sigma = 0."""
    return sample_3p_ibp(alpha, 1.0, 0.0, n_rows, rng)


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


def _envelope(c, sigma, eps):
    """The rejection envelope of p^(-1-sigma) (1-p)^(c+sigma-1) on [eps, 1),
    split at m: p^(-1-sigma) times a bound of (1-p)^(c+sigma-1) below m, and
    (1-p)^(c+sigma-1) m^(-1-sigma) above.  Returns m, the lower piece's share
    of the envelope's integral and the log bound.  At c + sigma >= 1 the
    bound is 1 and m is 1 or eps, the one piece with the smaller integral
    (the tail wins at a large c with a floor far from zero).  Below, m is
    max(eps, 1/2) and the bound 2^(1-c-sigma), so each piece accepts w.p.
    at least 1/4.
    """
    log_eps = math.log(eps)

    def log_power_law(m):  # of p^(-1-sigma) on [eps, m): m^-sigma log(m/eps) expm1(a) / a
        span = math.log(m) - log_eps
        a = max(sigma * span, _MIN_POWER_LAW_EXPONENT)
        return -sigma * math.log(m) + math.log(span) + a + math.log(-math.expm1(-a)) - math.log(a)

    def log_tail(m):  # of (1-p)^(c+sigma-1) m^(-1-sigma) on [m, 1)
        return (-1.0 - sigma) * math.log(m) + (c + sigma) * math.log1p(-m) - math.log(c + sigma)

    if c + sigma >= 1.0:
        return (eps, 0.0, 0.0) if log_tail(eps) < log_power_law(1.0) else (1.0, 1.0, 0.0)
    if eps >= 0.5:
        return eps, 0.0, 0.0
    bound = (c + sigma - 1.0) * math.log1p(-0.5)
    lower = bound + log_power_law(0.5)
    return 0.5, math.exp(lower - np.logaddexp(lower, log_tail(0.5))), bound


def _propose(u, alpha, c, sigma, k_max, eps):
    """The envelope's points at uniforms u, clipped to [eps, PI_CEILING],
    and the probability of accepting each: u below the lower piece's share
    w maps to it through u / w, the rest to the upper piece."""
    m, w, bound = _envelope(c, sigma, eps)
    lower = u < w
    p = np.empty_like(u)
    p[lower] = m * _powerlaw_ppf(u[lower] / w, sigma, eps / m)
    p[~lower] = _tail_ppf((u[~lower] - w) / (1.0 - w), c, sigma, m)
    p = np.clip(p, eps, PI_CEILING)
    upper = (c + sigma - 1.0) * np.log1p(-p) + (-1.0 - sigma) * math.log(m)
    log_envelope = np.where(lower, (-1.0 - sigma) * np.log(p) + bound, upper)
    return p, np.exp(atom_log_prior(p, alpha, c, sigma, k_max) - log_envelope)


def sample_pi_truncated(alpha, c, sigma, k_max, eps_trunc, rng):
    """k_max i.i.d. truncated atom weights, sorted descending.

    sigma > 0 draws from the normalized density p^(-1-sigma) (1-p)^(c+sigma-1)
    on [eps_trunc, 1) by exact rejection off ``_envelope``, accepting w.p.
    exp(atom_log_prior minus the log envelope), the density the pi stage's
    MH target reads.  sigma = 0 draws Beta(alpha c / k_max, c) on the same
    support by inverse CDF.
    """
    _check_weight_law(alpha, c, sigma, eps_trunc)
    k_max = _whole(k_max, "k_max", 1)
    if sigma == 0.0:
        a = alpha * c / k_max
        if not a > 0:
            raise DomainError("degenerate Beta shape")
        floor = betainc(a, c, eps_trunc)
        u = floor + (1.0 - floor) * rng.random(k_max)
        return np.sort(np.clip(betaincinv(a, c, u), eps_trunc, PI_CEILING))[::-1].copy()
    draws = np.empty(0)
    while draws.shape[0] < k_max:
        batch, accept = _propose(rng.random(max(2 * (k_max - draws.shape[0]), 16)), alpha, c, sigma, k_max, eps_trunc)
        keep = rng.random(batch.shape[0]) < accept
        draws = np.concatenate([draws, batch[keep]])
    return np.sort(draws[:k_max])[::-1].copy()


def sample_3r_ibp(hp, n_rows, rng, alpha=None):
    """Forward draw from the restricted process on the fixed truncation.

    Atom weights come from sample_pi_truncated; each row's feature count is
    a negative binomial draw clamped to k_max (with a logged warning when
    clamping bites); the row itself is conditional Bernoulli given its
    count.  Unused atoms are dropped so the result has no empty columns.
    ``alpha`` pins the mass parameter instead of drawing it from its prior;
    sample_pi_truncated checks it before any draw.  The weights depend on
    alpha only at sigma = 0: the power-law density has no alpha in it.
    """
    n_rows = _whole(n_rows, "n_rows", 1)
    if alpha is None:
        alpha = rng.gamma(hp.alpha_prior_shape, hp.alpha_prior_scale)
    pi = sample_pi_truncated(alpha, hp.c, hp.sigma, hp.k_max, hp.eps_trunc, rng)
    sums = rng.negative_binomial(hp.nb_r, hp.nb_p, size=n_rows)
    clamped = int(np.sum(sums > hp.k_max))
    if clamped:
        log.warning("clamped %d of %d row feature counts to k_max=%d", clamped, n_rows, hp.k_max)
    sums = np.minimum(sums, hp.k_max)
    z = sample_row_given_sum(pi, sums, rng)
    return BinaryFeatureMatrix(z[:, z.any(axis=0)])


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
    _check_weight_law(1.0, c, sigma, eps_trunc)
    const = np.exp(lgamma(1.0 + c) - lgamma(1.0 - sigma) - lgamma(c + sigma))

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
