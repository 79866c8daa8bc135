"""Conditional Bernoulli machinery built on elementary symmetric polynomials.

For independent Bernoulli coordinates with weights pi and odds
w_k = pi_k / (1 - pi_k), the probability that the vector sums to s is the
Poisson binomial pmf e_s(w) prod_k (1 - pi_k), where e_s is the elementary
symmetric polynomial of order s.  Conditioning a row on its sum and
restricting the row-sum law to an arbitrary pmf f both reduce to ratios of
these polynomials, which are computed here with log-space recursions so
they stay finite for weights spanning hundreds of orders of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import DomainError, NumericsError
from .model import _whole

__all__ = [
    "LogESPTable",
    "log_esp",
    "log_odds",
    "poisson_binomial_log_pmf",
    "inclusion_probs",
    "sample_row_given_sum",
    "restricted_row_log_prior",
]

_NEG_INF = -np.inf


@dataclass(frozen=True)
class LogESPTable:
    """log e_s(w) for s = 0..K over a fixed odds vector w (e_0 = 1)."""

    log_e: np.ndarray

    def __post_init__(self):
        log_e = np.asarray(self.log_e, dtype=np.float64)
        object.__setattr__(self, "log_e", log_e)
        if log_e.ndim != 1 or log_e.shape[0] < 1 or log_e[0] != 0.0:
            raise DomainError("log ESP table must be 1-d with log e_0 = 0")

    @property
    def k(self):
        return self.log_e.shape[0] - 1


def _log_esp_from_logw(logw):
    """log e_s(w) for s = 0..K by the plain ESP recurrence, in log space:
    e_s^(j) = e_s^(j-1) + w_j e_{s-1}^(j-1) over the atoms j."""
    out = np.full(logw.shape[0] + 1, _NEG_INF)
    out[0] = 0.0
    for lw in logw:
        out[1:] = np.logaddexp(out[1:], lw + out[:-1])
    return out


def log_odds(pi):
    """logit of each weight; requires all weights strictly inside (0, 1)."""
    pi = np.asarray(pi, dtype=np.float64)
    if pi.size and (np.any(pi <= 0.0) or np.any(pi >= 1.0)):
        raise DomainError("weights must lie strictly inside (0, 1)")
    return np.log(pi) - np.log1p(-pi)


def log_esp(odds):
    """Elementary symmetric polynomials of an odds vector, in log space.

    Zero odds are allowed (they simply never contribute); negative or
    non-finite odds are rejected, and any NaN in the table is a hard error
    rather than a silent clamp.
    """
    w = np.asarray(odds, dtype=np.float64)
    if w.ndim != 1:
        raise DomainError("odds must be a 1-d vector")
    if w.size and (np.any(w < 0) or not np.all(np.isfinite(w))):
        raise DomainError("odds must be finite and non-negative")
    with np.errstate(divide="ignore"):
        logw = np.log(w)
    table = _log_esp_from_logw(logw)
    if np.any(np.isnan(table)):
        raise NumericsError("NaN in ESP recursion")
    return LogESPTable(table)


def _weights_and_sums(pi, s):
    """``pi`` as float64, its logits, and the row sums ``s`` checked against
    0..K (``_whole``), for every function here that takes a sum."""
    pi = np.asarray(pi, dtype=np.float64)
    return pi, log_odds(pi), _whole(s, "s", 0, pi.shape[0])


def _log_pb(pi, log_e, s):
    """log P(sum = s) for Bernoulli(pi) off ``log_e``, the ESP table of pi's odds."""
    return float(log_e[s] + np.log1p(-pi).sum())


def poisson_binomial_log_pmf(pi, s):
    """log P(sum of independent Bernoulli(pi) = s) = log e_s(w) + sum log(1-pi)."""
    pi, logw, s = _weights_and_sums(pi, s)
    return _log_pb(pi, _log_esp_from_logw(logw), s)


def inclusion_probs(pi, s):
    """P(z_k = 1 | sum z = s) for every coordinate, which sums to s.

    Uses the leave-one-out identity P(z_k=1|s) = w_k e_{s-1}(w_{-k}) / e_s(w),
    where e_{s-1}(w_{-k}) = sum_j e_j(w_0..w_{k-1}) e_{s-1-j}(w_{k+1}..) is
    read off one prefix and one suffix table.
    """
    pi, logw, s = _weights_and_sums(pi, s)
    k = pi.shape[0]
    if s == 0:
        return np.zeros(k)
    suffix = _suffix_log_esp(logw, s)
    # prefix[i, j] = log e_j(w_0..w_{i-1}): the suffix table of the reversed odds
    prefix = _suffix_log_esp(logw[::-1], s)[::-1]
    loo = logsumexp(prefix[:k, :s] + suffix[1:, s - 1 :: -1], axis=1)
    out = np.exp(logw + loo - suffix[0, s])
    if np.any(np.isnan(out)):
        raise NumericsError("NaN in inclusion probabilities")
    return out


def _suffix_log_esp(logw, s_max):
    """t[i, j] = log e_j(w_i..w_{k-1}); row k is the empty suffix."""
    k = logw.shape[0]
    t = np.full((k + 1, s_max + 1), _NEG_INF)
    t[:, 0] = 0.0
    for i in range(k - 1, -1, -1):
        t[i, 1:] = np.logaddexp(t[i + 1, 1:], logw[i] + t[i + 1, :-1])
    return t


def sample_row_given_sum(pi, s, rng):
    """Draw binary rows with exactly s ones from the conditional Bernoulli law.

    ``s`` is one sum, giving one (K,) row, or a vector of sums, giving one
    row per sum.  Sequential DP over the coordinates, every row at once:
    coordinate i is included with probability
    w_i e_{r-1}(w_{i+1..}) / e_r(w_{i..}), r the row's remaining quota, read
    off one suffix table built for the largest sum.  Exact, no rejection;
    one uniform per (row, coordinate).
    """
    pi, logw, sums = _weights_and_sums(pi, s)
    k = pi.shape[0]
    r = np.atleast_1d(sums).copy()
    z = np.zeros((r.shape[0], k), dtype=np.int8)
    t = _suffix_log_esp(logw, r.max(initial=0))
    u = rng.random((r.shape[0], k))
    for i in range(k):
        p_in = np.exp(logw[i] + t[i + 1, np.maximum(r - 1, 0)] - t[i, r])
        take = (r > 0) & (u[:, i] < p_in)
        z[take, i] = 1
        r -= take
    if np.any(r != 0):
        raise NumericsError("conditional Bernoulli sweep failed to place all ones")
    return z if np.ndim(sums) else z[0]


def restricted_row_log_prior(z, pi, log_f, esp=None):
    """Log prior of one row under a restricted row-sum law.

    log f(|z|) + sum_k Bernoulli(z_k; pi_k) - log PoissonBinomial(|z|; pi).
    A sum with f mass zero yields -inf, not an error.  ``log_f`` is the log
    pmf over sums 0..K; ``esp`` optionally reuses a precomputed table for
    the full odds vector.
    """
    z, pi, log_f = np.asarray(z), np.asarray(pi, dtype=np.float64), np.asarray(log_f, dtype=np.float64)
    if z.shape != pi.shape or log_f.shape != (pi.shape[0] + 1,):
        raise DomainError("z, pi and log_f disagree on the number of coordinates")
    if not np.isin(z, (0, 1)).all():
        raise DomainError("z must be binary")
    pi, logw, s = _weights_and_sums(pi, z.sum())
    if log_f[s] == _NEG_INF:
        return _NEG_INF
    table = _log_esp_from_logw(logw) if esp is None else esp.log_e
    bern = float(np.where(z == 1, np.log(pi), np.log1p(-pi)).sum())
    return float(log_f[s]) + bern - _log_pb(pi, table, s)
