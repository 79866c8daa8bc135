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

import numpy as np

from .errors import DomainError, NumericsError
from .model import _whole

__all__ = ["log_odds", "sample_row_given_sum"]

_NEG_INF = -np.inf


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
    pi = np.asarray(pi, dtype=np.float64)
    logw, sums = log_odds(pi), _whole(s, "s", 0, pi.shape[0])
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
