"""Gibbs/MH kernel and chain driver for the doubly sparse Poisson factorization.

``ChainRunner`` is the only implementation of the kernel.  Each iteration
runs six stages in a fixed order, each a ``ChainRunner`` method:

1. Z sweep (``_sweep_z_internal``): column-blocked Gibbs over the binary
   feature matrix, each feature's column redrawn for all rows at once, with
   the Poisson likelihood marginalized over auxiliary counts; one per-entry
   rate buffer is updated in place, column by column, and log1p is taken
   only of the likelihood ratios at or above 2^-54, below which it is the
   identity in double precision;
2. pi MH (``_mh_pi_internal``): per-atom random-walk MH in logit space, an
   O(K) pi sweep: each proposal's ESP ratio is read off one prefix and one
   suffix table, so the full ESP recursion runs once per sweep;
3. aux split (``_refresh_aux_internal``): every observed positive cell's
   count split across its row's active features, x'_ndk ~ Poisson(z_nk b_kd),
   which restores Gamma conjugacy for B.  Each count unit proposes a
   feature from its column's loadings alone and keeps it iff the feature is
   active in its row (rejection rounds on the units still pending, until a
   round accepts fewer than half); only the units left are placed by an
   inverse CDF over their entries' (entry, active feature) pairs, so sparse
   loadings cost no pairs for most entries.  The split is held as one
   feature per unit plus the (K, D) sums the B stage reads;
4. B draw (``_update_b_internal``): the conjugate loading draw;
5. alpha draw (``_update_alpha_internal``): the conjugate mass draw;
6. invariant check (``_validate_internal``).

No stage reads the auxiliary split before the aux stage redraws it whole
from (Z, B), so a chain started from any (Z, B, pi, alpha) needs no stored
split: ``ChainRunner.from_state`` draws a fresh one, and a chain restored
from a checkpoint holds none until its next aux stage.

The driver is deterministic given the seed: one numpy Generator drives every
draw in a fixed order, and checkpoints capture the full generator state, so
a resumed chain reproduces the uninterrupted trajectory exactly; the
retained draws are stored, and checkpointed, under the summary's field names.
"""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.special import expit, gammaln

from .condbern import _NEG_INF, _log_esp_from_logw, _suffix_log_esp, log_odds, sample_row_given_sum
from .container import read_records, write_records
from .errors import CheckpointError, DomainError, InvariantError
from .model import (
    PI_CEILING,
    CountMatrix,
    HyperParams,
    LatentState,
    ObservationMask,
    PosteriorSummary,
    _cell_indices,
    _whole,
    negbin_row_sum_log_pmf,
    typed_fields,
)
from .priors import atom_log_prior, levy_exposure_mass, sample_pi_truncated

__all__ = [
    "ChainConfig",
    "ChainRunner",
    "gibbs_update_B",
    "sample_alpha",
    "run_chain",
    "predictive_log_lik",
]

log = logging.getLogger(__name__)

CHECKPOINT_SCHEMA = 6
# The chain's scalar state: runner attribute ``_<name>`` is checkpointed
# under ``name``.
_CHAIN_SCALARS = ("iteration", "alpha", "step", "win_prop", "win_acc", "post_prop", "post_acc", "runtime", "n_retained")
_ADAPT_EVERY = 100
_ADAPT_LO, _ADAPT_HI = 0.20, 0.40
_STEP_MIN, _STEP_MAX = 1e-3, 50.0

# Gamma draws with shape far below one (alpha_b defaults to 0.01) underflow
# to exactly zero often enough to matter; a zero loading puts zero rate on a
# positive count and NaNs the likelihood ratios, so loadings are floored at
# the smallest normal double.
_B_FLOOR = float(np.finfo(np.float64).tiny)

# Below this r, log1p(r) = r - r^2/2 + ... lies within r^2/2 < 2^-55 r of r,
# under half an ulp, so log1p(r) rounds to r itself: the Z sweep's ratios
# under it skip log1p, which is slow on tiny arguments.
_LOG1P_IDENTITY = 2.0**-54

# A rejection round of the aux stage that accepts fewer than this share of
# its proposals is its last; the units it leaves go to the pair split.
_MIN_ROUND_ACCEPT = 0.5

# The held-out scorer's rate block: each pass over the retained samples
# multiplies out at most max(1, _SCORE_CELLS // D) rows, so it holds at most
# max(_SCORE_CELLS, D) rates.
_SCORE_CELLS = 2**14


@dataclass(frozen=True)
class ChainConfig:
    """The hyperparameters, where the chain checkpoints, and how often it logs.

    The retention schedule (burn_in, n_samples, thin) and the seed live on
    the HyperParams only.  The runner tunes the MH step during burn-in
    toward a 20-40% acceptance rate and freezes it afterwards, so the
    retained draws come from a time-homogeneous kernel.
    """

    hyper: HyperParams
    checkpoint_path: str | os.PathLike | None = None
    checkpoint_interval: int = 0
    log_every: int = 0

    def __post_init__(self):
        typed_fields(self)
        if self.checkpoint_interval < 0:
            raise DomainError("checkpoint_interval must be non-negative")
        if self.checkpoint_interval and not self.checkpoint_path:
            raise DomainError("checkpoint_interval set without a checkpoint_path")


# ---------------------------------------------------------------------------
# kernel pieces (array-level, called by the runner's stages)


def gibbs_update_B(aux_sums, activity_sums, hp, rng):
    """Conjugate loading draw: Gamma(alpha_b + aux, rate alpha_b/mu_b + activity).

    ``aux_sums[k, d]`` is the auxiliary mass feature k received in column d;
    ``activity_sums[k, d]`` counts rows active in k whose (n, d) cell is
    observed.  Features with no mass and no exposure are drawn from the
    prior, which is how dead features keep fresh loadings.
    """
    aux_sums = np.asarray(aux_sums, dtype=np.float64)
    activity_sums = np.asarray(activity_sums, dtype=np.float64)
    if np.any(aux_sums < 0) or np.any(activity_sums < 0):
        raise DomainError("sufficient statistics must be non-negative")
    shape = hp.alpha_b + aux_sums
    rate = hp.alpha_b / hp.mu_b + activity_sums
    return np.maximum(rng.gamma(shape, 1.0 / rate), _B_FLOOR)


def sample_alpha(k_plus, exposure_mass, hp, rng):
    """Mass-parameter draw: Gamma(prior shape + K+, rate 1/prior scale + M).

    M = ``exposure_mass`` is the exposure mass of the truncated weight
    measure (``levy_exposure_mass``), so K+ plays the role of a
    Poisson(alpha M) observation.
    """
    shape = hp.alpha_prior_shape + _whole(k_plus, "k_plus")
    rate = 1.0 / hp.alpha_prior_scale + exposure_mass
    return float(rng.gamma(shape, 1.0 / rate))


def _log_sum_exp(t, axis):
    """log sum exp(t) along ``axis``, shifted by each slice's maximum; a slice
    with no finite term comes out -inf, without a warning."""
    top = t.max(axis=axis, keepdims=True)
    top[top == _NEG_INF] = 0.0
    with np.errstate(divide="ignore"):
        return np.squeeze(top, axis) + np.log(np.exp(t - top).sum(axis=axis))


def _log_convolve(a, b):
    """Log-space product of two polynomials, truncated to a's length.

    ``a`` and ``b`` hold log coefficients (-inf for zero); entry j of the
    result is log sum_i exp(a_i + b_{j-i}), i = 0..j.  An order with no
    non-zero term comes out -inf, without a warning.
    """
    n = a.shape[0]
    lag = np.subtract.outer(np.arange(n), np.arange(n))
    # the lags of i > j read the -inf appended after b
    lag[lag < 0] = b.shape[0]
    return _log_sum_exp(a + np.append(b, _NEG_INF)[lag], axis=1)


def _pi_sweep(pi, logw, log_e, m, s_hist, alpha, hp, rng, step):
    """Random-walk MH pass over atoms in ascending index order, in place.

    The target is the atom prior times every row's restricted prior; the
    pieces that depend on atom k collapse to m_k log w_k minus the summed
    log ESP normalizers at the observed row sums, plus the logit Jacobian.
    With E the ESPs of every other atom, e_s(w) = E_s + w_k E_{s-1}, so
    both sides of the ratio come from one E per proposal (Chen, Dempster &
    Liu 1994).  E is the product of a prefix polynomial, over the atoms
    before k at their values after their own proposals, and one row of a
    suffix table built once per sweep; both stop at the largest row sum,
    since no row reads a higher order.  The sweep is O(K) ESP work, and
    ``log_e`` is rebuilt once at its end.  Each atom draws one normal, then
    one uniform, in ascending order.  Returns a boolean acceptance vector.
    """
    k = pi.shape[0]
    draws = np.array([(rng.standard_normal(), rng.random()) for _ in range(k)])
    u_prop = logw + step * draws[:, 0]
    p_prop = expit(u_prop)
    inside = (hp.eps_trunc <= p_prop) & (p_prop <= PI_CEILING)
    # the atom prior and logit Jacobian terms, for the proposals in support
    p_in, p_old = p_prop[inside], pi[inside]
    rest = np.zeros(k)
    rest[inside] = atom_log_prior(p_in, alpha, hp.c, hp.sigma, hp.k_max) - atom_log_prior(
        p_old, alpha, hp.c, hp.sigma, hp.k_max
    )
    rest[inside] += (np.log(p_in) + np.log1p(-p_in)) - (np.log(p_old) + np.log1p(-p_old))
    with np.errstate(divide="ignore"):
        log_u = np.log(draws[:, 1])
    s_max = int(np.flatnonzero(s_hist)[-1]) if s_hist.any() else 0
    h = s_hist[1 : s_max + 1]
    suffix = _suffix_log_esp(logw, s_max)
    prefix = np.full(s_max + 1, _NEG_INF)
    prefix[0] = 0.0
    accepted = np.zeros(k, dtype=bool)
    for kk in range(k):
        if inside[kk]:
            u_old = logw[kk]
            others = _log_convolve(prefix, suffix[kk + 1])
            d_le = np.logaddexp(others[1:], u_prop[kk] + others[:-1]) - np.logaddexp(others[1:], u_old + others[:-1])
            delta = float(m[kk]) * (u_prop[kk] - u_old) - float(h @ d_le) + rest[kk]
            # a zero uniform has log -inf and accepts
            if log_u[kk] < delta:
                pi[kk] = p_prop[kk]
                logw[kk] = u_prop[kk]
                accepted[kk] = True
        prefix[1:] = np.logaddexp(prefix[1:], logw[kk] + prefix[:-1])
    log_e[:] = _log_esp_from_logw(logw)
    return accepted


def _check_fitted_shape(summary, shape):
    """A DomainError unless the summary was fitted on a matrix of ``shape``."""
    fitted = (summary.z_samples.shape[1], summary.b_samples.shape[2])
    if fitted != tuple(shape):
        raise DomainError(
            f"posterior was fitted on a {fitted[0]}x{fitted[1]} matrix, but the data is {shape[0]}x{shape[1]}"
        )


def _predictive_log_liks(summary, rows, cols, x, shape=None):
    """Posterior-predictive log likelihood of each cell (rows[i], cols[i]) at count x[i].

    log of the average Poisson pmf across retained samples, evaluated at the
    per-sample rate Z_n . B_d; a rate of zero contributes the point mass at
    zero, so a positive count whose rate is zero in every sample scores
    -inf.  ``shape``, when given, is the shape of the data the cells come
    from, and a summary fitted on another shape is a DomainError.

    The cells are taken in row order, in passes of at most
    max(1, _SCORE_CELLS // D) distinct rows.  For each pass and retained
    sample one BLAS product Z_s[rows] B_s writes every rate of those rows
    into one reused buffer, and the pass's cells read theirs from it.  Each
    sample so costs at most one N x K x D product, whatever the cells, and a
    pass holds at most max(_SCORE_CELLS, D) rates and, for distinct cells,
    n_samples times that many log likelihoods.  Against gathering each
    cell's K loadings, the product costs less once a uniform mask holds out
    more than about 2-3% of the cells.  Every cell adds -rate, the positive
    ones x log rate, and log x! is taken off after the mean over samples.
    """
    s_total = summary.n_samples
    if s_total < 1:
        raise DomainError("summary holds no retained samples")
    if shape is not None:
        _check_fitted_shape(summary, shape)
    n_cols = summary.b_samples.shape[2]
    rows, cols = _cell_indices(rows, cols, summary.z_samples.shape[1], n_cols)
    x = np.asarray(_whole(x, "x"))
    order = np.argsort(rows, kind="stable")
    rows, cols, x = rows[order], cols[order], x[order]
    new_row = np.diff(rows, prepend=-1) != 0
    firsts = np.flatnonzero(new_row)
    bounds = np.append(firsts, rows.shape[0])
    # each cell's flat index in a (distinct rows, D) block of rates
    at = (np.cumsum(new_row) - 1) * n_cols + cols
    per_pass = max(1, _SCORE_CELLS // n_cols)
    buf = np.empty(min(per_pass, firsts.shape[0]) * n_cols)
    scores = np.empty(rows.shape[0])
    for p in range(0, firsts.shape[0], per_pass):
        block_rows = rows[firsts[p : p + per_pass]]
        block = buf[: block_rows.shape[0] * n_cols].reshape(block_rows.shape[0], n_cols)
        lo, hi = bounds[p], bounds[p + block_rows.shape[0]]
        cell_at, xc = at[lo:hi] - p * n_cols, x[lo:hi]
        pos = np.flatnonzero(xc)
        lp = np.empty((s_total, hi - lo))
        for s in range(s_total):
            np.matmul(summary.z_samples[s][block_rows].astype(np.float64), summary.b_samples[s], out=block)
            lam = block.take(cell_at)
            if not (lam.min() >= 0 and lam.max() < math.inf):
                raise DomainError("rates must be finite and non-negative")
            np.negative(lam, out=lp[s])
            with np.errstate(divide="ignore"):
                lp[s, pos] += xc[pos] * np.log(lam[pos])
        scores[lo:hi] = _log_sum_exp(lp, axis=0)
    pos = np.flatnonzero(x)
    scores[pos] -= gammaln(x[pos] + 1.0)
    out = np.empty_like(scores)
    out[order] = scores - math.log(s_total)
    return out


def predictive_log_lik(summary, cell, x):
    """Posterior-predictive log likelihood of a single cell (see ``_predictive_log_liks``)."""
    n, d = cell
    return float(_predictive_log_liks(summary, [n], [d], [x])[0])


class _AuxSplit(NamedTuple):
    """One draw of the auxiliary split, held per count unit.

    The observed entries' counts are cut into units, entry by entry in
    row-major order; ``feature[i]`` is the feature unit i went to, and
    ``sums[k, d]`` the mass feature k received in column d, which the B
    stage reads.
    """

    feature: np.ndarray
    sums: np.ndarray


# ---------------------------------------------------------------------------
# chain driver


class ChainRunner:
    """The kernel and its driver: the only implementation of the sampler.

    ``step_once`` runs the six stages in order: Z sweep, pi MH, aux split,
    B draw, alpha draw, invariant check.  A chain starts from a prior draw
    (the constructor), from a given state (``from_state``) or mid-trajectory
    from a checkpoint (``from_checkpoint``).  The aux stage redraws every
    auxiliary split from (Z, B) before anything reads it, so a start state
    needs no split of its own, and a restored chain holds none (``_split``
    is None) until its first aux stage.

    All randomness flows through one generator in a fixed order (column
    sweeps, atom proposals, auxiliary allocation, loading and mass draws),
    which is what makes fixed-seed reruns and checkpoint resumes bit-for-bit
    equal.  ``_draws`` holds ``n_samples`` rows of each of the summary's
    per-draw fields (``_draw``), the first ``_n_retained`` filled, which
    ``summary`` views read-only: no filled row is written again.
    """

    def __init__(self, data, mask, config, _restore=None, _state=None):
        if mask is None:
            mask = ObservationMask.none_held_out(data.n_rows, data.n_cols)
        if mask.n_rows != data.n_rows or mask.n_cols != data.n_cols:
            raise DomainError("mask shape disagrees with data shape")
        self.data = data
        self.mask = mask
        self.config = config
        self._hp = config.hyper
        self._n, self._d = data.n_rows, data.n_cols
        self._k = self._hp.k_max
        self._log_f = negbin_row_sum_log_pmf(self._hp.nb_r, self._hp.nb_p, self._k)
        self._levy_mass = levy_exposure_mass(self._hp.eps_trunc, self._hp.c, self._hp.sigma)
        # held-out indicator: the observed rate mass and activity are the
        # all-cells sums minus its products
        cells = mask.held_out
        self._held = sparse.csr_matrix(
            (np.ones(cells.shape[0]), (cells[:, 0], cells[:, 1])), shape=(self._n, self._d)
        )
        self._set_count_caches(data)
        if _restore is not None:
            self._restore_from(_restore)
        else:
            self._rng = np.random.default_rng(self._hp.seed)
            self._iteration = 0
            self._step = float(self._hp.mh_step)
            self._runtime = 0.0
            self._win_prop = self._win_acc = self._post_prop = self._post_acc = self._n_retained = 0
            if _state is None:
                self._init_state()
            else:
                self._set_state(_state.z, _state.b, _state.pi, _state.alpha)
            self._draws = self._empty_draws()
            self._refresh_aux_internal()
        self._validate_internal()

    @classmethod
    def from_state(cls, data, mask, config, state):
        """Start a chain at a given LatentState instead of a prior draw.

        The generator is seeded from ``config.hyper.seed`` as for a fresh
        chain, and its first draws are a new auxiliary split: ``state.aux``
        is ignored, since no stage reads the split before redrawing it.
        Loadings are floored like the B stage's draws.
        """
        n, k = state.z.shape
        if (n, k) != (data.n_rows, config.hyper.k_max) or state.b.shape[1] != data.n_cols:
            raise DomainError("state shape disagrees with the data shape and k_max")
        return cls(data, mask, config, _state=state)

    # -- workspace ---------------------------------------------------------

    def _set_count_caches(self, data):
        # observed positive cells in row-major order, the order the aux
        # stage draws their splits in
        observed = ~self.mask.is_held_out(data.rows, data.cols)
        self._e_rows, self._e_cols, self._e_x = data.rows[observed], data.cols[observed], data.counts[observed]
        self._e_xf = self._e_x.astype(np.float64)
        self._row_counts = np.bincount(self._e_rows, minlength=self._n)
        self._e_starts = np.flatnonzero(np.diff(self._e_rows, prepend=-1))
        self._e_flat = self._e_rows * self._d + self._e_cols
        self._n_entries = self._e_x.shape[0]
        self._unit_entry = np.repeat(np.arange(self._n_entries), self._e_x)
        self._unit_cols = self._e_cols[self._unit_entry]
        self._total_units = int(self._e_x.sum())
        self._col_totals = np.bincount(self._unit_cols, minlength=self._d)
        # where each unit's row starts in the flat Z, and its column in the
        # aux stage's table of cumulative loadings, rows of a power-of-two
        # width
        self._cum_width = 1 << (self._k - 1).bit_length()
        self._unit_z = self._e_rows[self._unit_entry] * self._k
        self._unit_cum = self._unit_cols * self._cum_width
        # no split until the aux stage draws one for these counts
        self._split = None

    def set_data_counts(self, x_dense):
        """Swap the observed counts (same shape/mask) and refresh aux splits.

        Used by calibration harnesses that resample data inside the loop.
        """
        data = CountMatrix.from_dense(x_dense, self.data.row_labels, self.data.col_labels)
        if (data.n_rows, data.n_cols) != (self._n, self._d):
            raise DomainError("count array must have the data's shape")
        self._set_count_caches(data)
        self.data = data
        self._refresh_aux_internal()
        self._validate_internal()

    # -- initialization ----------------------------------------------------

    def _init_state(self):
        hp = self._hp
        rng = self._rng
        alpha = float(rng.gamma(hp.alpha_prior_shape, hp.alpha_prior_scale))
        pi = sample_pi_truncated(alpha, hp.c, hp.sigma, self._k, hp.eps_trunc, rng)
        b = rng.gamma(hp.alpha_b, hp.mu_b / hp.alpha_b, size=(self._k, self._d))
        s = np.minimum(rng.negative_binomial(hp.nb_r, hp.nb_p, size=self._n), self._k)
        # a row with positive counts needs an active feature (loadings are
        # floored above zero, so any one keeps the likelihood finite): a zero
        # draw there is redrawn, up to 1000 times, then set to one
        for _ in range(1000):
            empty = (s == 0) & (self._row_counts > 0)
            if not empty.any():
                break
            s[empty] = np.minimum(rng.negative_binomial(hp.nb_r, hp.nb_p, size=int(empty.sum())), self._k)
        s[(s == 0) & (self._row_counts > 0)] = 1
        z = sample_row_given_sum(pi, s, rng)
        self._set_state(z, b, pi, alpha)

    def _set_state(self, z, b, pi, alpha, logw=None):
        """Install (Z, B, pi, alpha) as copies and derive the caches the stages read.

        ``logw`` defaults to log_odds(pi).  A checkpoint passes its stored
        vector instead: the pi stage keeps each accepted proposal's logit,
        which can differ from log_odds(pi) in the last bit.
        """
        self._z = np.array(z, dtype=np.int8)
        self._b = np.maximum(np.asarray(b, dtype=np.float64), _B_FLOOR)
        self._pi = np.array(pi, dtype=np.float64)
        self._alpha = float(alpha)
        self._logw = log_odds(self._pi) if logw is None else np.array(logw, dtype=np.float64)
        self._log_e = _log_esp_from_logw(self._logw)
        self._row_sums = self._z.sum(axis=1, dtype=np.int64)

    # -- kernel ------------------------------------------------------------

    def _sweep_z_internal(self):
        """Column-blocked Gibbs pass: for k = 0..K-1, redraw z_nk of every row at once.

        Given (pi, B) and the other columns, the restricted row prior and the
        Poisson likelihood factor over rows, so drawing a whole column is
        exact.  Row n's log odds for z_nk = 1 is log f(s+1) - log f(s) +
        log w_k + log e_s - log e_{s+1}, s its other active features, plus
        sum_d x_nd log((lam_nd + b_kd) / lam_nd) over its observed positive
        cells, lam_nd the other features' rate, minus b_k's observed mass.
        The rates are rebuilt from (Z, B) once per sweep, so no rounding
        drift outlives a sweep, and are exactly zero in a row with no other
        active feature, which keeps a feature on in a row with a count.

        One rate buffer is updated in place per column: b_kd is subtracted
        at the entries whose row has z_nk on, and added back where the new
        draw is on.  At the other entries z_nk b_kd is 0.0, and adding or
        subtracting 0.0 leaves a non-negative rate unchanged, so the masked
        updates give the rates of the unmasked ones bit for bit.  One ratio
        buffer holds the divide, log1p and product; log1p runs only on the
        ratios at or above ``_LOG1P_IDENTITY`` = 2^-54, below which
        log1p(r) rounds to r, so the bits are those of a full log1p.
        """
        z, b = self._z.view(bool), self._b
        cols, counts, x = self._e_cols, self._row_counts, self._e_xf
        has_entries = counts > 0
        s = self._row_sums
        # the prior log odds at each number s = 0..K-1 of other active features
        prior = self._log_f[1:] - self._log_f[:-1] + self._log_e[:-1] - self._log_e[1:]
        obs_mass = b.sum(axis=1) - self._held @ b.T
        lam = (self._z.astype(np.float64) @ b).take(self._e_flat)
        ratio = np.empty_like(lam)
        u = self._rng.random((self._k, self._n))
        ll = np.zeros(self._n)
        for k in range(self._k):
            zk = z[:, k]
            b_e = b[k].take(cols)
            s_minus = s - zk
            # entries are row-major, so np.repeat(v, counts) spreads a
            # per-row v over the row's entries
            np.subtract(lam, b_e, out=lam, where=np.repeat(zk, counts))
            np.maximum(lam, 0.0, out=lam)
            alone = (s_minus == 0) & has_entries
            if alone.any():
                lam[np.repeat(alone, counts)] = 0.0
            with np.errstate(divide="ignore", over="ignore"):
                np.divide(b_e, lam, out=ratio)
            big = np.flatnonzero(ratio >= _LOG1P_IDENTITY)
            ratio[big] = np.log1p(ratio[big])
            ratio *= x
            ll[has_entries] = np.add.reduceat(ratio, self._e_starts)
            lo = prior[s_minus] + self._logw[k] + ll - obs_mass[:, k]
            if np.any(np.isnan(lo)):
                raise InvariantError("NaN in likelihood ratio; the current state has zero likelihood")
            new = u[k] < expit(lo)
            z[:, k] = new
            s = s_minus + new
            np.add(lam, b_e, out=lam, where=np.repeat(new, counts))
        self._row_sums = s

    def _mh_pi_internal(self):
        m = self._z.sum(axis=0, dtype=np.int64)
        s_hist = np.bincount(self._row_sums, minlength=self._k + 1).astype(np.float64)
        accepted = _pi_sweep(
            self._pi, self._logw, self._log_e, m, s_hist, self._alpha, self._hp, self._rng, self._step
        )
        n_acc = int(accepted.sum())
        self._win_prop += self._k
        self._win_acc += n_acc
        if self._iteration >= self._hp.burn_in:
            self._post_prop += self._k
            self._post_acc += n_acc

    def _refresh_aux_internal(self):
        """Draw every observed count unit's feature: x'_ndk ~ Poisson(z_nk b_kd).

        Unit i of entry (n, d) takes feature k with probability z_nk b_kd /
        lam_nd.  Rejection rounds draw most units off column d's own
        loadings: a unit proposes k with probability b_kd / sum_j b_jd, by
        one uniform and a fixed-step lower bound in the column's normalised
        cumulative loadings, and keeps k iff z_nk = 1, which leaves exactly
        the target law.  Each round redraws only the units still pending,
        and a round that accepts fewer than ``_MIN_ROUND_ACCEPT`` of its
        proposals is the last.  The units it leaves go through the inverse
        CDF over their entries' active pairs (``_pair_split``).  Proposals
        round at the scale of one column's loadings, pairs at the scale of
        one entry's rates.
        """
        active = self._row_sums[self._e_rows]
        if not active.all():
            bad = int(np.argmin(active))
            raise InvariantError(
                f"positive count with all-zero rates at cell ({self._e_rows[bad]}, {self._e_cols[bad]})"
            )
        self._split = None
        k, width = self._k, self._cum_width
        # column d's cumulative loadings, normalised, in row d; the last
        # feature and the padding read +inf, so a lower bound of 2^j steps
        # never leaves the row
        cum = np.full((self._d, width), np.inf)
        col_cum = np.cumsum(self._b, axis=0)
        cum[:, : k - 1] = (col_cum[:-1] / col_cum[-1]).T
        cum = cum.ravel()
        z = self._z.ravel().view(bool)
        feature = np.empty(self._total_units, dtype=np.int64)
        pending = np.arange(self._total_units)
        # one set of work buffers serves every round and step: fresh arrays
        # cost page faults, most of all in a new runner's first split
        keys, hits, incs = np.empty(pending.size), np.empty(pending.size, dtype=bool), np.empty_like(pending)
        while pending.size:
            n_proposed = pending.size
            key, hit, inc = keys[:n_proposed], hits[:n_proposed], incs[:n_proposed]
            self._rng.random(out=key)
            np.subtract(1.0, key, out=key)
            lo = self._unit_cum.take(pending)
            for j in reversed(range((k - 1).bit_length())):
                # probe lo + step - 1, read through a view that starts there
                step = 1 << j
                np.less(cum[step - 1 :].take(lo), key, out=hit)
                lo += np.multiply(hit, step, out=inc)
            lo &= width - 1
            # a rejected proposal is overwritten by a later round or the pairs
            feature[pending] = lo
            lo += self._unit_z.take(pending)
            kept = z.take(lo)
            pending = pending[~kept]
            if n_proposed - pending.size < _MIN_ROUND_ACCEPT * n_proposed:
                break
        if pending.size:
            feature[pending] = self._pair_split(pending)
        sums = np.bincount(feature * self._d + self._unit_cols, minlength=k * self._d)
        self._split = _AuxSplit(feature, sums.reshape(k, self._d))

    def _pair_split(self, units):
        """Features for ``units`` (ascending unit indices) by inverse CDF over
        their entries' (entry, active feature) pairs.

        Unit i of entry (n, d) goes to the first active feature k, in
        ascending order, whose cumulative rate reaches (1 - u_i) times the
        entry's total rate, one uniform per unit.  Pairs are built only for
        the entries that own one of ``units``.  Each entry's pair rates are
        normalised to sum to one and the running sum restarts at every
        entry, so its rounding stays at the scale of one entry, whatever
        the entry's index and however small its loadings (floored ones
        included).  Each unit finds its pair by a fixed-step lower bound
        inside its entry: steps 2^j, j descending, each taken while the
        probed cumulative rate is below the key.
        """
        unit_entry = self._unit_entry.take(units)
        owns = np.bincount(unit_entry, minlength=self._n_entries).astype(bool)
        entries = np.flatnonzero(owns)
        # unit i's entry is entries[slot[i]]
        slot = (np.cumsum(owns) - 1).take(unit_entry)
        rows = self._e_rows.take(entries)
        active = self._row_sums.take(rows)
        ends = np.cumsum(active)
        starts = ends - active
        # pair p of entry slot e holds its row's active feature number p - starts[e]
        row_starts = np.cumsum(self._row_sums) - self._row_sums
        idx = np.repeat(row_starts.take(rows) - starts, active)
        idx += np.arange(int(ends[-1]))
        feature = (np.flatnonzero(self._z) % self._k).take(idx)
        del idx
        flat = np.repeat(self._e_cols.take(entries), active)
        flat += feature * self._d
        rate = self._b.ravel().take(flat)
        del flat
        rate /= np.repeat(np.add.reduceat(rate, starts), active)
        first = rate[starts]
        # each entry's rates sum to one, so subtracting one at the next
        # entry's first pair restarts the running sum near zero
        rate[starts[1:]] -= 1.0
        cum = np.cumsum(rate, out=rate)
        # entry e's normalised cumulative rate at pair p is cum[p] - base[e];
        # its last pair takes any unit that rounding leaves above the total
        base = cum[starts] - first
        cum[ends - 1] = np.inf
        key = self._rng.random(units.size)
        np.subtract(1.0, key, out=key)
        key += base.take(slot)
        # per-unit lower bound: the first pair of its entry with cum >= key.
        # cum rises within an entry and is +inf at its last pair, so a probe
        # clipped to the last pair never steps past the answer
        lo, last = starts.take(slot), (ends - 1).take(slot)
        probe, hit = np.empty_like(lo), np.empty(lo.shape, dtype=bool)
        for j in reversed(range(int(active.max() - 1).bit_length())):
            step = 1 << j
            np.minimum(np.add(lo, step - 1, out=probe), last, out=probe)
            np.less(cum.take(probe), key, out=hit)
            lo += np.multiply(hit, step, out=probe)
        return feature.take(lo)

    def _update_b_internal(self):
        z = self._z.astype(np.float64)
        activity = z.sum(axis=0)[:, None] - (self._held.T @ z).T
        self._b = gibbs_update_B(self._split.sums, activity, self._hp, self._rng)

    def _update_alpha_internal(self):
        k_plus = int(self._z.any(axis=0).sum())
        self._alpha = sample_alpha(k_plus, self._levy_mass, self._hp, self._rng)

    def _validate_internal(self):
        split = self._split
        if split is not None:
            if not self._z.ravel().take(self._unit_z + split.feature).all():
                raise InvariantError("auxiliary mass allocated to an inactive feature")
            if not np.array_equal(split.sums.sum(axis=0), self._col_totals):
                raise InvariantError("auxiliary counts do not sum to the observed counts")
        if np.any(self._pi < self._hp.eps_trunc) or np.any(self._pi > PI_CEILING):
            raise InvariantError("a feature weight left its support")

    def step_once(self):
        """Run one full kernel iteration (no retention bookkeeping)."""
        self._sweep_z_internal()
        self._mh_pi_internal()
        self._refresh_aux_internal()
        self._update_b_internal()
        self._update_alpha_internal()
        self._validate_internal()
        self._iteration += 1
        if self._iteration <= self._hp.burn_in and self._iteration % _ADAPT_EVERY == 0 and self._win_prop:
            rate = self._win_acc / self._win_prop
            if rate < _ADAPT_LO:
                self._step = max(self._step * 0.7, _STEP_MIN)
            elif rate > _ADAPT_HI:
                self._step = min(self._step * 1.4, _STEP_MAX)
            self._win_prop = 0
            self._win_acc = 0

    # -- retention and results ----------------------------------------------

    def _draw(self):
        """The current state's retained draw, keyed by the summary's field names."""
        return {
            "z_samples": self._z,
            "b_samples": self._b,
            "pi_samples": self._pi,
            "alpha_samples": self._alpha,
            "kplus_trace": self._z.any(axis=0).sum(),
        }

    def _empty_draws(self):
        """The draw store: ``n_samples`` zero rows per field of ``_draw``, in its declared dtype."""
        n, dtypes = self._hp.n_samples, PosteriorSummary.per_draw_dtypes()
        return {name: np.zeros((n, *np.shape(v)), dtypes[name]) for name, v in self._draw().items()}

    def _maybe_retain(self):
        hp = self._hp
        past = self._iteration - hp.burn_in
        if past > 0 and past % hp.thin == 0 and self._n_retained < hp.n_samples:
            for name, value in self._draw().items():
                self._draws[name][self._n_retained] = value
            self._n_retained += 1

    def run(self):
        cfg, hp = self.config, self._hp
        total = hp.burn_in + hp.n_samples * hp.thin
        t0 = time.monotonic()
        while self._iteration < total:
            self.step_once()
            self._maybe_retain()
            if cfg.checkpoint_interval and self._iteration % cfg.checkpoint_interval == 0:
                self.save_checkpoint(cfg.checkpoint_path)
            if cfg.log_every and self._iteration % cfg.log_every == 0:
                log.info(
                    "iteration %d/%d kplus=%d alpha=%.3f step=%.3f",
                    self._iteration,
                    total,
                    int(self._z.any(axis=0).sum()),
                    self._alpha,
                    self._step,
                )
        self._runtime += time.monotonic() - t0
        return self.summary()

    def summary(self):
        if not self._n_retained:
            raise DomainError("no retained samples; run the chain first")
        draws = {name: rows[: self._n_retained] for name, rows in self._draws.items()}
        for view in draws.values():
            view.flags.writeable = False
        rate = self._post_acc / self._post_prop if self._post_prop else 0.0
        return PosteriorSummary(
            **draws,
            z_mean=draws["z_samples"].mean(axis=0),
            b_mean=draws["b_samples"].mean(axis=0),
            pi_accept_rate=float(rate),
            mh_step_final=float(self._step),
            hyper=self._hp,
            runtime_seconds=float(self._runtime),
        )

    # -- state access --------------------------------------------------------

    @property
    def iteration(self):
        return self._iteration

    @property
    def z(self):
        return self._z

    @property
    def b(self):
        return self._b

    @property
    def pi(self):
        return self._pi

    @property
    def alpha(self):
        return self._alpha

    def state_snapshot(self):
        """A copy of the state; ``aux`` maps each observed positive cell to its length-K split."""
        split = self._split
        if split is None:
            raise DomainError("no auxiliary split since the checkpoint was restored; step the chain first")
        aux = np.bincount(self._unit_entry * self._k + split.feature, minlength=self._n_entries * self._k)
        aux = aux.reshape(self._n_entries, self._k)
        aux = dict(zip(zip(self._e_rows.tolist(), self._e_cols.tolist()), aux))
        return LatentState(z=self._z.copy(), b=self._b.copy(), pi=self._pi.copy(), alpha=self._alpha, aux=aux)

    # -- checkpointing -------------------------------------------------------

    def save_checkpoint(self, path):
        arrays = {"z": self._z, "b": self._b, "pi": self._pi, "logw": self._logw}
        arrays.update((name, rows[: self._n_retained]) for name, rows in self._draws.items())
        meta = {
            "kind": "chain-checkpoint",
            "schema_version": CHECKPOINT_SCHEMA,
            **{name: getattr(self, "_" + name) for name in _CHAIN_SCALARS},
            "rng_state": self._rng.bit_generator.state,
            "hyper": self._hp.to_dict(),
            "hyper_digest": self._hp.digest(),
            "checkpoint_interval": self.config.checkpoint_interval,
            "data_digest": self.data.digest(),
            "mask_digest": self.mask.digest(),
        }
        write_records(path, arrays, meta)

    def _restore_from(self, payload):
        arrays, meta = payload
        for name in _CHAIN_SCALARS:
            setattr(self, "_" + name, meta[name])
        self._set_state(arrays["z"], arrays["b"], arrays["pi"], self._alpha, logw=arrays["logw"])
        self._draws = self._empty_draws()
        for name, rows in self._draws.items():
            rows[: self._n_retained] = arrays[name]
        self._rng = np.random.default_rng(0)
        self._rng.bit_generator.state = meta["rng_state"]

    @classmethod
    def from_checkpoint(cls, path, data, mask=None):
        """Rebuild a runner mid-trajectory; mask=None means none held out.
        The chain keeps checkpointing into ``path`` at the stored interval."""
        arrays, meta = read_records(path)
        if meta.get("kind") != "chain-checkpoint":
            raise CheckpointError(f"{path} is not a chain checkpoint")
        if meta.get("schema_version") != CHECKPOINT_SCHEMA:
            raise CheckpointError(
                f"checkpoint schema {meta.get('schema_version')} unsupported (expected {CHECKPOINT_SCHEMA})"
            )
        hyper = HyperParams.from_dict(meta["hyper"])
        if hyper.digest() != meta["hyper_digest"]:
            raise CheckpointError("checkpoint hyperparameters disagree with their stored digest")
        if data.digest() != meta["data_digest"]:
            raise CheckpointError("checkpoint was written against different data")
        if mask is None:
            mask = ObservationMask.none_held_out(data.n_rows, data.n_cols)
        if mask.digest() != meta["mask_digest"]:
            raise CheckpointError("checkpoint mask disagrees; pass the mask the chain was fitted with")
        config = ChainConfig(hyper, checkpoint_path=path, checkpoint_interval=meta["checkpoint_interval"])
        return cls(data, mask, config, _restore=(arrays, meta))


def run_chain(data, mask, config):
    """Run the full kernel for burn_in + n_samples * thin iterations.

    Deterministic given config.hyper.seed; returns the posterior summary of
    the retained samples.
    """
    return ChainRunner(data, mask, config).run()
