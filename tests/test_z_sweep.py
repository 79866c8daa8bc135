"""The Z sweep against the allocating column update it replaced.

``allocating_sweep_z`` is the sweep as it was before it updated one rate
buffer in place: every column built a new leave-one-out rate array from
``lam - np.repeat(zk, counts) * b_e`` and a new rate array from
``lam_minus + np.repeat(new, counts) * b_e``, and cast the counts to float
on every sweep.  It is kept here as an oracle, called with a runner as
``self``.  From the same generator state both sweeps must leave the same Z,
the same row sums and the same generator state.
"""

import copy

import numpy as np
import pytest
from scipy.special import expit

from s3ribp import InvariantError, ObservationMask
from s3ribp.mcmc import _B_FLOOR, _LOG1P_IDENTITY
from test_mcmc import runner_at


def allocating_sweep_z(self):
    """Column-blocked Gibbs pass: for k = 0..K-1, redraw z_nk of every row at once."""
    z, b = self._z, self._b
    cols, counts = self._e_cols, self._row_counts
    x = self._e_x.astype(np.float64)
    has_entries = counts > 0
    s = self._row_sums
    # the prior log odds at each number s = 0..K-1 of other active features
    prior = self._log_f[1:] - self._log_f[:-1] + self._log_e[:-1] - self._log_e[1:]
    obs_mass = b.sum(axis=1) - self._held @ b.T
    lam = (z.astype(np.float64) @ b).take(self._e_flat)
    u = self._rng.random((self._k, self._n))
    ll = np.zeros(self._n)
    for k in range(self._k):
        zk = z[:, k]
        b_e = b[k].take(cols)
        s_minus = s - zk
        # entries are row-major, so np.repeat(v, counts) spreads a
        # per-row v over the row's entries
        lam_minus = np.maximum(lam - np.repeat(zk, counts) * b_e, 0.0)
        alone = (s_minus == 0) & has_entries
        if alone.any():
            lam_minus[np.repeat(alone, counts)] = 0.0
        with np.errstate(divide="ignore", over="ignore"):
            ratio = x * np.log1p(b_e / lam_minus)
        ll[has_entries] = np.add.reduceat(ratio, self._e_starts)
        lo = prior[s_minus] + self._logw[k] + ll - obs_mass[:, k]
        if np.any(np.isnan(lo)):
            raise InvariantError("NaN in likelihood ratio; the current state has zero likelihood")
        new = (u[k] < expit(lo)).astype(np.int8)
        z[:, k] = new
        s = s_minus + new
        lam = lam_minus + np.repeat(new, counts) * b_e
    self._row_sums = s


# Below half an ulp of 1.0: a rate of 1.0 absorbs it, and taking it out
# again rounds the rate down, so taking out the 1.0 next leaves -2^-53.
_TINY = 0.4 * 2.0**-52


def random_state(rng):
    """Counts up to 50 and K from 1 to 12, with empty and fully held-out rows,
    rows with one active feature, and loadings floored, at the scales where
    a leave-one-out rate rounds below zero, or spread over 1e-300..1e-12."""
    n, d = int(rng.integers(1, 9)), int(rng.integers(1, 7))
    k = 1 if rng.random() < 0.2 else int(rng.integers(2, 13))
    x = rng.integers(0, 51, size=(n, d)) * (rng.random((n, d)) < 0.6)
    x[rng.random(n) < 0.2] = 0
    held = {(int(i), int(j)) for i, j in zip(rng.integers(0, n, 3), rng.integers(0, d, 3))}
    for row in np.flatnonzero(rng.random(n) < 0.2):
        held.update((int(row), j) for j in range(d))
    z = (rng.random((n, k)) < rng.uniform(0.1, 0.9)).astype(np.int8)
    single = rng.random(n) < 0.3
    z[single] = 0
    z[np.flatnonzero(single), rng.integers(0, k, size=int(single.sum()))] = 1
    mask = ObservationMask(sorted(held), n, d)
    observed = x * ~mask.is_held_out(*np.divmod(np.arange(n * d), d)).reshape(n, d)
    # a row with an observed count needs an active feature
    lone = (observed.sum(axis=1) > 0) & (z.sum(axis=1) == 0)
    z[np.flatnonzero(lone), rng.integers(0, k, size=int(lone.sum()))] = 1
    b = rng.gamma(0.5, 2.0, size=(k, d))
    pick = rng.random((k, d))
    b[pick < 0.2] = _B_FLOOR
    b[(0.2 <= pick) & (pick < 0.35)] = 1.0
    b[(0.35 <= pick) & (pick < 0.5)] = _TINY
    # log-uniform over 1e-300..1e-12: ratios on both sides of the 2^-54
    # below which the sweep leaves out log1p
    spread = (0.5 <= pick) & (pick < 0.65)
    b[spread] = 10.0 ** rng.uniform(-300.0, -12.0, size=int(spread.sum()))
    pi = rng.uniform(1e-4, 1.0 - 1e-4, size=k)
    return x, z, b, pi, mask


def assert_same_sweep(runner, sweeps=2):
    for _ in range(sweeps):
        oracle = copy.deepcopy(runner)
        try:
            allocating_sweep_z(oracle)
        except InvariantError:
            with pytest.raises(InvariantError, match="NaN"):
                runner._sweep_z_internal()
            return
        runner._sweep_z_internal()
        assert runner._z.dtype == np.int8
        np.testing.assert_array_equal(runner._z, oracle._z)
        np.testing.assert_array_equal(runner._row_sums, oracle._row_sums)
        assert runner._row_sums.dtype == oracle._row_sums.dtype
        assert runner._rng.bit_generator.state == oracle._rng.bit_generator.state


class TestAgainstAllocatingSweep:
    def test_same_draws_from_the_same_generator_state(self, rng):
        kinds = {"empty row": 0, "held-out row": 0, "alone": 0, "K=1": 0, "count 50": 0, "below": 0, "above": 0}
        for _ in range(240):
            x, z, b, pi, mask = random_state(rng)
            runner = runner_at(x, z, b, pi, mask=mask)
            n, d = x.shape
            held_rows = mask.is_held_out(*np.divmod(np.arange(n * d), d)).reshape(n, d).all(axis=1)
            kinds["empty row"] += int((~x.any(axis=1)).any())
            kinds["held-out row"] += int((held_rows & x.any(axis=1)).any())
            kinds["alone"] += int(((z.sum(axis=1) == 1) & (runner._row_counts > 0)).any())
            kinds["K=1"] += int(z.shape[1] == 1)
            kinds["count 50"] += int((x == 50).any())
            # b_kd over row n's rate, a proxy for the sweep's ratios
            with np.errstate(all="ignore"):
                ratio = b[None] / (z.astype(np.float64) @ b)[:, None]
            kinds["below"] += int(((ratio >= 2.0**-57) & (ratio < _LOG1P_IDENTITY)).any())
            kinds["above"] += int(((ratio >= _LOG1P_IDENTITY) & (ratio < 2.0**-51)).any())
            assert_same_sweep(runner)
        assert min(kinds.values()) > 0, kinds

    def test_rate_rounding_below_zero_is_clamped_alike(self):
        # row 0's rate in column 0 is 1.0 + _TINY = 1.0; feature 0 leaves
        # 1 - 2^-53 and is switched off by its mass in the observed zero
        # cell (0, 1), so taking out feature 1 leaves -2^-53, which the
        # sweep clamps to zero while feature 2 (floored) stays active
        b = np.array([[_TINY, 1e3], [1.0, 1.0], [_B_FLOOR, _B_FLOOR]])
        z = np.array([[1, 1, 1], [0, 1, 0]], dtype=np.int8)
        assert (1.0 + _TINY) - _TINY - 1.0 < 0.0
        for seed in range(20):
            runner = runner_at([[5, 0], [3, 2]], z, b, np.full(3, 0.5), seed=seed)
            assert_same_sweep(runner, sweeps=3)

    def test_alone_guard_ignores_a_rounding_residue(self):
        # row 0's rate in column 0 is 0.1 + 0.2, and taking out feature 0
        # (switched off by its mass in the observed zero cell (0, 1))
        # leaves 0.2 + 2.8e-17; feature 1 is then the row's only feature,
        # and only the guard's exact zero keeps it on against its mass of
        # 100 in cell (0, 1)
        b = np.array([[0.1, 1e3], [0.2, 100.0]])
        assert (0.1 + 0.2) - 0.1 - 0.2 > 0.0
        for seed in range(20):
            runner = runner_at([[1, 0], [0, 0]], [[1, 1], [0, 1]], b, np.full(2, 0.5), seed=seed)
            assert_same_sweep(runner, sweeps=1)
            assert runner._z[0].tolist() == [0, 1]

    def test_after_chain_steps(self, rng):
        # states the kernel reaches itself, at K = 1 and K = 6
        for k in (1, 6):
            x = rng.poisson(2.0, size=(12, 7)) * (rng.random((12, 7)) < 0.5)
            x[0] = 0
            z = np.ones((12, k), dtype=np.int8)
            runner = runner_at(x, z, rng.gamma(1.0, 1.0, size=(k, 7)), np.full(k, 0.5), seed=k)
            for _ in range(10):
                runner.step_once()
                assert_same_sweep(runner, sweeps=1)


def test_log1p_is_the_identity_below_the_threshold():
    # the sweep leaves ratios under _LOG1P_IDENTITY as they are; that gives
    # its bits only if log1p(r) == r there, subnormals included
    r = np.geomspace(2.0**-1074, _LOG1P_IDENTITY, 100_000, endpoint=False)
    r = np.concatenate([r, np.nextafter(_LOG1P_IDENTITY, 0.0) * (1.0 - np.arange(1000) * 2.0**-52)])
    assert r.min() == 2.0**-1074 and r.max() < _LOG1P_IDENTITY
    np.testing.assert_array_equal(np.log1p(r), r)
    np.testing.assert_array_equal(np.log1p(r[::-3]), r[::-3])
