"""The aux stage's pair-based split against the dense split it replaced.

``dense_split`` is the (entries x K) inverse-CDF split the aux stage ran
before it worked on (entry, active feature) pairs, kept here as an oracle:
from the same generator state both must give every entry the same split.
A chi-square test checks the pair split's per-feature shares against the
rates z_nk b_kd.
"""

import numpy as np
import pytest
from scipy import stats

from s3ribp import ObservationMask
from s3ribp.mcmc import _B_FLOOR
from test_mcmc import runner_at


def dense_split(z, b, rows, cols, x, rng):
    """Each count unit takes the first feature whose cumulative rate reaches (1 - u) x total."""
    cum = np.cumsum(z[rows] * b[:, cols].T, axis=1)
    unit_entry = np.repeat(np.arange(x.shape[0]), x)
    u = (1.0 - rng.random(unit_entry.shape[0])) * cum[unit_entry, -1]
    cats = (cum[unit_entry] < u[:, None]).sum(axis=1)
    k = z.shape[1]
    return np.bincount(unit_entry * k + cats, minlength=x.shape[0] * k).reshape(x.shape[0], k)


def random_state(rng):
    """Counts up to 50, K up to 50, some rows with one active feature, some floored loadings."""
    n, d, k = int(rng.integers(1, 9)), int(rng.integers(1, 7)), int(rng.integers(1, 51))
    x = rng.integers(0, 51, size=(n, d)) * (rng.random((n, d)) < 0.7)
    z = (rng.random((n, k)) < rng.uniform(0.05, 0.9)).astype(np.int8)
    z[np.arange(n), rng.integers(0, k, size=n)] = 1
    single = rng.random(n) < 0.3
    z[single] = 0
    z[np.flatnonzero(single), rng.integers(0, k, size=int(single.sum()))] = 1
    b = rng.gamma(0.5, 2.0, size=(k, d))
    b[rng.random((k, d)) < 0.3] = _B_FLOOR
    return x, z, b


def column_sums(aux, cols, d):
    """(K, D) mass per feature and column of a per-entry (entries x K) split."""
    out = np.zeros((d, aux.shape[1]), dtype=np.int64)
    np.add.at(out, cols, aux)
    return out.T


def observed_entries(runner):
    data, mask = runner.data, runner.mask
    keep = ~mask.is_held_out(data.rows, data.cols)
    return data.rows[keep], data.cols[keep], data.counts[keep]


def assert_split_matches_dense(runner):
    """Split once from the runner's generator state and from a copy of it
    with the dense oracle; returns the snapshot's aux map."""
    rows, cols, counts = observed_entries(runner)
    oracle_rng = np.random.default_rng()
    oracle_rng.bit_generator.state = runner._rng.bit_generator.state
    want = dense_split(runner.z, runner.b, rows, cols, counts, oracle_rng)
    runner._refresh_aux_internal()
    runner._validate_internal()
    assert runner._rng.bit_generator.state == oracle_rng.bit_generator.state
    aux = runner.state_snapshot().aux
    assert list(aux) == list(zip(rows.tolist(), cols.tolist()))
    np.testing.assert_array_equal(np.array(list(aux.values())).reshape(want.shape), want)
    np.testing.assert_array_equal(runner._split.sums, column_sums(want, cols, runner.data.n_cols))
    return aux


def boundary_state(rng, n_active, k):
    """Row r has n_active[r] active features.  Column 2r gives a loading
    above the floor only to row r's first active feature and column 2r + 1
    only to its last, so every unit of entry (r, 2r) lands on its first
    pair and every unit of (r, 2r + 1) on its last; elsewhere loadings are
    Gamma draws."""
    n = len(n_active)
    z = np.zeros((n, k), dtype=np.int8)
    for r, m in enumerate(n_active):
        z[r, rng.choice(k, size=m, replace=False)] = 1
    b = rng.gamma(0.5, 2.0, size=(k, 2 * n + 2))
    b[:, : 2 * n] = _B_FLOOR
    for r in range(n):
        on = np.flatnonzero(z[r])
        b[on[0], 2 * r] = b[on[-1], 2 * r + 1] = 1.0
    return rng.integers(1, 51, size=(n, 2 * n + 2)), z, b


class TestAgainstDenseOracle:
    def test_same_split_from_the_same_generator_state(self, rng):
        for _ in range(60):
            x, z, b = random_state(rng)
            n, d = x.shape
            held = [(int(rng.integers(n)), int(rng.integers(d)))]
            runner = runner_at(x, z, b, np.full(z.shape[1], 0.5), mask=ObservationMask(held, n, d))
            for _ in range(3):
                assert_split_matches_dense(runner)

    @pytest.mark.parametrize("k", [9, 50])
    def test_search_step_boundaries(self, rng, k):
        # 2^j and 2^j + 1 active features, and all K: the lower bound takes
        # one more step past each power of two
        sizes = [m for m in (1, 2, 3, 4, 5, 8, 9, 16, 17) if m < k] + [k]
        for n_active in [[m] * 3 for m in sizes] + [sizes]:
            x, z, b = boundary_state(rng, n_active, k)
            runner = runner_at(x, z, b, np.full(k, 0.5))
            for _ in range(3):
                aux = assert_split_matches_dense(runner)
                for r, row in enumerate(z):
                    on = np.flatnonzero(row)
                    assert aux[(r, 2 * r)][on[0]] == x[r, 2 * r]
                    assert aux[(r, 2 * r + 1)][on[-1]] == x[r, 2 * r + 1]

    def test_floored_cell_keeps_its_mass(self, rng):
        # cell (0, 1) comes after a cell of ordinary rates, and both its
        # active features have floored loadings: its total rate is positive,
        # so its count is split, not refused as having all-zero rates
        b = np.array([[3.0, _B_FLOOR], [2.0, _B_FLOOR], [1.0, 5.0]])
        runner = runner_at([[2, 40], [0, 7]], [[1, 1, 0], [0, 0, 1]], b, np.full(3, 0.5))
        rows, cols, counts = observed_entries(runner)
        for _ in range(20):
            oracle_rng = np.random.default_rng()
            oracle_rng.bit_generator.state = runner._rng.bit_generator.state
            want = dense_split(runner.z, runner.b, rows, cols, counts, oracle_rng)
            runner._refresh_aux_internal()
            aux = runner.state_snapshot().aux
            np.testing.assert_array_equal(np.array(list(aux.values())), want)
            assert aux[(0, 1)][:2].sum() == 40 and aux[(0, 1)][2] == 0
            assert aux[(1, 1)][2] == 7


class TestDistribution:
    def test_per_feature_shares_chi_square(self):
        # rows with different active sets, inactive features in between and
        # one floored loading; every unit is a categorical draw over its row's
        # active features with probabilities proportional to b_kd
        x = np.array([[9, 4, 0], [3, 12, 6]])
        z = np.array([[1, 0, 1, 1, 0], [0, 1, 1, 0, 1]], dtype=np.int8)
        b = np.array(
            [[0.5, 2.0, 1.0], [1.5, 0.2, 0.7], [1.0, 1.0, _B_FLOOR], [3.0, 0.4, 1.2], [0.1, 2.5, 0.9]]
        )
        runner = runner_at(x, z, b, np.full(5, 0.5), seed=3)
        rows, cols, counts = observed_entries(runner)
        draws = 4000
        total = np.zeros((rows.shape[0], 5))
        for _ in range(draws):
            runner._refresh_aux_internal()
            total += np.array(list(runner.state_snapshot().aux.values()))
        stat, dof = 0.0, 0
        for e in range(rows.shape[0]):
            rate = z[rows[e]] * b[:, cols[e]]
            p = rate / rate.sum()
            live = p > 1e-12
            expected = draws * counts[e] * p[live]
            stat += float(((total[e, live] - expected) ** 2 / expected).sum())
            dof += int(live.sum()) - 1
            # a floored loading's share is ~1e-308: it never takes a unit
            assert total[e, ~live].sum() == 0
        assert stats.chi2.sf(stat, dof) > 1e-3

