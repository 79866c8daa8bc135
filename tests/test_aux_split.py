"""The aux stage's split against a per-unit loop of the same scheme.

``loop_split`` draws each count unit's feature one unit at a time: rejection
rounds off the unit's column loadings, then, for the units the last round
leaves, an inverse CDF over the entry's active features.  It is kept here
as an oracle: from the same generator state the stage must give every unit
the same feature.  A chi-square test checks the split's per-feature shares
against the rates z_nk b_kd.
"""

import numpy as np
import pytest
from scipy import stats

from s3ribp import ChainConfig, ChainRunner, CountMatrix, HyperParams, ObservationMask
from s3ribp.mcmc import _B_FLOOR
from test_mcmc import runner_at


def loop_split(z, b, rows, cols, x, rng):
    """Each unit's feature, the number of rejection rounds, and how many units went to pairs.

    A round draws one uniform per pending unit, in unit order; the unit
    proposes the first feature whose normalised cumulative loading in its
    column reaches 1 - u and keeps it iff the feature is active in its row.
    A round that keeps fewer than half its proposals is the last, and each
    unit it leaves takes the first active feature whose normalised
    cumulative rate in its entry reaches 1 - u, one uniform per unit.
    """
    unit_entry = np.repeat(np.arange(x.shape[0]), x)
    col_cum = np.cumsum(b, axis=0)
    feature = np.full(unit_entry.shape[0], -1)
    pending, rounds = list(range(unit_entry.shape[0])), 0
    while pending:
        rounds += 1
        left = []
        for i, u in zip(pending, rng.random(len(pending))):
            e = unit_entry[i]
            cum = col_cum[:, cols[e]] / col_cum[-1, cols[e]]
            cum[-1] = np.inf
            k = int(np.searchsorted(cum, 1.0 - u))
            if z[rows[e], k]:
                feature[i] = k
            else:
                left.append(i)
        kept = len(pending) - len(left)
        pending = left
        if 2 * kept < kept + len(left):
            break
    if pending:
        for i, u in zip(pending, rng.random(len(pending))):
            e = unit_entry[i]
            on = np.flatnonzero(z[rows[e]])
            rate = b[on, cols[e]]
            cum = np.cumsum(rate / rate.sum())
            cum[-1] = np.inf
            feature[i] = on[np.searchsorted(cum, 1.0 - u)]
    return feature, rounds, len(pending)


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


def observed_entries(runner):
    data, mask = runner.data, runner.mask
    keep = ~mask.is_held_out(data.rows, data.cols)
    return data.rows[keep], data.cols[keep], data.counts[keep]


def assert_split_matches_loop(runner):
    """Split once from the runner's generator state and from a copy of it
    with the loop oracle; returns the snapshot's aux map, the oracle's
    round count and the number of units it sent to pairs."""
    rows, cols, counts = observed_entries(runner)
    oracle_rng = np.random.default_rng()
    oracle_rng.bit_generator.state = runner._rng.bit_generator.state
    feature, rounds, to_pairs = loop_split(runner.z, runner.b, rows, cols, counts, oracle_rng)
    runner._refresh_aux_internal()
    runner._validate_internal()
    assert runner._rng.bit_generator.state == oracle_rng.bit_generator.state
    np.testing.assert_array_equal(runner._split.feature, feature)
    unit_entry = np.repeat(np.arange(counts.shape[0]), counts)
    k, d = runner.z.shape[1], runner.data.n_cols
    want = np.zeros((counts.shape[0], k), dtype=np.int64)
    np.add.at(want, (unit_entry, feature), 1)
    aux = runner.state_snapshot().aux
    assert list(aux) == list(zip(rows.tolist(), cols.tolist()))
    np.testing.assert_array_equal(np.array(list(aux.values())).reshape(want.shape), want)
    sums = np.zeros((k, d), dtype=np.int64)
    np.add.at(sums, (feature, cols[unit_entry]), 1)
    np.testing.assert_array_equal(runner._split.sums, sums)
    return aux, rounds, to_pairs


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


class TestAgainstLoopOracle:
    def test_same_split_from_the_same_generator_state(self, rng):
        seen_rounds, seen_pairs = set(), 0
        for _ in range(60):
            x, z, b = random_state(rng)
            n, d = x.shape
            held = [(int(rng.integers(n)), int(rng.integers(d)))]
            runner = runner_at(x, z, b, np.full(z.shape[1], 0.5), mask=ObservationMask(held, n, d))
            for _ in range(3):
                _, rounds, to_pairs = assert_split_matches_loop(runner)
                seen_rounds.add(rounds)
                seen_pairs += to_pairs
        # the states reach both halves of the stage and runs of several rounds
        assert seen_pairs and max(seen_rounds) >= 3

    @pytest.mark.parametrize("k", [9, 50])
    def test_search_step_boundaries(self, rng, k):
        # 2^j and 2^j + 1 active features, and all K: the lower bounds take
        # one more step past each power of two
        sizes = [m for m in (1, 2, 3, 4, 5, 8, 9, 16, 17) if m < k] + [k]
        for n_active in [[m] * 3 for m in sizes] + [sizes]:
            x, z, b = boundary_state(rng, n_active, k)
            runner = runner_at(x, z, b, np.full(k, 0.5))
            for _ in range(3):
                aux, _, _ = assert_split_matches_loop(runner)
                for r, row in enumerate(z):
                    on = np.flatnonzero(row)
                    assert aux[(r, 2 * r)][on[0]] == x[r, 2 * r]
                    assert aux[(r, 2 * r + 1)][on[-1]] == x[r, 2 * r + 1]

    def test_first_round_accepts_every_unit(self, rng):
        # every feature is active in every row, so every proposal is kept:
        # one round, one uniform per unit, no pairs
        x = rng.integers(0, 30, size=(5, 7))
        runner = runner_at(x, np.ones((5, 6)), rng.gamma(0.5, 2.0, size=(6, 7)), np.full(6, 0.5))
        for _ in range(3):
            _, rounds, to_pairs = assert_split_matches_loop(runner)
            assert (rounds, to_pairs) == (1, 0)

    def test_floored_active_loadings_all_go_to_pairs(self, rng):
        # features 0-3 are active in some row and floored in every column,
        # features 4 and 5 inactive everywhere with loading 1, so a proposal
        # is kept with probability ~1e-307: the first round keeps none, and
        # each unit is split evenly over its row's active features
        z = np.zeros((6, 6), dtype=np.int8)
        for r in range(6):
            z[r, rng.choice(4, size=1 + r % 4, replace=False)] = 1
        b = np.full((6, 5), _B_FLOOR)
        b[4:] = 1.0
        x = rng.integers(1, 40, size=(6, 5))
        runner = runner_at(x, z, b, np.full(6, 0.5))
        for _ in range(3):
            aux, rounds, to_pairs = assert_split_matches_loop(runner)
            assert (rounds, to_pairs) == (1, x.sum())
            for (n, d), split in aux.items():
                assert split[z[n] == 0].sum() == 0

    def test_prior_state_stops_early(self, rng):
        # at the prior draw alpha_b = 0.01 leaves each column's mass on a
        # few features, most of them inactive in a given row: the first
        # round keeps under half, so it is the only one, and most units go
        # to pairs
        x = rng.poisson(1.5, size=(40, 60))
        hp = HyperParams(k_max=30, c=1.0, sigma=0.5, burn_in=1, n_samples=1, seed=4)
        assert hp.alpha_b == 0.01
        runner = ChainRunner(CountMatrix.from_dense(x), None, ChainConfig(hyper=hp))
        for _ in range(3):
            _, rounds, to_pairs = assert_split_matches_loop(runner)
            assert rounds == 1 and to_pairs > x.sum() / 2

    def test_floored_cell_keeps_its_mass(self):
        # cell (0, 1) comes after a cell of ordinary rates, and both its
        # active features have floored loadings: its total rate is positive,
        # so its count is split, not refused as having all-zero rates
        b = np.array([[3.0, _B_FLOOR], [2.0, _B_FLOOR], [1.0, 5.0]])
        runner = runner_at([[2, 40], [0, 7]], [[1, 1, 0], [0, 0, 1]], b, np.full(3, 0.5))
        for _ in range(20):
            aux, _, _ = assert_split_matches_loop(runner)
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

