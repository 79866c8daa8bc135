"""The kernel's stages and the chain driver: conjugate draws, sweeps, determinism.

Stage tests start a ChainRunner at a chosen state (``state=``) and call
one stage method at a time, so they check the code that ``fit`` runs.
"""

import dataclasses
import hashlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from s3ribp import (
    ChainConfig,
    ChainRunner,
    CheckpointError,
    CountMatrix,
    DomainError,
    HyperParams,
    InvariantError,
    LatentState,
    ObservationMask,
    PosteriorSummary,
    gibbs_update_B,
    levy_exposure_mass,
    meta_features,
    negbin_row_sum_log_pmf,
    poisson_log_pmf,
    predictive_log_lik,
    run_chain,
    sample_alpha,
    save_summary,
)
from s3ribp import mcmc
from s3ribp.container import read_records, write_records
from s3ribp.mcmc import _B_FLOOR, CHECKPOINT_SCHEMA
from s3ribp.model import PI_CEILING
from conftest import brute_force_row_log_prior, deadline, enumerate_rows
from test_priors import restricted_density_cdf


def tiny_hyper(**kw):
    base = dict(
        seed=1,
        k_max=3,
        burn_in=30,
        n_samples=10,
        thin=1,
        c=1.0,
        sigma=0.25,
        nb_r=1.0,
        nb_p=0.5,
        eps_trunc=1e-4,
        alpha_b=0.5,
        mu_b=1.0,
    )
    base.update(kw)
    return HyperParams(**base)


def tiny_data(rng, n=6, d=4):
    return CountMatrix.from_dense(rng.poisson(2.0, size=(n, d)))


def runner_at(x, z, b, pi, mask=None, alpha=1.0, **hyper):
    """A runner on counts ``x`` started at the given (Z, B, pi, alpha)."""
    z = np.asarray(z, dtype=np.int8)
    hp = tiny_hyper(**{"k_max": z.shape[1], **hyper})
    state = LatentState(z=z, b=b, pi=pi, alpha=alpha)
    return ChainRunner(CountMatrix.from_dense(x), mask, ChainConfig(hyper=hp), state=state)


def make_summary(z_samples, b_samples):
    z_samples = np.asarray(z_samples, dtype=np.int8)
    b_samples = np.asarray(b_samples, dtype=np.float64)
    s, n, k = z_samples.shape
    pi = np.full((s, k), 0.5)
    kplus = (z_samples.sum(axis=1) > 0).sum(axis=1)
    return PosteriorSummary(
        z_samples=z_samples,
        b_samples=b_samples,
        pi_samples=pi,
        alpha_samples=np.ones(s),
        kplus_trace=kplus,
        z_mean=z_samples.mean(axis=0),
        b_mean=b_samples.mean(axis=0),
        pi_accept_rate=0.3,
        hyper=tiny_hyper(),
        runtime_seconds=0.0,
    )


class TestSampleAuxCounts:
    """The aux split stage, ``_refresh_aux_internal``."""

    def test_sum_is_exact(self, rng):
        # every split sums to its cell's count and gives nothing to the
        # features inactive in the cell's row, whose rate is zero
        for _ in range(20):
            k = int(rng.integers(1, 6))
            x = rng.integers(0, 50, size=(4, 3))
            z = (rng.random((4, k)) < 0.5).astype(np.int8)
            z[np.arange(4), rng.integers(0, k, size=4)] = 1
            runner = runner_at(x, z, rng.uniform(0.1, 3.0, size=(k, 3)), np.full(k, 0.5))
            for _ in range(10):
                runner._refresh_aux_internal()
                for (n, d), split in runner.state_snapshot().aux.items():
                    assert split.sum() == x[n, d]
                    assert np.all(split >= 0)
                    assert split[z[n] == 0].sum() == 0

    def test_single_positive_rate_takes_everything(self):
        runner = runner_at([[7]], [[0, 1, 0]], np.array([[1.0], [2.5], [1.0]]), np.full(3, 0.5))
        for _ in range(5):
            runner._refresh_aux_internal()
            np.testing.assert_array_equal(runner.state_snapshot().aux[(0, 0)], [0, 7, 0])

    def test_zero_count(self):
        # a zero-count cell carries no split at all
        runner = runner_at([[0, 3]], [[1, 1]], np.ones((2, 2)), np.full(2, 0.5))
        runner._refresh_aux_internal()
        aux = runner.state_snapshot().aux
        assert set(aux) == {(0, 1)}
        assert aux[(0, 1)].sum() == 3

    def test_split_proportions(self):
        runner = runner_at([[3]], [[1, 1]], np.array([[1.0], [2.0]]), np.full(2, 0.5))
        draws = np.empty(20000)
        for i in range(draws.shape[0]):
            runner._refresh_aux_internal()
            draws[i] = runner.state_snapshot().aux[(0, 0)][0]
        se = draws.std(ddof=1) / np.sqrt(draws.shape[0])
        assert abs(draws.mean() - 1.0) < 3 * se

    def test_validation(self):
        runner = runner_at([[2]], [[1]], np.array([[1.0]]), np.array([0.5]))
        with pytest.raises(DomainError):
            runner.set_data_counts(np.array([[-1]]))
        for bad in (-1.0, np.inf):
            with pytest.raises(DomainError):
                runner_at([[2]], [[1]], np.array([[bad]]), np.array([0.5]))
        # a positive count whose row has no active feature has all-zero
        # rates, which the constructor refuses
        with pytest.raises(DomainError, match="start row 0 has an observed positive count but no active feature"):
            runner_at([[2]], [[0, 0]], np.ones((2, 1)), np.full(2, 0.5))


class TestSweepZ:
    """The Z sweep stage, ``_sweep_z_internal``."""

    def test_strong_likelihood_forces_inclusion(self):
        # feature 1 starts alone on the row with a floored loading, so it
        # explains the count 5 at likelihood ~ exp(-3500); feature 0's
        # loading 5 makes it certain to be switched on and to take the count
        runner = runner_at([[5]], [[0, 1]], np.array([[5.0], [_B_FLOOR]]), np.full(2, 0.5))
        for _ in range(20):
            runner._sweep_z_internal()
            assert runner.z[0, 0] == 1
            runner._refresh_aux_internal()
            snap = runner.state_snapshot()
            np.testing.assert_array_equal(snap.aux[(0, 0)], [5, 0])
            snap.validate_against(runner.data, runner.mask, runner.config.hyper.eps_trunc)

    def test_input_state_is_not_mutated(self, rng):
        # the runner copies its start state; stepping the chain leaves it alone
        data = tiny_data(rng)
        mask = ObservationMask.none_held_out(6, 4)
        cfg = ChainConfig(hyper=tiny_hyper())
        state = ChainRunner(data, mask, cfg).state_snapshot()
        z_before, b_before, pi_before = state.z.copy(), state.b.copy(), state.pi.copy()
        aux_before = {k: v.copy() for k, v in state.aux.items()}
        runner = ChainRunner(data, mask, cfg, state=state)
        for _ in range(3):
            runner.step_once()
        np.testing.assert_array_equal(state.z, z_before)
        np.testing.assert_array_equal(state.b, b_before)
        np.testing.assert_array_equal(state.pi, pi_before)
        for key, vec in aux_before.items():
            np.testing.assert_array_equal(state.aux[key], vec)
        runner.state_snapshot().validate_against(data, mask, cfg.hyper.eps_trunc)

    def test_aux_identity_after_each_z_sweep(self, rng):
        # rows whose membership flipped must keep the aux identity intact
        # once the aux stage has run
        data = tiny_data(rng, n=8, d=5)
        mask = ObservationMask.none_held_out(8, 5)
        hp = tiny_hyper(k_max=4)
        runner = ChainRunner(data, mask, ChainConfig(hyper=hp))
        for _ in range(5):
            runner._sweep_z_internal()
            runner._refresh_aux_internal()
            runner.state_snapshot().validate_against(data, mask, hp.eps_trunc)

    def test_stationary_row_distribution(self):
        # at fixed pi and B, repeated sweeps of one row sample its exact
        # conditional: restricted row prior times Poisson likelihood
        x = np.array([[1, 2]])
        b = np.array([[0.5, 1.0], [1.0, 0.3], [0.3, 0.6]])
        pi = np.array([0.6, 0.3, 0.15])
        runner = runner_at(x, [[1, 0, 0]], b, pi, seed=11)
        hp = runner.config.hyper
        rows = enumerate_rows(3)
        log_f = negbin_row_sum_log_pmf(hp.nb_r, hp.nb_p, 3)
        log_p = np.array(
            [
                brute_force_row_log_prior(z, pi, log_f) + poisson_log_pmf(x[0], z @ b).sum()
                for z in rows.astype(np.float64)
            ]
        )
        want = np.exp(log_p - log_p.max())
        want /= want.sum()
        codes = []
        for it in range(40_000):
            runner._sweep_z_internal()
            if it % 4 == 0:
                codes.append(int(runner.z[0] @ (1 << np.arange(3))))
        observed = np.bincount(codes, minlength=8)
        live = want > 0
        expected = want[live] * len(codes)
        assert observed[~live].sum() == 0
        assert expected.min() > 5
        p_value = stats.chisquare(observed[live], expected).pvalue
        assert p_value > 1e-3


    def test_two_row_stationary_distribution(self):
        # one sweep redraws a whole column at once; at fixed pi and B the two
        # rows are independent, each from its restricted prior times the
        # Poisson likelihood of its observed cells.  Row 0's cell (0, 2) is
        # held out, so its count 4 must not count; row 1 has no positive
        # cell, so only the rate mass of its observed cells acts on it
        x = np.array([[1, 2, 4], [0, 0, 0]])
        b = np.array([[0.5, 1.0, 3.0], [1.0, 0.3, 0.2], [0.3, 0.6, 0.1]])
        pi = np.array([0.6, 0.3, 0.15])
        mask = ObservationMask(frozenset({(0, 2)}), 2, 3)
        runner = runner_at(x, [[1, 0, 0], [0, 1, 0]], b, pi, mask=mask, seed=13)
        hp = runner.config.hyper
        rows = enumerate_rows(3)
        log_f = negbin_row_sum_log_pmf(hp.nb_r, hp.nb_p, 3)
        prior = np.array([brute_force_row_log_prior(z, pi, log_f) for z in rows])
        rates = rows.astype(np.float64) @ b
        want = []
        for n in range(2):
            seen = ~mask.is_held_out(np.full(3, n), np.arange(3))
            log_p = prior + poisson_log_pmf(x[n][seen], rates[:, seen]).sum(axis=1)
            p = np.exp(log_p - log_p.max())
            want.append(p / p.sum())
        # joint code of (row 0, row 1): row 0's code + 8 * row 1's
        want = np.outer(want[1], want[0]).ravel()
        weights = 1 << np.arange(3)
        codes = []
        for it in range(40_000):
            runner._sweep_z_internal()
            if it % 4 == 0:
                codes.append(int(runner.z[0] @ weights + 8 * (runner.z[1] @ weights)))
        observed = np.bincount(codes, minlength=64)
        assert observed[want == 0].sum() == 0
        expected = want * len(codes)
        # pool the thin bins into one so every chi-square cell has mass
        thin = (expected < 5) & (want > 0)
        obs = np.append(observed[expected >= 5], observed[thin].sum())
        exp = np.append(expected[expected >= 5], expected[thin].sum())
        assert exp[-1] > 5
        p_value = stats.chisquare(obs, exp).pvalue
        assert p_value > 1e-3

    def test_positive_row_keeps_its_last_feature(self):
        # every row starts with features {0, 1}; feature 0's mass forces it
        # off, after which the cell rate kept through the sweep is
        # (50 + v) - 50, a rounding error above v = b[1, 0].  A sweep that
        # took feature 1's leave-one-out rate from it (about 1e-15, not 0)
        # would give the count only ~32 nats against feature 1's rate mass
        # of 40 and switch the row's last feature off
        v = 0.1
        assert (50.0 + v) - 50.0 > v
        n = 50
        x = np.zeros((n, 3), dtype=np.int64)
        x[:, 0] = 1
        b = np.array([[50.0, 50.0, 50.0], [v, 20.0, 20.0]])
        for seed in range(5):
            runner = runner_at(x, np.ones((n, 2)), b, np.full(2, 0.5), seed=seed)
            runner._sweep_z_internal()
            np.testing.assert_array_equal(runner.z, np.tile([0, 1], (n, 1)))
            runner._refresh_aux_internal()
            runner._validate_internal()

    def test_row_sums_and_positive_rows_over_a_chain(self, rng):
        # over many full iterations, after every Z sweep the cached row sums
        # match Z and every row with a positive training count keeps a feature
        x = rng.poisson(0.4, size=(30, 12))
        x[3] = 0
        mask = ObservationMask(frozenset({(0, 0), (5, 7), (9, 2)}), 30, 12)
        runner = ChainRunner(CountMatrix.from_dense(x), mask, ChainConfig(hyper=tiny_hyper(k_max=6)))
        r, c = np.nonzero(x)
        positive = np.bincount(r[~mask.is_held_out(r, c)], minlength=30) > 0
        for _ in range(200):
            runner._sweep_z_internal()
            np.testing.assert_array_equal(runner._row_sums, runner.z.sum(axis=1))
            assert np.all(runner.z[positive].sum(axis=1) >= 1)
            runner._mh_pi_internal()
            runner._refresh_aux_internal()
            runner._update_b_internal()
            runner._update_alpha_internal()
            runner._validate_internal()


class TestMhUpdatePi:
    """The pi MH stage, ``_mh_pi_internal``."""

    def test_acceptance_counts_match_moved_atoms(self, rng):
        runner = ChainRunner(tiny_data(rng), None, ChainConfig(hyper=tiny_hyper()))
        for _ in range(20):
            pi_before = runner.pi.copy()
            acc_before = runner._win_acc
            runner._mh_pi_internal()
            assert runner._win_acc - acc_before == int((runner.pi != pi_before).sum())

    def test_prior_only_stationary_distribution(self):
        # a single all-zero row contributes nothing to the weight target
        # (e_0 = 1), so sweeping pi should sample the truncated atom prior
        runner = runner_at(
            np.zeros((1, 3), dtype=np.int64),
            np.zeros((1, 2)),
            np.full((2, 3), 0.5),
            np.array([0.3, 0.05]),
            seed=5,
            c=1.0,
            sigma=0.5,
            eps_trunc=0.01,
        )
        hp = runner.config.hyper
        kept = []
        for it in range(6000):
            runner._mh_pi_internal()
            if it >= 500 and it % 5 == 0:
                kept.extend(runner.pi.tolist())
        ks = stats.kstest(np.array(kept), restricted_density_cdf(hp.c, hp.sigma, hp.eps_trunc))
        assert ks.statistic < 0.04

    def test_rejects_proposals_outside_support(self, rng):
        # a huge step makes most proposals leave [eps, ceiling]; they must
        # be rejected without moving the atom
        hp = tiny_hyper(eps_trunc=0.2)
        runner = ChainRunner(tiny_data(rng), None, ChainConfig(hyper=hp))
        runner._step = 80.0
        for _ in range(50):
            runner._mh_pi_internal()
            assert np.all(runner.pi >= hp.eps_trunc)
            assert np.all(runner.pi < 1.0)
            runner._validate_internal()

    def test_low_acceptance_shrinks_the_step_to_its_floor(self, rng, monkeypatch):
        # at a step of 40 on the logit scale most proposals leave the support,
        # so each burn-in window of 100 iterations accepts under 20%: the
        # step falls by 0.7x per window, and no lower than _STEP_MIN (raised
        # here to 20 so that the floor is reached in two windows)
        monkeypatch.setattr(mcmc, "_STEP_MIN", 20.0)
        hp = tiny_hyper(burn_in=300)
        runner = ChainRunner(tiny_data(rng), None, ChainConfig(hyper=hp))
        runner._step = 40.0
        for want in (40.0 * 0.7, 20.0, 20.0):
            for _ in range(99):
                runner.step_once()
            # 99 pi stages of k_max proposals each
            assert runner._win_acc < 0.2 * 99 * hp.k_max
            runner.step_once()
            assert runner._step == want
            assert runner._win_acc == 0

    def test_every_chain_starts_at_one_step(self, rng):
        # the step is the chain's state, not a setting: no HyperParams field
        # sets it, and a summary stores no final step
        assert mcmc._STEP_START == 0.5
        assert ChainRunner(tiny_data(rng), None, ChainConfig(hyper=tiny_hyper()))._step == 0.5
        assert len(dataclasses.fields(HyperParams)) == 14
        assert len(dataclasses.fields(PosteriorSummary)) == 10
        assert mcmc._CHAIN_SCALARS == ("iteration", "alpha", "step", "win_acc", "runtime", "n_retained")
        with pytest.raises(TypeError):
            HyperParams(mh_step=1.0)
        with pytest.raises(DomainError, match="mh_step"):
            HyperParams.from_dict({"mh_step": 1.0})

    @pytest.mark.parametrize("burn_in", [0, 150, 200])
    def test_accept_rate_counts_the_retained_kernel_only(self, rng, burn_in):
        # the window counter closes at the end of burn-in, mid-window (150)
        # or on a window's end (200), so the summary's rate counts the
        # accepts of the iterations after burn-in and no others
        hp = tiny_hyper(burn_in=burn_in, n_samples=30)
        runner = ChainRunner(tiny_data(rng), None, ChainConfig(hyper=hp))
        moved = 0
        while runner.iteration < burn_in + hp.n_samples:
            before = runner.pi.copy()
            runner.step_once()
            runner._maybe_retain()
            if runner.iteration > burn_in:
                moved += int((runner.pi != before).sum())
        assert runner.summary().pi_accept_rate == moved / (hp.k_max * hp.n_samples)


class TestGibbsUpdateB:
    def test_prior_mean_without_data(self, rng):
        hp = tiny_hyper(alpha_b=0.01, mu_b=1.0)
        draws = gibbs_update_B(np.zeros((400, 500)), np.zeros((400, 500)), hp, rng)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - hp.mu_b) < 3 * se

    def test_posterior_mean(self, rng):
        hp = tiny_hyper(alpha_b=0.01, mu_b=1.0)
        aux = np.full((300, 300), 10.0)
        act = np.full((300, 300), 5.0)
        draws = gibbs_update_B(aux, act, hp, rng)
        want = (hp.alpha_b + 10.0) / (hp.alpha_b / hp.mu_b + 5.0)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - want) < 3 * se

    def test_floor_keeps_loadings_positive(self, rng):
        hp = tiny_hyper(alpha_b=0.01, mu_b=1.0)
        draws = gibbs_update_B(np.zeros((400, 500)), np.zeros((400, 500)), hp, rng)
        assert np.all(draws > 0)
        # the tiny-shape prior underflows often enough that the floor is real
        assert np.any(draws == _B_FLOOR)

    def test_validation(self, rng):
        with pytest.raises(DomainError):
            gibbs_update_B(np.array([[-1.0]]), np.array([[0.0]]), tiny_hyper(), rng)


class TestSampleAlpha:
    def test_exposure_anchored_posterior_mean(self, rng):
        # eps = e^-2 at c=1, sigma=0 makes the exposure mass exactly 2, so
        # with a unit Gamma prior and k_max = 14 the posterior is Gamma(15, rate 3)
        hp = tiny_hyper(k_max=14, c=1.0, sigma=0.0, eps_trunc=float(np.exp(-2.0)))
        mass = levy_exposure_mass(hp.eps_trunc, hp.c, hp.sigma)
        np.testing.assert_allclose(mass, 2.0, rtol=1e-12)
        draws = np.array([sample_alpha(mass, hp, rng) for _ in range(100_000)])
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - 5.0) < 3 * se
        np.testing.assert_allclose(draws.var(ddof=1), 15.0 / 9.0, rtol=0.05)

    def test_no_features(self):
        # the alpha stage counts no K+: a chain with no active feature still
        # draws Gamma(1 + k_max, rate 1 + 2), at k_max = 3 of mean 4/3
        hyper = dict(c=1.0, sigma=0.0, eps_trunc=float(np.exp(-2.0)))
        runner = runner_at(np.zeros((2, 2)), np.zeros((2, 3)), np.ones((3, 2)), np.full(3, 0.5), **hyper)
        draws = np.empty(40_000)
        for i in range(draws.size):
            runner._update_alpha_internal()
            draws[i] = runner.alpha
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - 4.0 / 3.0) < 3 * se
        assert not runner.z.any()


class TestRefreshAux:
    def test_sums_and_support(self, rng):
        data = tiny_data(rng, n=5, d=4)
        mask = ObservationMask(frozenset({(0, 1), (2, 3)}), 5, 4)
        hp = tiny_hyper()
        runner = ChainRunner(data, mask, ChainConfig(hyper=hp))
        runner._refresh_aux_internal()
        state = runner.state_snapshot()
        state.validate_against(data, mask, hp.eps_trunc)
        cells = np.array(list(state.aux)).reshape(-1, 2)
        assert not mask.is_held_out(cells[:, 0], cells[:, 1]).any()
        splits = np.array(list(state.aux.values()))
        np.testing.assert_array_equal(splits.sum(axis=1), data.counts_at(cells[:, 0], cells[:, 1]))
        # every observed positive cell has a split
        training = ~mask.is_held_out(data.rows, data.cols)
        want = list(zip(data.rows[training].tolist(), data.cols[training].tolist()))
        assert sorted(map(tuple, cells.tolist())) == want

    def test_zero_membership_with_positive_count_is_an_error(self):
        # the constructor refuses such a start state, so the counts are
        # swapped in under a row with no active feature
        runner = runner_at([[0]], [[0]], np.array([[2.0]]), np.array([0.5]))
        with pytest.raises(InvariantError, match=r"positive count with all-zero rates at cell \(0, 0\)"):
            runner.set_data_counts(np.array([[3]]))


class TestPredictiveLogLik:
    def test_two_sample_average(self):
        # rates 1 and 3 at x = 2: log(mean of the two Poisson pmfs)
        summary = make_summary(
            z_samples=[[[1]], [[1]]],
            b_samples=[[[1.0]], [[3.0]]],
        )
        want = np.log(0.5 * (np.exp(-1.0) / 2.0 + 9.0 * np.exp(-3.0) / 2.0))
        got = predictive_log_lik(summary, (0, 0), 2)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        np.testing.assert_allclose(got, -1.5896805600816661, rtol=1e-10)

    def test_single_sample(self):
        summary = make_summary(z_samples=[[[1]]], b_samples=[[[1.0]]])
        np.testing.assert_allclose(predictive_log_lik(summary, (0, 0), 1), -1.0, rtol=1e-12)

    def test_zero_rate_point_mass(self):
        summary = make_summary(z_samples=[[[0]]], b_samples=[[[2.0]]])
        np.testing.assert_allclose(predictive_log_lik(summary, (0, 0), 0), 0.0, atol=1e-15)
        assert predictive_log_lik(summary, (0, 0), 3) == -np.inf

    def test_mixed_zero_and_positive_rates(self):
        summary = make_summary(
            z_samples=[[[0]], [[1]]],
            b_samples=[[[2.0]], [[2.0]]],
        )
        # the zero-rate sample contributes nothing at x = 1
        want = np.log(0.5 * 2.0 * np.exp(-2.0))
        np.testing.assert_allclose(predictive_log_lik(summary, (0, 0), 1), want, rtol=1e-12)

    def test_cell_bounds(self):
        summary = make_summary(z_samples=[[[1]]], b_samples=[[[1.0]]])
        with pytest.raises(DomainError):
            predictive_log_lik(summary, (0, 1), 0)
        with pytest.raises(DomainError):
            predictive_log_lik(summary, (1, 0), 0)

    def test_fractional_cell_is_refused(self):
        summary = make_summary(z_samples=[[[1], [1]]], b_samples=[[[1.0, 2.0]]])
        assert predictive_log_lik(summary, (1.0, 0.0), 1) == predictive_log_lik(summary, (1, 0), 1)
        with pytest.raises(DomainError, match=r"cell \(0\.5, 1\) has an index that is not an integer"):
            predictive_log_lik(summary, (0.5, 1), 1)
        with pytest.raises(DomainError, match=r"cell \(0, 2\) outside 2x2"):
            predictive_log_lik(summary, (0, 2), 1)


class TestChainConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            ChainConfig(hyper=tiny_hyper(), checkpoint_interval=-1)
        with pytest.raises(DomainError):
            ChainConfig(hyper=tiny_hyper(), checkpoint_interval=5)

    def test_checkpoint_interval_is_an_int(self):
        cfg = ChainConfig(hyper=tiny_hyper(), checkpoint_path="x.bin", checkpoint_interval=4.0)
        assert cfg.checkpoint_interval == 4 and type(cfg.checkpoint_interval) is int
        for bad in (2.5, True, "4"):
            with pytest.raises(DomainError, match="'checkpoint_interval' must be int"):
                ChainConfig(hyper=tiny_hyper(), checkpoint_path="x.bin", checkpoint_interval=bad)
        with pytest.raises(DomainError, match="'hyper' must be HyperParams"):
            ChainConfig(hyper=tiny_hyper().to_dict())


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


# the sha256 of a short fixed-seed fit's summary file and of the meta chain
# fitted on it, so a change to any stage's draws or to their order shows here
FIXED_SEED_SUMMARIES = {
    "fit": "56367707c664acdb75ade0bc157a2f35b5392280d9ea2829ab4191a26e8d8074",
    "meta": "b9e5696c6661344a5e787d19c51c317af65b4dad0ac7f9fd9517e7edf811f834",
}


class TestChainRunner:
    @settings(max_examples=150, deadline=None)
    # acceptance 1.8e-8 under the power-law proposal alone
    @example(
        c_plus_sigma=30.46, sigma=0.19, eps=0.398, k_max=20, shape=1.0, scale=1.0,
        nb_r=1.0, nb_p=0.1, alpha_b=0.01, mu_b=1.0, seed=0, n=11, d=8,
    )
    # eps^-sigma rounds to 1, so a plain power-law inverse CDF returns 1
    @example(
        c_plus_sigma=2.08, sigma=5.8e-127, eps=2.4e-9, k_max=15, shape=1.0, scale=1.9,
        nb_r=1.0, nb_p=0.65, alpha_b=5.4, mu_b=16.7, seed=0, n=1, d=1,
    )
    @given(
        c_plus_sigma=log_uniform(1e-3, 500.0),
        sigma=st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
        eps=log_uniform(1e-12, 0.99),
        k_max=st.integers(1, 20),
        shape=log_uniform(1e-2, 1e2),
        scale=log_uniform(1e-2, 1e2),
        nb_r=log_uniform(1e-2, 1e2),
        nb_p=st.floats(0.01, 0.99),
        alpha_b=log_uniform(1e-3, 1e2),
        mu_b=log_uniform(1e-2, 1e2),
        seed=st.integers(0, 2**64 - 1),
        n=st.integers(1, 11),
        d=st.integers(1, 8),
    )
    def test_every_accepted_configuration_runs(
        self, c_plus_sigma, sigma, eps, k_max, shape, scale, nb_r, nb_p, alpha_b, mu_b, seed, n, d
    ):
        try:
            hp = HyperParams(
                alpha_prior_shape=shape,
                alpha_prior_scale=scale,
                c=c_plus_sigma - sigma,
                sigma=sigma,
                nb_r=nb_r,
                nb_p=nb_p,
                alpha_b=alpha_b,
                mu_b=mu_b,
                k_max=k_max,
                eps_trunc=eps,
                burn_in=5,
                n_samples=3,
                seed=seed,
            )
        except DomainError:
            return
        x = np.random.default_rng(seed).poisson(2.0, size=(n, d))
        with deadline(20):
            summary = run_chain(CountMatrix.from_dense(x), None, ChainConfig(hyper=hp))
        assert summary.n_samples == 3

    def test_fixed_seed_summaries_are_pinned(self, tmp_path):
        # a change that moves a pin says why in CHANGES.md
        x = np.random.default_rng(3).poisson(1.5, size=(30, 12))
        config = ChainConfig(hyper=tiny_hyper(k_max=5, burn_in=20, n_samples=10, seed=3))
        fit = run_chain(CountMatrix.from_dense(x), None, config)
        for name, summary in (("fit", fit), ("meta", meta_features(fit, config))):
            save_summary(summary, tmp_path / f"{name}.bin")
            digest = hashlib.sha256((tmp_path / f"{name}.bin").read_bytes()).hexdigest()
            assert digest == FIXED_SEED_SUMMARIES[name], name

    def test_fixed_seed_reruns_are_identical(self, rng):
        data = tiny_data(rng)
        cfg = ChainConfig(hyper=tiny_hyper())
        a = run_chain(data, None, cfg)
        b = run_chain(data, None, cfg)
        np.testing.assert_array_equal(a.z_samples, b.z_samples)
        np.testing.assert_array_equal(a.b_samples, b.b_samples)
        np.testing.assert_array_equal(a.pi_samples, b.pi_samples)
        np.testing.assert_array_equal(a.alpha_samples, b.alpha_samples)
        np.testing.assert_array_equal(a.kplus_trace, b.kplus_trace)

    def test_seed_changes_trajectory(self, rng):
        data = tiny_data(rng)
        a = run_chain(data, None, ChainConfig(hyper=tiny_hyper(seed=1)))
        b = run_chain(data, None, ChainConfig(hyper=tiny_hyper(seed=2)))
        assert not (
            np.array_equal(a.b_samples, b.b_samples)
            and np.array_equal(a.z_samples, b.z_samples)
        )

    def test_held_out_cells_never_touch_the_stream(self, rng):
        # changing a held-out cell's value must not change anything the
        # chain computes, draws, or retains
        x = rng.poisson(2.0, size=(6, 4))
        x2 = x.copy()
        x2[2, 3] = x[2, 3] + 17
        mask = ObservationMask(frozenset({(2, 3)}), 6, 4)
        cfg = ChainConfig(hyper=tiny_hyper())
        a = run_chain(CountMatrix.from_dense(x), mask, cfg)
        b = run_chain(CountMatrix.from_dense(x2), mask, cfg)
        np.testing.assert_array_equal(a.z_samples, b.z_samples)
        np.testing.assert_array_equal(a.b_samples, b.b_samples)
        np.testing.assert_array_equal(a.pi_samples, b.pi_samples)
        np.testing.assert_array_equal(a.alpha_samples, b.alpha_samples)

    def test_aux_identity_every_iteration(self, rng):
        data = tiny_data(rng, n=7, d=5)
        mask = ObservationMask(frozenset({(1, 1), (4, 0)}), 7, 5)
        runner = ChainRunner(data, mask, ChainConfig(hyper=tiny_hyper(k_max=4)))
        for _ in range(40):
            runner.step_once()
            snap = runner.state_snapshot()
            snap.validate_against(data, mask, runner.config.hyper.eps_trunc)

    def test_summary_shapes_and_traces(self, rng):
        data = tiny_data(rng)
        hp = tiny_hyper(burn_in=20, n_samples=8, thin=2)
        summary = run_chain(data, None, ChainConfig(hyper=hp))
        assert summary.z_samples.shape == (8, 6, 3)
        assert summary.b_samples.shape == (8, 3, 4)
        assert summary.pi_samples.shape == (8, 3)
        assert summary.alpha_samples.shape == (8,)
        assert summary.n_samples == 8
        assert summary.hyper == hp
        want_kplus = (summary.z_samples.sum(axis=1) > 0).sum(axis=1)
        np.testing.assert_array_equal(summary.kplus_trace, want_kplus)

    def test_summary_views_the_draw_store_read_only(self, rng):
        runner = ChainRunner(tiny_data(rng), None, ChainConfig(hyper=tiny_hyper(burn_in=2, n_samples=6)))
        for _ in range(5):
            runner.step_once()
            runner._maybe_retain()
        mid = runner.summary()
        assert mid.n_samples == 3
        kept = {name: getattr(mid, name).copy() for name in PosteriorSummary.per_draw_dtypes()}
        for name, dtype in PosteriorSummary.per_draw_dtypes().items():
            view = getattr(mid, name)
            assert view.dtype == dtype and runner._draws[name].dtype == dtype
            assert np.shares_memory(view, runner._draws[name])
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0] = 0
        # the chain runs on and fills the rows after the third, under the views
        final = runner.run()
        assert final.n_samples == 6
        for name, rows in kept.items():
            np.testing.assert_array_equal(getattr(mid, name), rows)
            np.testing.assert_array_equal(getattr(final, name)[:3], rows)

    def test_summary_allocates_no_per_draw_array(self, rng):
        # the store holds 200 draws of a 20x10 Z and a 10x100 B, 1.6 MB; the
        # summary allocates its two means, 10 kB, and numpy's 64 kB buffer
        # for the mean of the int8 Z
        hp = tiny_hyper(k_max=10, burn_in=0, n_samples=200)
        runner = ChainRunner(tiny_data(rng, n=20, d=100), None, ChainConfig(hyper=hp))
        runner.run()
        store = sum(rows.nbytes for rows in runner._draws.values())
        tracemalloc.start()
        try:
            runner.summary()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * store

    def test_summary_before_sampling_is_an_error(self, rng):
        runner = ChainRunner(tiny_data(rng), None, ChainConfig(hyper=tiny_hyper()))
        with pytest.raises(DomainError):
            runner.summary()

    def test_mask_shape_mismatch(self, rng):
        with pytest.raises(DomainError):
            ChainRunner(tiny_data(rng), ObservationMask.none_held_out(3, 3), ChainConfig(hyper=tiny_hyper()))

    def test_start_state_shape_mismatch(self, rng):
        data = tiny_data(rng)
        state = ChainRunner(data, None, ChainConfig(hyper=tiny_hyper())).state_snapshot()
        with pytest.raises(DomainError):
            ChainRunner(data, None, ChainConfig(hyper=tiny_hyper(k_max=4)), state=state)
        with pytest.raises(DomainError):
            ChainRunner(tiny_data(rng, n=5), None, ChainConfig(hyper=tiny_hyper()), state=state)
        with pytest.raises(DomainError):
            ChainRunner(tiny_data(rng, d=5), None, ChainConfig(hyper=tiny_hyper()), state=state)

    @pytest.mark.parametrize("weight", [1e-5, 1.0 - 1e-16, 1.0, np.nan])
    def test_start_weight_outside_its_support_is_refused(self, weight):
        # each weight lies outside [eps_trunc, PI_CEILING] = [1e-3, 1 - 1e-15]
        z = np.array([[1, 0, 1], [0, 1, 1]])
        with pytest.raises(DomainError, match=r"start weight pi\[1\] = .* lies outside \[0\.001, PI_CEILING\]"):
            runner_at([[1, 2], [3, 0]], z, np.ones((3, 2)), [0.5, weight, 0.5], eps_trunc=1e-3)

    def test_start_row_with_an_observed_count_and_no_feature_is_refused(self):
        with pytest.raises(DomainError, match=r"start row 1 has an observed positive count but no active feature"):
            runner_at([[1, 2], [3, 0]], [[1, 0], [0, 0]], np.ones((2, 2)), [0.5, 0.5])

    def test_start_row_whose_positive_counts_are_all_held_out_may_be_empty(self):
        mask = ObservationMask([(1, 0)], 2, 2)
        runner = runner_at([[1, 2], [3, 0]], [[1, 0], [0, 0]], np.ones((2, 2)), [0.5, 0.5], mask=mask)
        runner.step_once()

    def test_start_weights_at_the_support_edges_run(self):
        runner = runner_at([[1, 2], [3, 0]], [[1, 0], [0, 1]], np.ones((2, 2)), [1e-3, PI_CEILING], eps_trunc=1e-3)
        runner.step_once()

    def test_a_chain_runs_with_its_floor_at_the_ceiling(self, rng):
        # the largest floor HyperParams accepts leaves the weights one point
        summary = run_chain(tiny_data(rng), None, ChainConfig(hyper=tiny_hyper(eps_trunc=PI_CEILING)))
        assert np.all(summary.pi_samples == PI_CEILING)

    def test_start_state_summary_is_pinned(self, tmp_path):
        # the sha256 of a summary from a fixed start state, so a change to
        # how a given state starts a chain that moves a draw shows here
        rng = np.random.default_rng(5)
        x = rng.poisson(1.5, size=(20, 8))
        z = (rng.random((20, 4)) < 0.5).astype(np.int8)
        z[:, 0] = 1
        state = LatentState(z=z, b=rng.gamma(1.0, 1.0, size=(4, 8)), pi=rng.uniform(0.1, 0.9, size=4), alpha=2.0)
        config = ChainConfig(hyper=tiny_hyper(k_max=4, burn_in=10, n_samples=5, seed=3))
        save_summary(ChainRunner(CountMatrix.from_dense(x), None, config, state=state).run(), tmp_path / "s.bin")
        digest = hashlib.sha256((tmp_path / "s.bin").read_bytes()).hexdigest()
        assert digest == "3411afb648ec3186019f1e8ce2ca6c45a1052822e231aa50e1abbcf768c93a66"

    def test_set_data_counts_swaps_and_validates(self, rng):
        data = tiny_data(rng)
        runner = ChainRunner(data, None, ChainConfig(hyper=tiny_hyper()))
        new_x = rng.poisson(1.0, size=(6, 4))
        runner.set_data_counts(new_x)
        np.testing.assert_array_equal(runner.data.dense, new_x)
        snap = runner.state_snapshot()
        snap.validate_against(runner.data, runner.mask, runner.config.hyper.eps_trunc)
        with pytest.raises(DomainError):
            runner.set_data_counts(np.zeros((2, 2), dtype=np.int64))


class TestCheckpointing:
    def test_resume_reproduces_uninterrupted_run(self, rng, tmp_path):
        data = tiny_data(rng)
        path = str(tmp_path / "chain.bin")
        # at seeds 5 and 8 an accepted pi proposal's logit differs from
        # log_odds(pi) in the last bit, so a resume that re-derived the
        # logits from pi drifted off the uninterrupted trajectory
        for seed in (1, 5, 8):
            hp = tiny_hyper(seed=seed, burn_in=6, n_samples=6, thin=1)
            plain = run_chain(data, None, ChainConfig(hyper=hp))
            cfg = ChainConfig(hyper=hp, checkpoint_path=path, checkpoint_interval=5)
            run_chain(data, None, cfg)
            # the file now holds iteration 10 of 12; resuming finishes the chain
            runner = ChainRunner.from_checkpoint(path, data)
            assert runner.iteration == 10
            resumed = runner.run()
            np.testing.assert_array_equal(resumed.z_samples, plain.z_samples)
            np.testing.assert_array_equal(resumed.b_samples, plain.b_samples)
            np.testing.assert_array_equal(resumed.pi_samples, plain.pi_samples)
            np.testing.assert_array_equal(resumed.alpha_samples, plain.alpha_samples)
            np.testing.assert_array_equal(resumed.kplus_trace, plain.kplus_trace)

    def test_load_checkpoint_view(self, rng, tmp_path):
        data = tiny_data(rng)
        path = str(tmp_path / "chain.bin")
        hp = tiny_hyper(burn_in=4, n_samples=2, thin=1)
        runner = ChainRunner(data, None, ChainConfig(hyper=hp))
        for _ in range(3):
            runner.step_once()
        runner.save_checkpoint(path)
        _, meta = read_records(path)
        assert meta["schema_version"] == CHECKPOINT_SCHEMA == 8
        assert meta["hyper"] == hp.to_dict() and meta["hyper_digest"] == hp.digest()
        # the chain's state holds no file path
        assert meta["checkpoint_interval"] == 0
        assert path not in json.dumps(meta) and "checkpoint_path" not in meta
        loaded = ChainRunner.from_checkpoint(path, data)
        assert loaded.iteration == 3
        assert loaded.config.hyper.digest() == hp.digest()
        np.testing.assert_array_equal(loaded.z, runner.z)
        np.testing.assert_array_equal(loaded.b, runner.b)
        np.testing.assert_array_equal(loaded.pi, runner.pi)
        assert loaded.alpha == runner.alpha
        assert loaded._rng.bit_generator.state == runner._rng.bit_generator.state

    def test_data_digest_mismatch(self, rng, tmp_path):
        data = tiny_data(rng)
        path = str(tmp_path / "chain.bin")
        runner = ChainRunner(data, None, ChainConfig(hyper=tiny_hyper()))
        runner.step_once()
        runner.save_checkpoint(path)
        other = tiny_data(rng)
        with pytest.raises(CheckpointError):
            ChainRunner.from_checkpoint(path, other)

    def test_hyper_digest_mismatch(self, rng, tmp_path):
        # a header whose hyperparameters were edited no longer matches
        # their stored digest
        data = tiny_data(rng)
        path = str(tmp_path / "chain.bin")
        runner = ChainRunner(data, None, ChainConfig(hyper=tiny_hyper()))
        runner.step_once()
        runner.save_checkpoint(path)
        arrays, meta = read_records(path)
        write_records(path, arrays, {**meta, "hyper": {**meta["hyper"], "c": 2.0}})
        with pytest.raises(CheckpointError, match="digest"):
            ChainRunner.from_checkpoint(path, data)

    def test_mask_digest_mismatch(self, rng, tmp_path):
        data = tiny_data(rng)
        path = str(tmp_path / "chain.bin")
        runner = ChainRunner(data, None, ChainConfig(hyper=tiny_hyper()))
        runner.step_once()
        runner.save_checkpoint(path)
        with pytest.raises(CheckpointError):
            ChainRunner.from_checkpoint(path, data, mask=ObservationMask(frozenset({(0, 0)}), 6, 4))

    def test_wrong_kind_rejected(self, tmp_path, rng):
        path = str(tmp_path / "other.bin")
        write_records(path, {"z": np.zeros((1, 1), np.int8)}, {"kind": "something-else"})
        with pytest.raises(CheckpointError):
            ChainRunner.from_checkpoint(path, tiny_data(rng))

    def test_old_schema_rejected(self, tmp_path, rng):
        # schema 2 stored the aux split, schema 3 named the retained draws
        # ret_*, schema 4 stored the mask's cells, schema 5 the chain config
        # with its checkpoint path and schema 6 the pi stage's proposal
        # counts, schema 7 a second accept counter; a schema-8 reader reads
        # none of them
        path = str(tmp_path / "old.bin")
        for old in (1, 2, 3, 4, 5, 6, 7):
            write_records(path, {"z": np.zeros((1, 1), np.int8)}, {"kind": "chain-checkpoint", "schema_version": old})
            with pytest.raises(CheckpointError, match=f"schema {old}"):
                ChainRunner.from_checkpoint(path, tiny_data(rng))

    def test_checkpoint_has_no_aux_record(self, rng, tmp_path):
        path = str(tmp_path / "chain.bin")
        runner = ChainRunner(tiny_data(rng), None, ChainConfig(hyper=tiny_hyper()))
        runner.step_once()
        runner.save_checkpoint(path)
        arrays, _ = read_records(path)
        assert set(arrays) == {
            "z", "b", "pi", "logw", "z_samples", "b_samples", "pi_samples", "alpha_samples", "kplus_trace"
        }

    def test_checkpoint_after_last_draw_resumes_to_identical_summary(self, rng, tmp_path):
        data = tiny_data(rng)
        path = str(tmp_path / "chain.bin")
        hp = tiny_hyper(burn_in=3, n_samples=4, thin=2)
        cfg = ChainConfig(hyper=hp, checkpoint_path=path, checkpoint_interval=hp.burn_in + hp.n_samples * hp.thin)
        plain = run_chain(data, None, cfg)
        restored = ChainRunner.from_checkpoint(path, data)
        assert restored.iteration == hp.burn_in + hp.n_samples * hp.thin
        # restoring and saving again writes the same checkpoint
        again = str(tmp_path / "again.bin")
        restored.save_checkpoint(again)
        assert open(again, "rb").read() == open(path, "rb").read()
        want, got = str(tmp_path / "plain.bin"), str(tmp_path / "resumed.bin")
        save_summary(plain, want)
        save_summary(restored.run(), got)
        assert open(got, "rb").read() == open(want, "rb").read()

    def test_restored_chain_checkpoints_into_the_file_it_was_read_from(self, rng, tmp_path):
        # the checkpoint stores its interval but no path, so a moved
        # checkpoint is the one the restored chain keeps writing
        data = tiny_data(rng)
        hp = tiny_hyper(burn_in=4, n_samples=4, thin=1)
        first, moved = str(tmp_path / "first.bin"), str(tmp_path / "moved.bin")
        runner = ChainRunner(data, None, ChainConfig(hyper=hp, checkpoint_path=first, checkpoint_interval=3))
        for _ in range(3):
            runner.step_once()
        runner.save_checkpoint(first)
        os.replace(first, moved)
        restored = ChainRunner.from_checkpoint(moved, data)
        assert restored.config == ChainConfig(hyper=hp, checkpoint_path=moved, checkpoint_interval=3)
        restored.run()
        assert not os.path.exists(first)
        assert ChainRunner.from_checkpoint(moved, data).iteration == 6

    def test_restored_runner_has_no_split_then_resumes_byte_identically(self, rng, tmp_path):
        data = tiny_data(rng)
        mask = ObservationMask(frozenset({(1, 2), (4, 0)}), 6, 4)
        path = str(tmp_path / "chain.bin")
        hp = tiny_hyper(burn_in=5, n_samples=6, thin=1)
        plain = run_chain(data, mask, ChainConfig(hyper=hp))
        runner = ChainRunner(data, mask, ChainConfig(hyper=hp))
        for _ in range(7):
            runner.step_once()
            runner._maybe_retain()
        runner.save_checkpoint(path)
        # the checkpoint holds the mask's digest, not its cells, so a masked
        # chain resumes only with its mask
        with pytest.raises(CheckpointError, match="pass the mask"):
            ChainRunner.from_checkpoint(path, data)
        restored = ChainRunner.from_checkpoint(path, data, mask)
        # no split until the first aux stage; the restored state still validates
        assert restored._split is None
        restored._validate_internal()
        with pytest.raises(DomainError, match="no auxiliary split"):
            restored.state_snapshot()
        restored.step_once()
        restored.state_snapshot().validate_against(data, mask, hp.eps_trunc)
        restored._maybe_retain()
        resumed = restored.run()
        want, got = str(tmp_path / "plain.bin"), str(tmp_path / "resumed.bin")
        save_summary(plain, want)
        save_summary(resumed, got)
        assert open(got, "rb").read() == open(want, "rb").read()
