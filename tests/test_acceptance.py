"""Acceptance gate: eleven correctness, recovery, and reproducibility checks.

Each test records one PASS/FAIL line through the shared sink (printed in the
terminal summary) and then asserts, so a red run still reports a verdict for
every criterion.  The heavy fixtures (ten 5,500-iteration recovery chains)
are computed once at module scope and reused by the held-out and qq checks.
"""

import time
from math import ceil

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp

from s3ribp import (
    ChainConfig,
    ChainRunner,
    CountMatrix,
    HyperParams,
    LatentState,
    ObservationMask,
    baseline_row_mean_log_perplexity,
    binomial_baseline_qq,
    inclusion_probs,
    jaccard_match,
    log_esp,
    log_perplexity,
    make_splits,
    negbin_row_sum_log_pmf,
    qq_row_nonzeros,
    restricted_row_log_prior,
    run_chain,
    sample_3p_ibp,
    sample_ibp,
    sample_pi_truncated,
    sample_row_given_sum,
    save_summary,
)

from _acceptance_log import record
from conftest import brute_force_inclusion, enumerate_rows
from test_priors import harmonic, poisson_chisq

# the planted-recovery configuration: four disjoint 10-column blocks, one
# spare feature slot, and the sparse-loading prior the blocks were drawn for
RECOVERY_HP = dict(
    k_max=5,
    burn_in=5000,
    n_samples=500,
    thin=1,
    c=1.0,
    sigma=0.25,
    nb_r=1.0,
    nb_p=0.5,
    eps_trunc=1e-6,
    alpha_b=0.01,
    mu_b=1.0,
)


@pytest.fixture(scope="module")
def planted():
    """60x40 counts from 4 planted block features (one overlapping group)."""
    rng = np.random.default_rng(7)
    n, d, k = 60, 40, 4
    z_true = np.zeros((n, k), dtype=np.int8)
    z_true[0:15, 0] = 1
    z_true[15:30, 1] = 1
    z_true[30:45, 2] = 1
    z_true[45:60, 3] = 1
    z_true[53:60, 0] = 1
    b_true = np.zeros((k, d))
    for j in range(k):
        b_true[j, j * 10 : (j + 1) * 10] = rng.gamma(100.0, 5.0 / 100.0, size=10)
    x = rng.poisson(z_true @ b_true)
    data = CountMatrix.from_dense(x)
    true_sets = [frozenset(np.flatnonzero(z_true[:, j]).tolist()) for j in range(k)]
    return data, true_sets


@pytest.fixture(scope="module")
def recovery_runs(planted):
    """Ten seeded fits of the planted data (reused by criteria 7 and 10)."""
    data, _ = planted
    t0 = time.monotonic()
    runs = []
    for seed in range(10):
        hp = HyperParams(seed=seed, **RECOVERY_HP)
        runs.append(run_chain(data, None, ChainConfig(hyper=hp)))
    return runs, time.monotonic() - t0


def fitted_member_sets(summary):
    z_mean = summary.z_mean
    sets = []
    for k in range(z_mean.shape[1]):
        members = frozenset(np.flatnonzero(z_mean[:, k] >= 0.5).tolist())
        if members:
            sets.append(members)
    return sets


def test_criterion_1_conditional_bernoulli_oracle():
    rng = np.random.default_rng(11)
    t0 = time.monotonic()
    worst = 0.0
    for rep in range(200):
        k = int(rng.integers(1, 13))
        if rep % 3:
            pi = rng.uniform(0.02, 0.98, size=k)
        else:  # wide dynamic range to stress the log-space recursion
            pi = 10.0 ** rng.uniform(-6, -0.01, size=k)
        s = int(rng.integers(0, k + 1))
        got = inclusion_probs(pi, s)
        want = brute_force_inclusion(pi, s)
        worst = max(worst, float(np.abs(got - want).max()))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    record(1, ok, f"max |error| {worst:.2e} over 200 cases in {elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 10.0


def test_criterion_2_restricted_prior_normalization():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 13))
        pi = rng.uniform(0.01, 0.95, size=k)
        log_f = np.log(rng.dirichlet(np.ones(k + 1)))
        esp = log_esp(pi / (1.0 - pi))
        log_total = logsumexp(
            [restricted_row_log_prior(row, pi, log_f, esp=esp) for row in enumerate_rows(k)]
        )
        worst = max(worst, abs(float(np.exp(log_total)) - 1.0))
    ok = worst < 1e-8
    record(2, ok, f"max |sum - 1| {worst:.2e} over 50 random (pi, f)")
    assert worst < 1e-8


def test_criterion_3_prior_moments():
    rng = np.random.default_rng(13)
    t0 = time.monotonic()
    n_draws, alpha, n_rows = 10_000, 2.0, 100
    row_means = np.empty(n_draws)
    k_plus = np.empty(n_draws)
    for i in range(n_draws):
        draw = sample_ibp(alpha, n_rows, rng)
        row_means[i] = draw.row_sums().mean()
        k_plus[i] = draw.n_features
    elapsed = time.monotonic() - t0
    se_rows = row_means.std(ddof=1) / np.sqrt(n_draws)
    se_k = k_plus.std(ddof=1) / np.sqrt(n_draws)
    target_k = alpha * harmonic(n_rows)
    gap_rows = abs(row_means.mean() - alpha)
    gap_k = abs(k_plus.mean() - target_k)
    ok = gap_rows <= 3 * se_rows and gap_k <= 3 * se_k and elapsed < 60.0
    record(
        3,
        ok,
        f"mean row sum {row_means.mean():.4f} vs 2 ({gap_rows / se_rows:.2f} se), "
        f"mean K+ {k_plus.mean():.4f} vs {target_k:.4f} ({gap_k / se_k:.2f} se), {elapsed:.0f}s",
    )
    assert gap_rows <= 3 * se_rows
    assert gap_k <= 3 * se_k
    assert elapsed < 60.0


def test_criterion_4_three_parameter_reduction_to_ibp():
    # the three-parameter sampler at c = 1, sigma = 0 against the classic
    # process's exact law, K+ ~ Poisson(alpha H_N)
    rng = np.random.default_rng(14)
    n_reps, alpha, n_rows = 10_000, 2.0, 20
    k_3p = np.array(
        [sample_3p_ibp(alpha, 1.0, 0.0, n_rows, rng).n_features for _ in range(n_reps)]
    )
    mean = alpha * harmonic(n_rows)
    p_value = poisson_chisq(k_3p, mean)
    ok = p_value > 0.01
    record(
        4,
        ok,
        f"K+ against Poisson(alpha H_N) p = {p_value:.3f}, mean {k_3p.mean():.3f} vs {mean:.3f}"
        f" over {n_reps} replicates",
    )
    assert p_value > 0.01


class TestCriterion5Geweke:
    N, D = 8, 5
    HP = HyperParams(
        seed=202,
        k_max=4,
        burn_in=0,
        n_samples=1,
        thin=1,
        c=1.0,
        sigma=0.25,
        nb_r=1.0,
        nb_p=0.5,
        eps_trunc=1e-4,
        alpha_b=0.5,
        mu_b=1.0,
        mh_step=1.0,
    )
    STEPS = 100_000

    def prior_draw(self, rng):
        hp = self.HP
        alpha = float(rng.gamma(hp.alpha_prior_shape, hp.alpha_prior_scale))
        pi = sample_pi_truncated(alpha, hp.c, hp.sigma, hp.k_max, hp.eps_trunc, rng)
        z = np.zeros((self.N, hp.k_max), dtype=np.int8)
        for i in range(self.N):
            s = int(min(rng.negative_binomial(hp.nb_r, hp.nb_p), hp.k_max))
            if s:
                z[i] = sample_row_given_sum(pi, s, rng)
        b = rng.gamma(hp.alpha_b, hp.mu_b / hp.alpha_b, size=(hp.k_max, self.D))
        return alpha, pi, z, b

    @staticmethod
    def stats_of(z, b):
        return (float(z.any(axis=0).sum()), float(z.sum()), float(b.mean()))

    @staticmethod
    def batch_se(x, n_batches=200):
        m = x.shape[0] // n_batches
        means = x[: n_batches * m].reshape(n_batches, m).mean(axis=1)
        return means.std(ddof=1) / np.sqrt(n_batches)

    def test_successive_matches_marginal(self):
        t0 = time.monotonic()

        # marginal-conditional side: independent prior draws
        mrng = np.random.default_rng(601)
        marginal = np.empty((self.STEPS, 3))
        for t in range(self.STEPS):
            _, _, z, b = self.prior_draw(mrng)
            marginal[t] = self.stats_of(z, b)

        # successive-conditional side: exact prior start, then kernel steps
        # alternating with data refreshes; the chain is stationary from step
        # one, so every step contributes
        srng = np.random.default_rng(602)
        alpha0, pi0, z0, b0 = self.prior_draw(srng)
        x0 = srng.poisson(z0.astype(np.float64) @ b0)
        runner = ChainRunner.from_state(
            CountMatrix.from_dense(x0),
            None,
            ChainConfig(hyper=self.HP),
            LatentState(z=z0, b=b0, pi=pi0, alpha=alpha0),
        )
        successive = np.empty((self.STEPS, 3))
        for t in range(self.STEPS):
            runner.step_once()
            successive[t] = self.stats_of(runner.z, runner.b)
            runner.set_data_counts(srng.poisson(runner.z.astype(np.float64) @ runner.b))
        elapsed = time.monotonic() - t0

        worst = 0.0
        lines = []
        for j, name in enumerate(("K+", "sum Z", "mean B")):
            for power in (1, 2):
                a = marginal[:, j] ** power
                b = successive[:, j] ** power
                se = float(np.hypot(a.std(ddof=1) / np.sqrt(a.shape[0]), self.batch_se(b)))
                z_score = abs(float(a.mean() - b.mean())) / se
                worst = max(worst, z_score)
                lines.append(f"{name}^{power} {z_score:.2f}")
        ok = worst < 3.0 and elapsed < 600.0
        record(
            5,
            ok,
            f"moment gaps (in se): {', '.join(lines)}; worst {worst:.2f} < 3, {elapsed:.0f}s",
        )
        assert worst < 3.0
        assert elapsed < 600.0


def test_criterion_6_prior_restoration_without_observations():
    hp = HyperParams(
        seed=16,
        k_max=6,
        burn_in=200,
        n_samples=1500,
        thin=5,
        c=1.0,
        sigma=0.25,
        nb_r=1.0,
        nb_p=0.5,
        eps_trunc=1e-4,
        alpha_b=0.5,
        mu_b=1.0,
        mh_step=1.0,
    )
    n_rows, n_cols = 10, 4
    data = CountMatrix.from_dense(np.zeros((n_rows, n_cols), dtype=np.int64))
    mask = ObservationMask.all_held_out(n_rows, n_cols)
    summary = run_chain(data, mask, ChainConfig(hyper=hp))
    sums = summary.z_samples.sum(axis=2).ravel()
    observed = np.bincount(sums, minlength=hp.k_max + 1).astype(np.float64)
    expected = sums.size * np.exp(negbin_row_sum_log_pmf(hp.nb_r, hp.nb_p, hp.k_max))
    assert expected.min() > 5  # every cell carries enough mass for chi-square
    stat = float(((observed - expected) ** 2 / expected).sum())
    p_value = float(stats.chi2.sf(stat, df=hp.k_max))
    ok = p_value > 0.01
    record(
        6,
        ok,
        f"row sums vs clamped NB(1, 0.5): chi2 {stat:.1f}, p = {p_value:.3f} "
        f"({sums.size} pooled draws)",
    )
    assert p_value > 0.01


def test_criterion_7_planted_recovery(planted, recovery_runs):
    _, true_sets = planted
    runs, elapsed = recovery_runs
    wins = 0
    details = []
    for summary in runs:
        values, counts = np.unique(summary.kplus_trace, return_counts=True)
        mode = int(values[np.argmax(counts)])
        fitted = fitted_member_sets(summary)
        if fitted:
            match = jaccard_match(true_sets, fitted)
            jaccard = match.mean_score if len(match.pairs) == len(true_sets) else 0.0
        else:
            jaccard = 0.0
        hit = mode in (3, 4, 5) and jaccard >= 0.9
        wins += hit
        details.append(f"{mode}/{jaccard:.2f}")
    ok = wins >= 8 and elapsed < 900.0
    record(
        7,
        ok,
        f"{wins}/10 seeds recovered (mode/jaccard: {', '.join(details)}) in {elapsed:.0f}s",
    )
    assert wins >= 8
    assert elapsed < 900.0


def test_criterion_8_held_out_advantage(planted):
    data, _ = planted
    masks = make_splits(data, 0.1, 10, seed=0)
    assert masks[0].n_held_out == ceil(0.1 * data.n_rows * data.n_cols)
    wins = 0
    gaps = []
    for fold, mask in enumerate(masks):
        hp = HyperParams(seed=100 + fold, **{**RECOVERY_HP, "burn_in": 2500, "n_samples": 300})
        summary = run_chain(data, mask, ChainConfig(hyper=hp))
        model = log_perplexity(summary, data, mask)
        baseline = baseline_row_mean_log_perplexity(data, mask)
        wins += model < baseline
        gaps.append(baseline - model)
    ok = wins >= 9
    record(
        8,
        ok,
        f"model beat the row-mean baseline in {wins}/10 folds "
        f"(mean log-perplexity gap {np.mean(gaps):.3f})",
    )
    assert wins >= 9


def test_criterion_9_auxiliary_identity_every_iteration(planted):
    data, _ = planted
    mask = make_splits(data, 0.1, 1, seed=9)[0]
    hp = HyperParams(seed=9, **{**RECOVERY_HP, "burn_in": 100, "n_samples": 150})
    runner = ChainRunner(data, mask, ChainConfig(hyper=hp))
    checked = 0
    for _ in range(hp.burn_in + hp.n_samples):
        runner.step_once()  # raises InvariantError itself on any violation
        state = runner.state_snapshot()
        state.validate_against(data, mask, hp.eps_trunc)
        checked += 1
    record(
        9,
        True,
        f"aux sums equal counts and stay inside active features at all "
        f"{checked} iterations (hard-checked, zero violations)",
    )
    assert checked == hp.burn_in + hp.n_samples


def test_criterion_10_qq_closer_than_binomial_baseline(planted, recovery_runs):
    data, _ = planted
    summary = recovery_runs[0][0]  # the seed-0 fit of the planted data
    rng = np.random.default_rng(20)
    model_points = qq_row_nonzeros(summary, data, 200, rng)
    baseline_points = binomial_baseline_qq(data, 200, rng)
    model_gap = float(np.mean([abs(e - p) for e, p in model_points]))
    baseline_gap = float(np.mean([abs(e - p) for e, p in baseline_points]))
    ok = model_gap < baseline_gap
    record(
        10,
        ok,
        f"mean |quantile gap| model {model_gap:.3f} < baseline {baseline_gap:.3f}",
    )
    assert model_gap < baseline_gap


def test_criterion_11_determinism_and_checkpoint_resume(planted, tmp_path):
    data, _ = planted
    hp = HyperParams(seed=21, **{**RECOVERY_HP, "burn_in": 300, "n_samples": 80})

    save_summary(run_chain(data, None, ChainConfig(hyper=hp)), tmp_path / "a.bin")
    with open(tmp_path / "a.bin", "rb") as fh:
        reference = fh.read()

    # same seed, checkpoints enabled: summary must not change, and the last
    # on-disk checkpoint (iteration 300 of 380) must resume to the same bytes
    ckpt = str(tmp_path / "ck.bin")
    config = ChainConfig(hyper=hp, checkpoint_path=ckpt, checkpoint_interval=150)
    save_summary(run_chain(data, None, config), tmp_path / "b.bin")
    with open(tmp_path / "b.bin", "rb") as fh:
        rerun_identical = fh.read() == reference

    resumed = ChainRunner.from_checkpoint(ckpt, data)
    assert resumed.iteration == 300
    save_summary(resumed.run(), tmp_path / "c.bin")
    with open(tmp_path / "c.bin", "rb") as fh:
        resume_identical = fh.read() == reference

    ok = rerun_identical and resume_identical
    record(
        11,
        ok,
        f"fixed-seed rerun byte-identical: {rerun_identical}; "
        f"checkpoint resume byte-identical: {resume_identical} ({len(reference)} bytes)",
    )
    assert rerun_identical
    assert resume_identical
