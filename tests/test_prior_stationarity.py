"""With no data the chain keeps the prior: alpha and the atom weights.

k_max is read as an observed Poisson(alpha M) count of atoms above the
floor, M the exposure mass, so alpha's law is Gamma(shape + k_max, rate
1/scale + M) whatever the data, and the atom weights are i.i.d. from the
weight measure's normalised density at every sigma, sigma = 0 included.
Two checks hold the chain to that law: with every cell held out its alpha
and mean log pi match exact draws, and at sigma = 0, where the weights once
had a second law, a Geweke test reads alpha and mean log pi too.
"""

import time

import numpy as np
import pytest

from s3ribp import (
    ChainConfig,
    CountMatrix,
    HyperParams,
    ObservationMask,
    levy_exposure_mass,
    run_chain,
    sample_alpha,
    sample_pi_truncated,
)

# imported under a name pytest does not collect a second time
from test_acceptance import TestCriterion5Geweke as _Criterion5
from test_acceptance import batch_se, geweke_gaps
from conftest import every_cell

# criterion 6's setup: a 10x4 matrix with every cell held out
NO_DATA_HP = dict(
    seed=16,
    k_max=6,
    burn_in=200,
    n_samples=1500,
    thin=5,
    nb_r=1.0,
    nb_p=0.5,
    eps_trunc=1e-4,
    alpha_b=0.5,
    mu_b=1.0,
)


@pytest.mark.parametrize("c, sigma", [(1.0, 0.0), (1.0, 0.25), (0.2, 0.3), (5.0, 0.5)])
def test_no_data_chain_draws_the_prior_alpha_and_weights(c, sigma):
    hp = HyperParams(c=c, sigma=sigma, **NO_DATA_HP)
    n_rows, n_cols = 10, 4
    data = CountMatrix.from_dense(np.zeros((n_rows, n_cols), dtype=np.int64))
    summary = run_chain(data, ObservationMask(every_cell(n_rows, n_cols), n_rows, n_cols), ChainConfig(hyper=hp))
    rng = np.random.default_rng(17)
    mass = levy_exposure_mass(hp.eps_trunc, c, sigma)
    exact_alpha = np.array([sample_alpha(mass, hp, rng) for _ in range(20_000)])
    # the atoms are i.i.d., so the mean log weight over all of them estimates a draw's mean log pi
    exact_log_pi = np.log(sample_pi_truncated(c, sigma, 20_000 * hp.k_max, hp.eps_trunc, rng))
    chain_log_pi = np.log(summary.pi_samples).mean(axis=1)
    for name, chain, exact in (
        ("alpha", summary.alpha_samples, exact_alpha),
        ("mean log pi", chain_log_pi, exact_log_pi),
    ):
        se = float(np.hypot(batch_se(chain, n_batches=50), exact.std(ddof=1) / np.sqrt(exact.size)))
        gap = abs(float(chain.mean() - exact.mean())) / se
        assert gap < 3.0, f"{name}: chain {chain.mean():.4f}, exact {exact.mean():.4f}, {gap:.2f} se"


class TestGewekeAtSigmaZero:
    """Criterion 5's Geweke test at sigma = 0, reading alpha and the weights."""

    HP = _Criterion5.HP.replace(sigma=0.0)
    STEPS = 30_000

    @staticmethod
    def stats_of(alpha, pi, z, b):
        return (float(z.any(axis=0).sum()), float(z.sum()), float(b.mean()), alpha, float(np.log(pi).mean()))

    def test_successive_matches_marginal(self):
        t0 = time.monotonic()
        names = ("K+", "sum Z", "mean B", "alpha", "mean log pi")
        gaps = geweke_gaps(self.HP, _Criterion5.N, _Criterion5.D, self.STEPS, self.stats_of, names, (611, 612))
        elapsed = time.monotonic() - t0
        worst = max(gap for _, gap in gaps)
        assert worst < 3.0, ", ".join(f"{name} {gap:.2f}" for name, gap in gaps)
        assert elapsed < 300.0
