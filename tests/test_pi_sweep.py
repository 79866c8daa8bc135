"""The pi MH sweep against the per-proposal ESP recursion it replaced.

``recursion_pi_sweep`` is the sweep as it was before it read each
proposal's ESPs off one prefix and one suffix table: it reran the full
K-step recursion for every proposal.  It is kept here as an oracle.  From
the same generator state both sweeps must leave the same weights, logits,
ESP table and acceptance vector, and the same generator state.
"""

import math

import numpy as np
import pytest
from scipy.special import expit

from s3ribp.condbern import _log_esp_from_logw, _suffix_log_esp, log_odds
from s3ribp.mcmc import _log_convolve, _pi_sweep
from s3ribp.model import PI_CEILING
from s3ribp.priors import atom_log_prior
from test_mcmc import tiny_hyper


def recursion_pi_sweep(pi, logw, log_e, m, s_hist, alpha, hp, rng, step):
    """Random-walk MH pass over atoms in ascending index order, in place.

    The target is the atom prior times every row's restricted prior; the
    pieces that depend on atom k collapse to m_k log w_k minus the summed
    log ESP normalizers at the observed row sums, plus the logit Jacobian.
    Returns a boolean acceptance vector.
    """
    k = pi.shape[0]
    accepted = np.zeros(k, dtype=bool)
    for kk in range(k):
        noise = rng.standard_normal()
        u_accept = rng.random()
        u_old = logw[kk]
        u_prop = u_old + step * noise
        p_prop = float(expit(u_prop))
        if not (hp.eps_trunc <= p_prop <= PI_CEILING):
            continue
        p_old = float(pi[kk])
        logw[kk] = u_prop
        le_prop = _log_esp_from_logw(logw)
        logw[kk] = u_old
        delta = float(m[kk]) * (u_prop - u_old) - float(s_hist @ (le_prop - log_e))
        delta += atom_log_prior(p_prop, alpha, hp.c, hp.sigma, hp.k_max) - atom_log_prior(
            p_old, alpha, hp.c, hp.sigma, hp.k_max
        )
        delta += (math.log(p_prop) + math.log1p(-p_prop)) - (math.log(p_old) + math.log1p(-p_old))
        if u_accept <= 0.0 or math.log(u_accept) < delta:
            pi[kk] = p_prop
            logw[kk] = u_prop
            log_e[:] = le_prop
            accepted[kk] = True
    return accepted


def random_state(rng, k=None, rows="random", eps=1e-4):
    """Weights (some at eps and at the ceiling) and a Z with the chosen row sums."""
    k = int(rng.integers(1, 51)) if k is None else k
    pi = expit(rng.uniform(math.log(eps) - math.log1p(-eps), 20.0, size=k))
    pi = np.clip(pi, eps, PI_CEILING)
    pi[rng.random(k) < 0.1] = eps
    pi[rng.random(k) < 0.1] = PI_CEILING
    n = int(rng.integers(1, 40))
    if rows == "empty":
        z = np.zeros((n, k), dtype=np.int8)
    elif rows == "full":
        z = np.ones((n, k), dtype=np.int8)
    else:
        z = (rng.random((n, k)) < rng.uniform(0.0, 1.0)).astype(np.int8)
    return pi, z


def sweep_both(pi, z, hp, alpha, step, rng):
    """Run both sweeps from copies of one state and generator; return both results."""
    out = []
    state = rng.bit_generator.state
    for sweep in (recursion_pi_sweep, _pi_sweep):
        p, logw = pi.copy(), log_odds(pi)
        log_e = _log_esp_from_logw(logw)
        m = z.sum(axis=0, dtype=np.int64)
        s_hist = np.bincount(z.sum(axis=1), minlength=pi.shape[0] + 1).astype(np.float64)
        gen = np.random.default_rng()
        gen.bit_generator.state = state
        acc = sweep(p, logw, log_e, m, s_hist, alpha, hp, gen, step)
        out.append((p, logw, log_e, acc, gen.bit_generator.state))
    rng.bit_generator.state = out[0][4]
    return out


def assert_same_sweep(old, new):
    for a, b in zip(old[:4], new[:4]):
        np.testing.assert_array_equal(a, b)
    assert old[4] == new[4]


class TestAgainstRecursionOracle:
    def test_random_states(self, rng):
        moved = 0
        for _ in range(200):
            pi, z = random_state(rng)
            hp = tiny_hyper(k_max=pi.shape[0], sigma=float(rng.choice([0.0, 0.25, 0.5, 0.9])))
            old, new = sweep_both(pi, z, hp, float(rng.gamma(2.0)), float(rng.uniform(0.1, 5.0)), rng)
            assert_same_sweep(old, new)
            moved += int(new[3].sum())
        assert moved > 500

    @pytest.mark.parametrize("rows", ["empty", "full", "random"])
    def test_one_atom(self, rng, rows):
        hp = tiny_hyper(k_max=1)
        for _ in range(40):
            pi, z = random_state(rng, k=1, rows=rows)
            assert_same_sweep(*sweep_both(pi, z, hp, 1.0, 2.0, rng))

    @pytest.mark.parametrize("rows", ["empty", "full"])
    def test_every_row_empty_or_full(self, rng, rows):
        for _ in range(30):
            pi, z = random_state(rng, rows=rows)
            hp = tiny_hyper(k_max=pi.shape[0])
            assert_same_sweep(*sweep_both(pi, z, hp, 1.0, 1.0, rng))

    def test_proposals_leaving_the_support(self, rng):
        # a huge step sends most proposals past eps or the ceiling
        for _ in range(30):
            pi, z = random_state(rng, eps=0.2)
            hp = tiny_hyper(k_max=pi.shape[0], eps_trunc=0.2)
            old, new = sweep_both(pi, z, hp, 1.0, 80.0, rng)
            assert_same_sweep(old, new)
            assert np.all(new[0] >= 0.2)

    def test_sigma_zero(self, rng):
        for _ in range(30):
            pi, z = random_state(rng)
            hp = tiny_hyper(k_max=pi.shape[0], sigma=0.0)
            assert_same_sweep(*sweep_both(pi, z, hp, float(rng.gamma(2.0)), 1.0, rng))

    def test_no_runtime_warning_at_the_edges(self, rng):
        # every row full puts E_K = -inf into the sweep; nothing may warn
        pi, z = random_state(rng, k=7, rows="full")
        pi[:3] = [1e-4, PI_CEILING, PI_CEILING]
        logw = log_odds(pi)
        s_hist = np.bincount(z.sum(axis=1), minlength=8).astype(np.float64)
        with np.errstate(all="raise"):
            _pi_sweep(pi, logw, _log_esp_from_logw(logw), z.sum(axis=0), s_hist, 1.0, tiny_hyper(k_max=7), rng, 3.0)


class TestLeaveOneOutESP:
    def test_prefix_times_suffix_is_the_esp_without_the_atom(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 51))
            logw = rng.uniform(-14.0, 34.0, size=k)
            s_max = int(rng.integers(0, k + 1))
            suffix = _suffix_log_esp(logw, s_max)
            for kk in range(k):
                prefix = np.full(s_max + 1, -np.inf)
                head = _log_esp_from_logw(logw[:kk])[: s_max + 1]
                prefix[: head.shape[0]] = head
                loo = _log_esp_from_logw(np.delete(logw, kk))
                want = np.full(s_max + 1, -np.inf)
                want[: min(s_max + 1, loo.shape[0])] = loo[: s_max + 1]
                np.testing.assert_allclose(_log_convolve(prefix, suffix[kk + 1]), want, rtol=1e-12, atol=1e-12)

    def test_orders_past_the_other_atoms_are_neg_inf(self):
        got = _log_convolve(np.array([0.0, 1.0, -np.inf]), np.array([0.0, -np.inf, -np.inf]))
        np.testing.assert_array_equal(got, [0.0, 1.0, -np.inf])
