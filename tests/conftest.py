import contextlib
import os
import signal
import tempfile

import numpy as np
import pytest

from s3ribp.container import write_records

from _acceptance_log import RESULTS


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if RESULTS:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError inside the body once ``seconds`` have passed, so a
    sampler that never finishes fails its test instead of stalling the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def enumerate_rows(k):
    """All 2^k binary rows as a (2^k, k) int8 array, row i = bits of i."""
    states = np.arange(2**k)
    return ((states[:, None] >> np.arange(k)) & 1).astype(np.int8)


def brute_force_sum_probs(pi):
    """Exact P(sum = s) for independent Bernoulli(pi) by enumeration."""
    pi = np.asarray(pi, dtype=np.float64)
    rows = enumerate_rows(pi.shape[0])
    probs = np.prod(np.where(rows == 1, pi, 1.0 - pi), axis=1)
    return np.bincount(rows.sum(axis=1), weights=probs, minlength=pi.shape[0] + 1)


def brute_force_row_log_prior(z, pi, log_f):
    """Restricted row log prior log f(|z|) + sum_k log Bernoulli(z_k; pi_k) -
    log P(sum = |z|), the sum's law by enumeration: no ESP code."""
    pi = np.asarray(pi, dtype=np.float64)
    s = int(np.sum(z))
    bern = np.where(np.asarray(z) == 1, np.log(pi), np.log1p(-pi)).sum()
    return float(log_f[s] + bern - np.log(brute_force_sum_probs(pi)[s]))


def brute_force_inclusion(pi, s):
    """Exact P(z_k = 1 | sum = s) by subset enumeration."""
    pi = np.asarray(pi, dtype=np.float64)
    rows = enumerate_rows(pi.shape[0])
    probs = np.prod(np.where(rows == 1, pi, 1.0 - pi), axis=1)
    keep = rows.sum(axis=1) == s
    total = probs[keep].sum()
    return (probs[keep, None] * rows[keep]).sum(axis=0) / total


def cells(data):
    """A CountMatrix's stored cells as [row, col, count] lists, in stored order."""
    return np.stack([data.rows, data.cols, data.counts], axis=1).tolist()


def every_cell(n_rows, n_cols):
    """Every cell of an n_rows x n_cols matrix as an (N * D, 2) array, row-major."""
    return np.argwhere(np.ones((n_rows, n_cols), dtype=bool))


def written_bytes(arrays, meta):
    """The bytes ``write_records`` writes for ``arrays`` and ``meta``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.bin")
        write_records(path, arrays, meta)
        with open(path, "rb") as fh:
            return fh.read()


@pytest.fixture
def rng():
    return np.random.default_rng(42)
