"""Seeded input generators and the fixed configuration of each workload.

A generator draws its input from the workload seed alone and writes it as a
file in one of the formats ``s3ribp`` reads; the program under test only
ever sees that file.  Each generator also returns the reference counts the
benchmark checks the loaded matrix against, computed here with numpy and
not with the program's own code.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    """Shape of one workload's input and the hyperparameters of each phase.

    The meta phase runs ``meta_chains`` second-layer chains, from seeds
    chain seed + 1, ..., + meta_chains in every round, and reports the
    median chain, because one meta chain's cost per
    iteration depends on its trajectory (Z flips per sweep vary by 10-20%
    between seeds) and a chain of a second or two is easily caught by one
    slow second of a shared machine.  ``check_quality`` requires the model
    to beat the row-mean baseline on held-out cells; only ``econ-rca`` has a
    margin wide enough to hold on every seed.
    """

    name: str
    n_rows: int
    n_cols: int
    k_max: int
    burn_in: int
    n_samples: int
    checkpoint_every: int
    meta_burn_in: int
    meta_samples: int
    meta_chains: int
    check_quality: bool
    holdout: float = 0.1
    c: float = 1.0
    sigma: float = 0.5
    top_m: int = 10

    @property
    def iterations(self):
        return self.burn_in + self.n_samples

    @property
    def meta_iterations(self):
        """Second-layer iterations of one meta phase, over all its chains."""
        return (self.meta_burn_in + self.meta_samples) * self.meta_chains


WORKLOADS = {
    "econ-rca": Workload(
        name="econ-rca",
        n_rows=130,
        n_cols=800,
        k_max=50,
        burn_in=48,
        n_samples=16,
        checkpoint_every=16,
        meta_burn_in=8,
        meta_samples=4,
        meta_chains=6,
        check_quality=True,
    ),
    "sparse-docs": Workload(
        name="sparse-docs",
        n_rows=900,
        n_cols=600,
        k_max=20,
        burn_in=20,
        n_samples=10,
        checkpoint_every=10,
        meta_burn_in=4,
        meta_samples=2,
        meta_chains=4,
        check_quality=False,
    ),
}


@dataclass
class Generated:
    """The written input file and the counts the program must load from it.

    ``counts`` is indexed by the integer in each label (``r17`` is row 17),
    because a triplet file fixes label order by first appearance.
    """

    path: str
    counts: np.ndarray
    raw: np.ndarray | None


def _econ_raw(wl, rng):
    """Planted export values: countries hold overlapping capabilities.

    Every country holds one of six capabilities, taken in equal shares, and
    a fixed 20% of countries hold each capability besides.  Each product
    draws on one capability block (contiguous in product index) and a fixed
    30% of products on a second random one, with Gamma(2, 1) loadings.  A
    country's exports are its size times the loadings of the capabilities
    it holds plus a small base, times log-normal noise, so every row and
    column has positive mass and the RCA index is defined.  The shares are
    fixed so that seeds move the values and not the amount of structure.
    """
    n, d, k0 = wl.n_rows, wl.n_cols, 6
    hold = np.zeros((n, k0), dtype=bool)
    hold[np.arange(n), rng.permutation(np.arange(n) % k0)] = True
    for k in range(k0):
        hold[rng.choice(n, size=n // 5, replace=False), k] = True
    member = np.zeros((k0, d), dtype=bool)
    member[np.arange(d) * k0 // d, np.arange(d)] = True
    second = rng.choice(d, size=3 * d // 10, replace=False)
    member[rng.integers(k0, size=second.shape[0]), second] = True
    loadings = np.where(member, rng.gamma(2.0, 1.0, size=(k0, d)), 0.0)
    size = rng.lognormal(0.0, 1.0, size=n)
    noise = rng.lognormal(0.0, 0.3, size=(n, d))
    return size[:, None] * (hold.astype(np.float64) @ loadings + 0.05) * noise


def reference_rca(raw):
    """rint((raw / row total) / (column total / grand total)), in numpy."""
    row_tot = raw.sum(axis=1, keepdims=True)
    col_tot = raw.sum(axis=0, keepdims=True)
    return np.rint((raw / row_tot) / (col_tot / raw.sum())).astype(np.int64)


def _docs_counts(wl, rng):
    """Bag-of-words counts from planted topics over vocabulary blocks.

    Ten topics each own a contiguous tenth of the vocabulary with Gamma(0.5)
    weights.  A document takes one topic, or two with probability 0.3, and
    1 + Poisson(7) tokens from its topics' words plus a 5% uniform
    background.  A word no document uses gets one token in a random
    document, as a vocabulary built from the corpus would have no unused
    word.
    """
    n, d, k0 = wl.n_rows, wl.n_cols, 10
    member = np.zeros((k0, d), dtype=bool)
    member[np.arange(d) * k0 // d, np.arange(d)] = True
    topic_words = np.where(member, rng.gamma(0.5, 1.0, size=(k0, d)), 0.0)
    topic_words /= topic_words.sum(axis=1, keepdims=True)
    topics = np.zeros((n, k0))
    topics[np.arange(n), rng.integers(k0, size=n)] = 1.0
    two = rng.random(n) < 0.3
    topics[np.flatnonzero(two), rng.integers(k0, size=int(two.sum()))] = 1.0
    probs = 0.95 * (topics @ topic_words) / topics.sum(axis=1, keepdims=True) + 0.05 / d
    lengths = 1 + rng.poisson(7.0, size=n)
    counts = np.stack([rng.multinomial(lengths[i], probs[i] / probs[i].sum()) for i in range(n)])
    unused = np.flatnonzero(counts.sum(axis=0) == 0)
    counts[rng.integers(n, size=unused.shape[0]), unused] += 1
    return counts.astype(np.int64)


def generate(wl, seed, out_dir):
    """Draw the workload's input from ``seed`` and write it under ``out_dir``."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1]))
    if wl.name == "econ-rca":
        raw = _econ_raw(wl, rng)
        path = os.path.join(out_dir, "exports.tsv")
        lines = ["\t".join([""] + [f"p{j}" for j in range(wl.n_cols)])]
        lines += ["\t".join([f"r{i}"] + [repr(float(v)) for v in row]) for i, row in enumerate(raw)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return Generated(path, reference_rca(raw), raw)
    counts = _docs_counts(wl, rng)
    path = os.path.join(out_dir, "docs.tsv")
    rows, cols = np.nonzero(counts)
    lines = ["row\tcol\tcount"]
    lines += [f"r{i}\tw{j}\t{counts[i, j]}" for i, j in zip(rows.tolist(), cols.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return Generated(path, counts, None)


def chain_seed(seed):
    """Chain and split seed for a workload seed (fixed per seed)."""
    return int(np.random.SeedSequence([int(seed), 2]).generate_state(1, dtype=np.uint64)[0])
