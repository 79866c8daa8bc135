"""Evaluation suite: held-out perplexity, coherence, qq structure checks,
cross-fold feature matching, and the simple binomial baseline.

All metrics are pure functions of immutable inputs (posterior summaries,
count matrices, masks), so folds can be evaluated independently.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .mcmc import _check_fitted_shape, _predictive_log_liks, run_chain
from .model import CountMatrix, ObservationMask, _whole, poisson_log_pmf

__all__ = [
    "log_perplexity",
    "baseline_row_mean_log_perplexity",
    "umass_coherence",
    "qq_row_nonzeros",
    "binomial_baseline_qq",
    "jaccard_match",
    "MatchResult",
    "top_features",
    "feature_line",
    "live_features",
    "meta_features",
    "evaluate_folds",
    "EvalReport",
]


def _held_out_counts(data, mask):
    if not mask.n_held_out:
        raise DomainError("mask holds nothing out; there is nothing to score")
    rows, cols = mask.held_out[:, 0], mask.held_out[:, 1]
    return rows, cols, data.counts_at(rows, cols)


def _held_out_log_liks(summary, data, mask):
    """Predictive log likelihood of every held-out cell, -inf where its probability is zero."""
    return _predictive_log_liks(summary, *_held_out_counts(data, mask), shape=(data.n_rows, data.n_cols))


def log_perplexity(summary, data, mask):
    """Negative mean predictive log-likelihood over the held-out cells.

    Lower is better.  The predictive is the posterior mixture across the
    summary's retained samples.  A positive held-out cell whose rate is zero
    in every retained sample (its row has no active feature in any of them)
    has predictive probability zero, and the score is then +inf.  A summary
    fitted on a matrix of another shape is a DomainError.
    """
    return -float(_held_out_log_liks(summary, data, mask).mean())


def baseline_row_mean_log_perplexity(data, mask):
    """Held-out log-perplexity of a rate-only Poisson baseline.

    Each row's rate is its observed training mean; a row with no observed
    cells falls back to the global training mean.  A positive held-out cell
    in a row whose training cells are all zero meets a rate of zero, and
    the score is then +inf.
    """
    rows, cols, x = _held_out_counts(data, mask)
    n = data.n_rows
    n_obs_row = data.n_cols - np.bincount(rows, minlength=n)
    row_tot = np.bincount(data.rows, weights=data.counts, minlength=n) - np.bincount(rows, weights=x, minlength=n)
    global_mean = row_tot.sum() / max(int(n_obs_row.sum()), 1)
    row_mean = np.where(n_obs_row > 0, row_tot / np.maximum(n_obs_row, 1), global_mean)
    return -float(poisson_log_pmf(x, row_mean[rows]).mean())


def _top_columns(b_mean, top_m, live):
    """(k, the indices of its top_m largest weights) for each live feature
    with a positive weight; ties go to the lower column."""
    if b_mean.ndim != 2:
        raise DomainError("expected a feature-by-column weight matrix")
    top_m = _whole(top_m, "top_m", 1)
    live = np.ones(b_mean.shape[0], dtype=bool) if live is None else np.asarray(live, dtype=bool)
    cols = np.arange(b_mean.shape[1])
    keep = live & np.any(b_mean > 0, axis=1)
    return [(int(k), np.lexsort((cols, -b_mean[k]))[:top_m]) for k in np.flatnonzero(keep)]


def umass_coherence(b_mean, data, top_m=10, live=None):
    """Mean intrinsic coherence of the live features' top columns.

    For each feature, take its top_m columns by weight and score all ordered
    pairs (later, earlier) as log((D(v_m, v_l) + 1) / D(v_l)) with document
    counts computed on the binarized data (x > 0).  Pairs whose conditioning
    count D(v_l) is zero are skipped.  Closer to zero is better.
    """
    b_mean = np.asarray(b_mean, dtype=np.float64)
    top = _top_columns(b_mean, top_m, live)
    all_rows = np.arange(data.n_rows)[:, None]
    scores = []
    for _, cols in top:
        # co[i, j]: rows with a count in both top columns i and j, so co[l, l] = D(v_l)
        present = (data.counts_at(all_rows, cols[None, :]) > 0).astype(np.float64)
        co = present.T @ present
        # the pairs (m, l), l < m, row by row
        m, l = np.tril_indices(len(cols), -1)
        d_l = co[l, l]
        total = 0.0
        for ratio in (co[m, l][d_l > 0] + 1.0) / d_l[d_l > 0]:
            total += math.log(ratio)
        scores.append(total)
    if not scores:
        raise DomainError("no live feature has positive weights; coherence is undefined")
    return float(np.mean(scores))


def _replicate_qq(data, n_draws, rng, cell_probs):
    """qq pairs of per-row non-zero counts: the data's, sorted, against the
    mean over n_draws replicates of the same sorted vector.

    Each replicate calls ``cell_probs()`` for an N x D array of non-zero
    probabilities and draws one uniform per cell; the uniform and hit
    buffers are reused across replicates.
    """
    n_draws = _whole(n_draws, "n_draws", 1)
    empirical = np.sort(np.bincount(data.rows, minlength=data.n_rows)).astype(np.float64)
    acc = np.zeros_like(empirical)
    shape = (data.n_rows, data.n_cols)
    u, hit = np.empty(shape), np.empty(shape, dtype=bool)
    for _ in range(n_draws):
        # cell_probs may draw from rng too, before the uniforms
        p = cell_probs()
        np.less(rng.random(out=u), p, out=hit)
        acc += np.sort(np.count_nonzero(hit, axis=1))
    predicted = acc / n_draws
    return [(float(e), float(q)) for e, q in zip(empirical, predicted)]


def qq_row_nonzeros(summary, data, n_draws, rng):
    """qq pairs of per-row non-zero counts: empirical vs posterior predictive.

    The empirical side is the sorted vector of each row's non-zero count.
    The predicted side averages, over n_draws replicate matrices drawn
    Poisson(Z B) at randomly chosen retained samples, the same sorted vector.
    A replicate cell is non-zero with probability 1 - exp(-lam), so each
    replicate draws one integer for its sample, then one uniform per cell
    instead of a Poisson count.  A summary fitted on a matrix of another
    shape is a DomainError.
    """
    _check_fitted_shape(summary, (data.n_rows, data.n_cols))
    s_total = summary.n_samples
    p_nonzero = np.empty((data.n_rows, data.n_cols))

    def cell_probs():
        s = int(rng.integers(s_total))
        np.matmul(summary.z_samples[s].astype(np.float64), summary.b_samples[s], out=p_nonzero)
        # -expm1(-lam), in place
        return np.negative(np.expm1(np.negative(p_nonzero, out=p_nonzero), out=p_nonzero), out=p_nonzero)

    return _replicate_qq(data, n_draws, rng, cell_probs)


def binomial_baseline_qq(data, n_draws, rng):
    """qq pairs under an entrywise Bernoulli baseline.

    Cell (n, d) is non-zero with probability min(1, k_n k_d / W) where k_n
    and k_d are the row and column non-zero counts and W the matrix total;
    an empty matrix gives probability zero everywhere.
    """
    k_n = np.bincount(data.rows, minlength=data.n_rows).astype(np.float64)
    k_d = np.bincount(data.cols, minlength=data.n_cols).astype(np.float64)
    w = float(data.n_nonzero)
    if w > 0:
        p = np.minimum(1.0, np.outer(k_n, k_d) / w)
    else:
        p = np.zeros((data.n_rows, data.n_cols))
    return _replicate_qq(data, n_draws, rng, lambda: p)


@dataclass(frozen=True)
class MatchResult:
    """Greedy feature matching: (index_a, index_b, jaccard) triples plus leftovers."""

    pairs: tuple
    unmatched_a: tuple
    unmatched_b: tuple

    @property
    def scores(self):
        return tuple(p[2] for p in self.pairs)

    @property
    def mean_score(self):
        return float(np.mean(self.scores)) if self.pairs else 0.0


def jaccard_match(features_a, features_b):
    """Greedily pair the most-similar feature index sets across two lists.

    Repeatedly takes the unmatched pair with the highest Jaccard similarity
    (ties broken by lowest index pair) until one side runs out, scoring
    each pair once.
    """
    sets_a, sets_b = [frozenset(s) for s in features_a], [frozenset(s) for s in features_b]
    for side, sets in (("a", sets_a), ("b", sets_b)):
        if frozenset() in sets:
            raise DomainError(f"feature {sets.index(frozenset())} on side {side} is empty")
    score = np.array([[len(a & b) / len(a | b) for b in sets_b] for a in sets_a]).reshape(len(sets_a), len(sets_b))
    pairs = []
    for _ in range(min(score.shape)):
        # the row-major argmax takes the lowest index pair of the ties; -1 is below any score
        i, j = divmod(int(np.argmax(score)), score.shape[1])
        pairs.append((i, j, float(score[i, j])))
        score[i, :] = score[:, j] = -1.0
    unmatched = [sorted(set(range(n)) - {p[side] for p in pairs}) for side, n in enumerate(score.shape)]
    return MatchResult(tuple(pairs), *map(tuple, unmatched))


def live_features(z_mean):
    """Columns whose posterior-mean activity exceeds 1/N (never-used slots drop out)."""
    z_mean = np.asarray(z_mean, dtype=np.float64)
    if z_mean.ndim != 2:
        raise DomainError("expected an N-by-K posterior-mean activity matrix")
    return z_mean.mean(axis=0) > 1.0 / z_mean.shape[0]


def top_features(b_mean, col_labels, top_m, live=None):
    """Per live feature, its top_m (label, weight) pairs by descending weight.

    Ties are broken by ascending column index.  Features with no positive
    weight (or flagged dead) are omitted.  Returns (feature_index, pairs)
    tuples.
    """
    b_mean = np.asarray(b_mean, dtype=np.float64)
    top = _top_columns(b_mean, top_m, live)
    col_labels = tuple(col_labels)
    if len(col_labels) != b_mean.shape[1]:
        raise DomainError(f"{len(col_labels)} column labels for a weight matrix {b_mean.shape[1]} columns wide")
    return [(k, tuple((col_labels[d], float(b_mean[k, d])) for d in cols)) for k, cols in top]


def feature_line(pairs):
    """Render one feature's pairs as ``label (0.78), label (0.72), ...``."""
    return ", ".join(f"{label} ({weight:.2f})" for label, weight in pairs)


def meta_features(summary, config):
    """Fit a second layer to the first layer's binarized activity pattern.

    The posterior-mean Z is thresholded at 0.5 (0.5 itself maps to 1), dead
    columns are dropped, the result is treated as a count matrix with
    feature labels F0, F1, ..., and a fresh chain is run on it.
    """
    live = live_features(summary.z_mean)
    binary = (summary.z_mean >= 0.5).astype(np.int64)
    binary = binary[:, live]
    if binary.size == 0 or not binary.any():
        raise DomainError("binarized activity is all zero; no meta structure to fit")
    labels = tuple(f"F{k}" for k in np.flatnonzero(live))
    meta_data = CountMatrix.from_dense(binary, col_labels=labels)
    mask = ObservationMask.none_held_out(meta_data.n_rows, meta_data.n_cols)
    return run_chain(meta_data, mask, config)


def _fmt(value):
    return "n/a" if value is None else f"{value:.4f}"


@dataclass(frozen=True)
class EvalReport:
    """Cross-fold evaluation results with provenance per fold.

    ``folds`` holds one record per fold: fold index, chain seed, mask
    digest, log-perplexity, the number of held-out cells whose predictive
    probability is zero (each makes the log-perplexity +inf) and the
    log-perplexity over the other cells (None if there are none), baseline
    perplexity, and coherence.  The spread of the fold log-perplexities is
    None when any of them is +inf.  Feature matches compare every later
    fold's top-column sets against fold 0's.
    """

    folds: tuple
    log_perplexity_mean: float
    log_perplexity_std: float | None
    coherence_mean: float
    coherence_std: float
    qq_points: tuple
    qq_baseline_points: tuple
    feature_matches: tuple
    top_m: int

    @property
    def n_folds(self):
        return len(self.folds)

    def perplexity_line(self):
        """The log-perplexity line of the report and the CLI, zero-probability cells set apart."""
        finite = [f["log_perplexity_finite"] for f in self.folds if f["log_perplexity_finite"] is not None]
        return (
            f"log-perplexity: {self.log_perplexity_mean:.4f} +/- {_fmt(self.log_perplexity_std)}; "
            f"{sum(f['infinite_cells'] for f in self.folds)} held-out cells with zero probability, "
            f"finite cells {_fmt(float(np.mean(finite)) if finite else None)}"
        )

    def to_json(self):
        return json.dumps(
            {
                "n_folds": self.n_folds,
                "top_m": self.top_m,
                "log_perplexity": {"mean": self.log_perplexity_mean, "std": self.log_perplexity_std},
                "coherence": {"mean": self.coherence_mean, "std": self.coherence_std},
                "folds": self.folds,
                "qq_points": self.qq_points,
                "qq_baseline_points": self.qq_baseline_points,
                "feature_matches": self.feature_matches,
            },
            indent=2,
            sort_keys=True,
        )

    def to_text(self):
        lines = [
            f"folds: {self.n_folds}",
            self.perplexity_line(),
            f"coherence (closer to zero is better): {self.coherence_mean:.4f} +/- {self.coherence_std:.4f}",
            "baseline is the rate-only row-mean Poisson model, not a literature reproduction",
            "",
            "fold  seed        perplexity  inf cells  finite      baseline    coherence",
        ]
        for f in self.folds:
            lines.append(
                f"{f['fold']:>4}  {f['seed']:<10}  {f['log_perplexity']:<10.4f}  {f['infinite_cells']:<9}"
                f"  {_fmt(f['log_perplexity_finite']):<10}  {f['baseline_log_perplexity']:<10.4f}"
                f"  {f['coherence']:.4f}"
            )
        if self.feature_matches:
            lines.append("")
            lines.append("feature matches vs fold 0 (greedy Jaccard):")
            for m in self.feature_matches:
                lines.append(f"  fold {m['fold']}: mean {m['mean_jaccard']:.3f} over {len(m['pairs'])} pairs")
        return "\n".join(lines) + "\n"


def evaluate_folds(data, masks, config, top_m=10, qq_draws=50):
    """Fit one chain per fold mask and aggregate the evaluation metrics.

    Fold i runs with seed (base seed + i) mod 2**64, which its fold record
    stores.  qq tables come from the first fold's summary over the full
    matrix; feature matches compare each fold's live top-column sets to
    fold 0's.  top_m and qq_draws are checked before the first chain runs.
    """
    if not masks:
        raise DomainError("need at least one fold mask")
    top_m, qq_draws = _whole(top_m, "top_m", 1), _whole(qq_draws, "qq_draws", 1)
    folds = []
    top_sets = []
    first_summary = None
    for i, mask in enumerate(masks):
        hp = config.hyper.replace(seed=(config.hyper.seed + i) % 2**64)
        cfg = replace(config, hyper=hp, checkpoint_path=None, checkpoint_interval=0)
        summary = run_chain(data, mask, cfg)
        if first_summary is None:
            first_summary = summary
        live = live_features(summary.z_mean)
        report = top_features(summary.b_mean, data.col_labels, top_m, live=live)
        top_sets.append([frozenset(label for label, _ in pairs) for _, pairs in report])
        log_liks = _held_out_log_liks(summary, data, mask)
        finite = np.isfinite(log_liks)
        folds.append(
            {
                "fold": i,
                "seed": hp.seed,
                "mask_digest": mask.digest(),
                "log_perplexity": -float(log_liks.mean()),
                "infinite_cells": int(log_liks.size - finite.sum()),
                "log_perplexity_finite": -float(log_liks[finite].mean()) if finite.any() else None,
                "baseline_log_perplexity": baseline_row_mean_log_perplexity(data, mask),
                "coherence": umass_coherence(summary.b_mean, data, top_m, live=live),
                "k_plus_mode": int(np.bincount(summary.kplus_trace).argmax()),
            }
        )
    matches = []
    for i in range(1, len(masks)):
        if top_sets[0] and top_sets[i]:
            m = jaccard_match(top_sets[0], top_sets[i])
            matches.append(
                {
                    "fold": i,
                    "pairs": m.pairs,
                    "unmatched_reference": m.unmatched_a,
                    "unmatched_fold": m.unmatched_b,
                    "mean_jaccard": m.mean_score,
                }
            )
    rng = np.random.default_rng(config.hyper.seed)
    qq = qq_row_nonzeros(first_summary, data, qq_draws, rng)
    qq_base = binomial_baseline_qq(data, qq_draws, rng)
    perp = np.array([f["log_perplexity"] for f in folds])
    coh = np.array([f["coherence"] for f in folds])
    return EvalReport(
        folds=tuple(folds),
        log_perplexity_mean=float(perp.mean()),
        log_perplexity_std=None if np.isinf(perp).any() else float(perp.std()),
        coherence_mean=float(coh.mean()),
        coherence_std=float(coh.std()),
        qq_points=tuple(qq),
        qq_baseline_points=tuple(qq_base),
        feature_matches=tuple(matches),
        top_m=top_m,
    )
