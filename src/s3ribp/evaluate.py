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
    if not top:
        raise DomainError("no live feature has positive weights; coherence is undefined")
    # one 0/1 matrix over the union of the top columns, sliced per feature
    union = np.unique(np.concatenate([cols for _, cols in top]))
    keep = np.isin(data.cols, union)
    present = np.zeros((data.n_rows, union.size))
    present[data.rows[keep], np.searchsorted(union, data.cols[keep])] = 1.0
    # the pairs (m, l), l < m, row by row; every feature has min(top_m, D) columns
    m, l = np.tril_indices(len(top[0][1]), -1)
    scores = []
    for _, cols in top:
        # co[i, j]: rows with a count in both top columns i and j, so co[l, l] = D(v_l)
        here = present[:, np.searchsorted(union, cols)]
        co = here.T @ here
        d_l = co[l, l]
        total = 0.0
        for ratio in (co[m, l][d_l > 0] + 1.0) / d_l[d_l > 0]:
            total += math.log(ratio)
        scores.append(total)
    return float(np.mean(scores))


# A qq table whose replicate expects at most N * D times this many units
# (a retained sample's Poisson units, the baseline's proposals) takes the
# unit path.  At this boundary a unit costs about 45-65 cells' draws (one
# Xeon core, numpy 2.4: a replicate took 0.63 ms by cells and 1.8 by units at
# 900 x 600, K = 20, and 0.11 against 0.44 at 130 x 800, K = 50).
_UNIT_SHARE = 1 / 16


def _replicate_qq(data, n_draws, replicates):
    """qq pairs: the data's sorted per-row non-zero counts against the mean of
    the n_draws sorted vectors ``replicates`` yields, by the cell or the unit
    path (``_cell_replicates``, ``_unit_replicates``: one law; the unit path
    when a replicate expects at most N * D * ``_UNIT_SHARE`` = 1/16 units)."""
    empirical = np.sort(np.bincount(data.rows, minlength=data.n_rows)).astype(np.float64)
    acc = np.zeros_like(empirical)
    for counts in replicates:
        acc += np.sort(counts)
    return [(float(e), float(q)) for e, q in zip(empirical, acc / n_draws)]


def _cell_replicates(p, reps, rng):
    """reps replicates' per-row non-zero counts, one at a time.  p is turned
    once into 16-bit thresholds t = min(floor(65536 p), 65535).  A replicate
    draws one 16-bit word r per cell, four to a ``random_raw`` draw read as
    little-endian fields (so fixed-seed output does not depend on the host);
    cell (n, d) is non-zero iff r < t, or r == t and a uniform, drawn after
    the words in cell order, is below 65536 p - t: probability exactly p.
    13 bytes a cell with p.  A row's hits are summed as bytes in the smallest
    unsigned type holding D."""
    t, hit = np.minimum(p * 65536.0, 65535.0).astype(np.uint16), np.empty(p.shape, dtype=bool)
    count_type = np.min_scalar_type(p.shape[1])
    for _ in range(reps):
        raw = rng.bit_generator.random_raw(-(-p.size // 4)).astype("<u8", copy=False)
        r = raw.view("<u2")[: p.size].reshape(p.shape)
        ties = np.flatnonzero(np.equal(r, t, out=hit))
        np.less(r, t, out=hit)
        hit.flat[ties] = rng.random(ties.size) < p.flat[ties] * 65536.0 - t.flat[ties]
        yield np.add.reduce(hit.view(np.uint8), axis=1, dtype=count_type)


def _unit_tables(weights):
    """Each row of ``weights`` (G x D, non-negative) as a normalised cumulative
    table of power-of-two width: +inf from column D - 1 on, and everywhere in
    a row of zero total, which draws no unit.  Returns (tables, totals)."""
    n_cols = weights.shape[1]
    col_cum = np.cumsum(weights, axis=1)
    total = col_cum[:, -1]
    cum = np.full((weights.shape[0], 1 << (n_cols - 1).bit_length()), np.inf)
    np.divide(col_cum[:, :-1], total[:, None], out=cum[:, : n_cols - 1], where=total[:, None] > 0)
    return cum, total


def _unit_replicates(n_rows, rows, means, cum, group, keep, reps, rng):
    """reps replicates' per-row non-zero counts, one at a time, drawn as units.

    Pair i draws Poisson(means[i]) units in row rows[i]; a unit takes column
    d with probability given by row group[i] of ``cum`` (``_unit_tables``), by
    one uniform and a fixed-step lower bound, as the aux split does.  With
    ``keep`` (a function of the units' rows and columns), one more uniform per
    unit keeps it with that probability.  A row counts the distinct columns
    of its kept units.  The model table passes its active (row, feature)
    pairs and no ``keep``: cell (n, d) is then non-zero with probability
    1 - exp(-lam_nd).  The baseline passes one pair per row and one group,
    thinned (``binomial_baseline_qq``).  Nothing held is N x D."""
    width = cum.shape[1]
    cum, starts = cum.ravel(), group * width
    for _ in range(reps):
        units = rng.poisson(means)
        n_units = int(units.sum())
        key = np.subtract(1.0, rng.random(n_units))
        lo = np.repeat(starts, units)
        for j in reversed(range(width.bit_length() - 1)):
            # probe lo + step - 1, read through a view that starts there
            step = 1 << j
            lo += (cum[step - 1 :].take(lo) < key) * step
        lo &= width - 1
        unit_rows = np.repeat(rows, units)
        if keep is not None:
            kept = rng.random(n_units) < keep(unit_rows, lo)
            lo, unit_rows = lo[kept], unit_rows[kept]
        lo += unit_rows * width
        lo.sort()
        # a cell's units are adjacent now; its last one counts it
        yield np.bincount(lo[np.diff(lo, append=-1) != 0] // width, minlength=n_rows)


def qq_row_nonzeros(summary, data, n_draws, rng):
    """qq pairs of per-row non-zero counts: empirical vs posterior predictive.

    The empirical side is the sorted vector of each row's non-zero count;
    the predicted side averages it over n_draws replicates of Poisson(Z B),
    each at a retained sample, all drawn first.  Each distinct sample serves
    its replicates in turn, ascending: by the unit path if it expects at most
    N * D * ``_UNIT_SHARE`` (1/16) units (sum_k m_k beta_k, m_k rows holding
    feature k), else by the cell path: its 1 - exp(-lam) and their 16-bit
    thresholds built once, then one 16-bit word per cell and one uniform per
    tie each replicate (``_cell_replicates``, 13 bytes a cell).  A summary
    fitted on a matrix of another shape is a DomainError."""
    _check_fitted_shape(summary, (data.n_rows, data.n_cols))
    n_draws = _whole(n_draws, "n_draws", 1)
    picks = rng.integers(summary.n_samples, size=n_draws)

    def replicates():
        for s, reps in zip(*np.unique(picks, return_counts=True)):
            z, b = summary.z_samples[s], summary.b_samples[s]
            if z.sum(axis=0, dtype=np.float64) @ b.sum(axis=1) <= data.n_rows * data.n_cols * _UNIT_SHARE:
                rows, feats = np.nonzero(z)
                cum, beta = _unit_tables(b)
                yield from _unit_replicates(data.n_rows, rows, beta.take(feats), cum, feats, None, reps, rng)
            else:
                p = z.astype(np.float64) @ b
                # -expm1(-lam), in place
                yield from _cell_replicates(np.negative(np.expm1(np.negative(p, out=p), out=p), out=p), reps, rng)

    return _replicate_qq(data, n_draws, replicates())


def binomial_baseline_qq(data, n_draws, rng):
    """qq pairs under an entrywise Bernoulli baseline.

    Cell (n, d) is non-zero with probability p_nd = min(1, k_n k_d / W),
    where k_n and k_d are the row and column non-zero counts and W the
    number of non-zero cells; an empty matrix gives probability zero
    everywhere.  Two paths draw this one law.  A cell with k_n k_d >= W
    (compared as integers) is sure; p_max is the largest p_nd over the other
    cells and g = -log1p(-p_max) / p_max (0 when p_max is 0).  If the
    expected proposals g W are at most N * D * ``_UNIT_SHARE`` (1/16), the
    unit path counts each row's sure cells once, by a search over the sorted
    k_d, and row n draws Poisson(g k_n) units, each taking column d with
    probability k_d / W and kept with probability -log1p(-p_nd) / (g p_nd),
    never on a sure cell (``_unit_replicates``).  A cell's kept units are
    then Poisson(-log1p(-p_nd)), so it is non-zero with probability p_nd
    (thinning; Lewis & Shedler 1979).  Otherwise the cell path builds the
    N x D probabilities and their 16-bit thresholds once and draws one 16-bit
    word per cell and one uniform per tie each replicate
    (``_cell_replicates``, 13 bytes a cell).
    """
    n_draws = _whole(n_draws, "n_draws", 1)
    k_n = np.bincount(data.rows, minlength=data.n_rows)
    k_d = np.bincount(data.cols, minlength=data.n_cols)
    w = data.n_nonzero
    # row n's sure cells have k_d >= ceil(W / k_n); an empty row has none
    sorted_kd = np.sort(k_d)
    below = np.searchsorted(sorted_kd, np.where(k_n > 0, -(-w // np.maximum(k_n, 1)), w + 1))
    # each row's largest k_n k_d short of W, 0 where no cell falls short
    nearest = k_n * np.where(below > 0, sorted_kd[np.maximum(below - 1, 0)], 0)
    p_max = int(nearest.max()) / max(w, 1)
    g = -math.log1p(-p_max) / p_max if p_max > 0 else 0.0
    if g * w <= data.n_rows * data.n_cols * _UNIT_SHARE:

        def keep(rows, cols):
            cross = k_n[rows] * k_d[cols]
            p = np.where(cross < w, cross, 0) / w
            return np.divide(-np.log1p(-p), g * p, out=np.zeros_like(p), where=p > 0)

        cum, _ = _unit_tables(k_d[None, :].astype(np.float64))
        pairs = np.arange(data.n_rows)
        units = _unit_replicates(data.n_rows, pairs, g * k_n, cum, np.zeros_like(pairs), keep, n_draws, rng)
        sure = data.n_cols - below
        replicates = (sure + counts for counts in units)
    else:
        replicates = _cell_replicates(np.minimum(1.0, np.outer(k_n, k_d) / float(w)), n_draws, rng)
    return _replicate_qq(data, n_draws, replicates)


@dataclass(frozen=True)
class MatchResult:
    """Greedy feature matching: (index_a, index_b, jaccard) triples plus leftovers."""

    pairs: tuple
    unmatched_a: tuple
    unmatched_b: tuple

    @property
    def mean_score(self):
        return float(np.mean([p[2] for p in self.pairs])) if self.pairs else 0.0


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
    perplexity, coherence, the mode of K+ and the share of retained draws
    with K+ = k_max.  The spread of the fold log-perplexities is None when
    any of them is +inf.  Feature matches compare every later fold's
    top-column sets against fold 0's.
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
    stores.  qq tables come from fold 0's summary over the full matrix;
    feature matches compare each fold's live top-column sets to fold 0's.
    top_m, qq_draws and the masks are checked before the first chain runs.
    """
    if not masks:
        raise DomainError("need at least one fold mask")
    top_m, qq_draws = _whole(top_m, "top_m", 1), _whole(qq_draws, "qq_draws", 1)
    for i, mask in enumerate(masks):
        if (mask.n_rows, mask.n_cols) != (data.n_rows, data.n_cols):
            raise DomainError(f"fold {i}'s mask is {mask.n_rows}x{mask.n_cols}, the data {data.n_rows}x{data.n_cols}")
        if not mask.n_held_out:
            raise DomainError(f"fold {i}'s mask holds nothing out; there is nothing to score")
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
                "truncation_share": summary.truncation_share,
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
