"""Output checks, each against a computation made here or a required property.

Every check returns a list of error strings; an empty list is a pass.  None
of them compares against a stored copy of an earlier run's output.  The
checks run after the timed region of their phase and keep their working
arrays small, because the run's peak resident memory is one of its metrics.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import logsumexp
from scipy.stats import poisson

SCORE_RTOL = 1e-9
_CHUNK = 20_000
_SPOT_CELLS = 200


def _label_index(labels, prefix):
    out = []
    for lab in labels:
        if not (lab.startswith(prefix) and lab[len(prefix):].isdigit()):
            return None
        out.append(int(lab[len(prefix):]))
    return np.asarray(out, dtype=np.int64)


def check_input(data, reference, row_prefix, col_prefix):
    """Loaded counts equal the reference counts, matched by label.

    Returns (errors, reference reindexed to the loaded matrix's order).
    """
    rows = _label_index(data.row_labels, row_prefix)
    cols = _label_index(data.col_labels, col_prefix)
    n, d = reference.shape
    if rows is None or cols is None:
        return ["loaded labels do not carry the generated indices"], None
    if sorted(rows.tolist()) != list(range(n)) or sorted(cols.tolist()) != list(range(d)):
        return [f"loaded {data.n_rows}x{data.n_cols} labels do not cover the generated {n}x{d}"], None
    expected = reference[np.ix_(rows, cols)]
    if not np.array_equal(np.asarray(data.dense), expected):
        bad = int((np.asarray(data.dense) != expected).sum())
        return [f"{bad} loaded counts differ from the reference counts"], expected
    return [], expected


def check_splits(mask, n_rows, n_cols, fraction):
    """Exactly ceil(fraction * N * D) distinct, in-range held-out cells."""
    cells = mask.held_out_sorted()
    want = math.ceil(fraction * (n_rows * n_cols))
    errors = []
    if len(cells) != want:
        errors.append(f"{len(cells)} held-out cells, expected {want}")
    if len(set(cells)) != len(cells):
        errors.append("held-out cells repeat")
    arr = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
    if arr.size and (arr.min() < 0 or arr[:, 0].max() >= n_rows or arr[:, 1].max() >= n_cols):
        errors.append("a held-out cell lies outside the matrix")
    return errors


def training_counts(x, cells):
    """The counts with the held-out cells set to zero."""
    out = x.copy()
    if cells:
        arr = np.asarray(cells, dtype=np.int64)
        out[arr[:, 0], arr[:, 1]] = 0
    return out


def check_draws(z, b, pi, alpha, x_train, eps_trunc, what):
    """Properties every state of the chain must have, on stacked draws.

    Z is binary, pi lies in [eps_trunc, 1), B is finite and positive, alpha
    is positive, and a row with a positive training count has an active
    feature (its aux counts must sit somewhere).
    """
    errors = []
    if z.shape[1:] != (x_train.shape[0], pi.shape[1]) or b.shape[1:] != (pi.shape[1], x_train.shape[1]):
        return [f"{what}: shapes z{z.shape} b{b.shape} pi{pi.shape} disagree with the {x_train.shape} input"]
    if not np.isin(z, (0, 1)).all():
        errors.append(f"{what}: Z is not binary")
    if not (np.all(pi >= eps_trunc) and np.all(pi < 1.0)):
        errors.append(f"{what}: pi leaves [eps_trunc, 1)")
    if not (np.all(np.isfinite(b)) and np.all(b > 0)):
        errors.append(f"{what}: B is not finite and positive")
    if not (np.all(np.isfinite(alpha)) and np.all(alpha > 0)):
        errors.append(f"{what}: alpha is not positive")
    needs = x_train.sum(axis=1) > 0
    empty = (z.sum(axis=2) == 0) & needs[None, :]
    if empty.any():
        errors.append(f"{what}: {int(empty.sum())} rows with positive counts have no active feature")
    return errors


def check_summary(summary, x_train, eps_trunc, n_samples, what):
    """Retained draws: their number, their properties, K+ and the means."""
    if summary.n_samples != n_samples:
        return [f"{what}: {summary.n_samples} retained draws, expected {n_samples}"]
    z = summary.z_samples
    errors = check_draws(z, summary.b_samples, summary.pi_samples, summary.alpha_samples, x_train, eps_trunc, what)
    kplus = np.count_nonzero(z.max(axis=1), axis=1)
    if not np.array_equal(summary.kplus_trace, kplus):
        errors.append(f"{what}: kplus_trace differs from the non-empty columns of each retained Z")
    if not np.allclose(summary.z_mean, z.mean(axis=0), rtol=1e-12, atol=0):
        errors.append(f"{what}: z_mean is not the mean of the retained Z")
    if not np.allclose(summary.b_mean, summary.b_samples.mean(axis=0), rtol=1e-12, atol=0):
        errors.append(f"{what}: b_mean is not the mean of the retained B")
    return errors


def check_state(snapshot, data, mask, x_train, eps_trunc, invariant_error):
    """The final state validates and has the properties of every draw."""
    errors = []
    try:
        snapshot.validate_against(data, mask, eps_trunc)
    except invariant_error as exc:
        errors.append(f"final state: {exc}")
    errors += check_draws(
        snapshot.z[None],
        snapshot.b[None],
        snapshot.pi[None],
        np.array([snapshot.alpha]),
        x_train,
        eps_trunc,
        "final state",
    )
    return errors


def reference_cell_scores(summary, x, cells):
    """Per held-out cell: logsumexp over samples of the Poisson log pmf at
    z_s[n] . b_s[:, d], minus log S."""
    arr = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
    xv = x[arr[:, 0], arr[:, 1]]
    s_total = summary.n_samples
    out = np.empty(arr.shape[0])
    for lo in range(0, arr.shape[0], _CHUNK):
        r, c = arr[lo : lo + _CHUNK, 0], arr[lo : lo + _CHUNK, 1]
        logp = np.empty((s_total, r.shape[0]))
        for s in range(s_total):
            lam = np.einsum("ik,ki->i", summary.z_samples[s][r].astype(np.float64), summary.b_samples[s][:, c])
            logp[s] = poisson.logpmf(xv[lo : lo + _CHUNK], lam)
        with np.errstate(divide="ignore"):
            out[lo : lo + _CHUNK] = logsumexp(logp, axis=0) - math.log(s_total)
    return out


def reference_baseline_scores(x, cells):
    """Per held-out cell: Poisson log pmf at the row's training mean (the
    global training mean for a row with no training cell)."""
    arr = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
    train = np.ones(x.shape, dtype=bool)
    train[arr[:, 0], arr[:, 1]] = False
    n_obs = train.sum(axis=1)
    row_tot = np.where(train, x, 0).sum(axis=1).astype(np.float64)
    global_mean = row_tot.sum() / max(int(n_obs.sum()), 1)
    row_mean = np.where(n_obs > 0, row_tot / np.maximum(n_obs, 1), global_mean)
    return poisson.logpmf(x[arr[:, 0], arr[:, 1]], row_mean[arr[:, 0]])


def _compare_mean(value, per_cell, what):
    finite = np.isfinite(per_cell)
    if not finite.all():
        if value != math.inf:
            return [f"{what}: {int((~finite).sum())} cells score -inf but the mean is {value}, not inf"]
        return []
    want = -float(per_cell.mean())
    if not (math.isfinite(value) and abs(value - want) <= SCORE_RTOL * abs(want)):
        return [f"{what}: {value!r} differs from the recomputed {want!r}"]
    return []


def check_scores(summary, x, cells, model_value, baseline_value, predictive):
    """Scores equal the recomputation; non-finite cells are the same set.

    When some cell scores -inf the program's mean is inf and says nothing
    about the other cells, so each -inf cell and a fixed spread of finite
    cells are also scored one by one through ``predictive``.  A single
    cell's score near zero is a difference of logs of about S, so it is
    compared to 1e-9 absolute below magnitude one.
    Returns (errors, figures).
    """
    model = reference_cell_scores(summary, x, cells)
    base = reference_baseline_scores(x, cells)
    errors = _compare_mean(model_value, model, "log_perplexity")
    errors += _compare_mean(baseline_value, base, "baseline")
    arr = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
    # a positive cell in a row with no active feature in any sample has rate 0
    dead = (summary.z_samples.sum(axis=2) == 0).all(axis=0)
    expected_bad = dead[arr[:, 0]] & (x[arr[:, 0], arr[:, 1]] > 0)
    bad = ~np.isfinite(model)
    if not np.array_equal(bad, expected_bad):
        errors.append("non-finite model cells are not the positive cells of rows with no active feature")
    finite_idx = np.flatnonzero(~bad)
    spot = finite_idx[np.linspace(0, finite_idx.shape[0] - 1, min(_SPOT_CELLS, finite_idx.shape[0])).astype(int)]
    for i in np.concatenate([np.flatnonzero(bad), spot]):
        n, d = int(arr[i, 0]), int(arr[i, 1])
        got = predictive(summary, (n, d), int(x[n, d]))
        if bad[i] and got != -math.inf:
            errors.append(f"cell ({n}, {d}) recomputes to -inf but the program gives {got!r}")
        elif not bad[i] and not abs(got - model[i]) <= SCORE_RTOL * max(abs(model[i]), 1.0):
            errors.append(f"cell ({n}, {d}) scores {got!r}, recomputed {model[i]!r}")
    figures = {
        "model_log_perplexity": model_value,
        "baseline_log_perplexity": baseline_value,
        "model_finite_mean": -float(model[~bad].mean()),
        "baseline_finite_mean": -float(base[np.isfinite(base)].mean()),
        "model_nonfinite_cells": int(bad.sum()),
        "baseline_nonfinite_cells": int((~np.isfinite(base)).sum()),
        "scored_cells": int(arr.shape[0]),
    }
    return errors[:20], figures


def reference_live(summary):
    """Live features: column mean of the mean retained Z above 1/N."""
    z_mean = summary.z_samples.mean(axis=0)
    return z_mean.mean(axis=0) > 1.0 / z_mean.shape[0]


def reference_top(b_mean, col_labels, top_m, live):
    """Top columns per live feature with a positive weight, by a Python sort:
    descending weight, ties by ascending column."""
    out = []
    for k in np.flatnonzero(live):
        row = b_mean[k]
        if not np.any(row > 0):
            continue
        cols = sorted(range(row.shape[0]), key=lambda d: (-row[d], d))[:top_m]
        out.append((int(k), tuple((col_labels[d], float(row[d])) for d in cols)))
    return out


def check_report(summary, x, col_labels, top_m, live, top, coherence, qq_model, qq_base):
    """Live set, top columns and the empirical side of both qq tables."""
    errors = []
    want_live = reference_live(summary)
    if not np.array_equal(np.asarray(live), want_live):
        errors.append("live_features differs from the recomputed live set")
    want_top = reference_top(summary.b_samples.mean(axis=0), col_labels, top_m, want_live)
    if [(int(k), tuple(p)) for k, p in top] != want_top:
        errors.append("top_features differs from an independent sort of b_mean")
    if not math.isfinite(coherence):
        errors.append(f"coherence is {coherence}")
    empirical = np.sort(np.count_nonzero(x, axis=1)).astype(np.float64)
    for what, points in (("model qq", qq_model), ("baseline qq", qq_base)):
        pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        if not np.array_equal(pts[:, 0], empirical):
            errors.append(f"{what}: empirical side is not the sorted row non-zero counts")
        if not (np.all(np.isfinite(pts[:, 1])) and np.all(pts[:, 1] >= 0) and np.all(pts[:, 1] <= x.shape[1])):
            errors.append(f"{what}: predicted side leaves [0, D]")
    return errors


def meta_input(summary):
    """The second layer's input: mean retained Z at or above 0.5, live columns."""
    return (summary.z_samples.mean(axis=0) >= 0.5)[:, reference_live(summary)].astype(np.int64)


def check_meta(meta_summary, first_summary, eps_trunc, n_samples):
    """The second-layer chain's draws against its binarized input."""
    return check_summary(meta_summary, meta_input(first_summary), eps_trunc, n_samples, "meta")
