"""Command-line surface.

Subcommands: generate (forward-sample a prior to a matrix file), fit (run
one chain), eval (cross-fold metric report), qq (model and baseline qq
tables), topics (top-weight columns per feature), meta (second-layer fit on
the binarized activity pattern), resume (continue from a checkpoint).

Every command writes into --out: its products plus run_config.json echoing
the exact configuration, seed, and package version that produced them.
Values resolve as built-in defaults, then --config file entries, then
explicit flags.  Errors exit 1 with one JSON line on stderr; usage problems
exit 2.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from .container import atomic_write_text
from .errors import S3RIBPError
from .evaluate import (
    binomial_baseline_qq,
    evaluate_folds,
    feature_line,
    live_features,
    meta_features,
    qq_row_nonzeros,
    top_features,
)
from .io import RunConfig, load_counts, load_raw_matrix, load_summary, make_splits, save_counts, save_summary
from .mcmc import ChainConfig, ChainRunner, run_chain
from .model import CountMatrix, HyperParams, rca_transform
from .priors import sample_3p_ibp, sample_3r_ibp, sample_ibp

__all__ = ["cli_dispatch", "main"]

log = logging.getLogger(__name__)

_HYPER_FLAGS = {
    "seed": "seed",
    "k_max": "k_max",
    "burn_in": "burn_in",
    "samples": "n_samples",
    "thin": "thin",
    "alpha_b": "alpha_b",
    "mu_b": "mu_b",
    "c": "c",
    "sigma": "sigma",
    "nb_r": "nb_r",
    "nb_p": "nb_p",
    "eps_trunc": "eps_trunc",
    "mh_step": "mh_step",
    "alpha_shape": "alpha_prior_shape",
    "alpha_scale": "alpha_prior_scale",
}


def _add_hyper_flags(p):
    p.add_argument("--seed", type=int, default=None, help="chain seed (default 0)")
    p.add_argument("--k-max", type=int, default=None, dest="k_max", help="feature truncation (default 50)")
    p.add_argument("--burn-in", type=int, default=None, dest="burn_in", help="burn-in iterations (default 30000)")
    p.add_argument("--samples", type=int, default=None, help="retained samples (default 1000)")
    p.add_argument("--thin", type=int, default=None, help="retention stride (default 1)")
    p.add_argument("--alpha-b", type=float, default=None, dest="alpha_b", help="loading shape (default 0.01)")
    p.add_argument("--mu-b", type=float, default=None, dest="mu_b", help="loading mean (default 1)")
    p.add_argument("--c", type=float, default=None, help="concentration (default 50)")
    p.add_argument("--sigma", type=float, default=None, help="stable exponent in [0,1); 1 clamps just below")
    p.add_argument("--nb-r", type=float, default=None, dest="nb_r", help="row-count NB size (default 1)")
    p.add_argument("--nb-p", type=float, default=None, dest="nb_p", help="row-count NB probability (default 0.1)")
    p.add_argument("--eps-trunc", type=float, default=None, dest="eps_trunc", help="atom floor (default 1e-6)")
    p.add_argument("--mh-step", type=float, default=None, dest="mh_step", help="logit proposal scale (default 0.5)")
    p.add_argument("--alpha-shape", type=float, default=None, dest="alpha_shape", help="mass prior shape (default 1)")
    p.add_argument("--alpha-scale", type=float, default=None, dest="alpha_scale", help="mass prior scale (default 1)")


def _add_data_flags(p):
    p.add_argument("--data", required=True, help="count file (dense or triplet)")
    p.add_argument("--format", default=None, choices=["auto", "dense", "triplet"], help="input format")
    p.add_argument("--preproc", default=None, choices=["none", "rca-round", "rca-binary"], help="preprocessing")


def _build_parser():
    top = argparse.ArgumentParser(prog="s3ribp", description=__doc__.splitlines()[0])
    top.add_argument("--version", action="version", version=f"s3ribp {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="forward-sample a prior to a matrix file")
    gen.add_argument("--prior", default="s3r", choices=["ibp", "3p", "s3r"], help="which process to sample")
    gen.add_argument("--alpha", type=float, default=None, help="mass parameter (s3r: pins the prior draw)")
    gen.add_argument("--rows", type=int, default=100, help="number of rows to sample")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--config", default=None, help="RunConfig JSON to use as defaults")
    gen.add_argument("--format", default=None, choices=["dense", "triplet"], help="matrix file format")
    _add_hyper_flags(gen)

    fit = sub.add_parser("fit", help="run one chain on a count file")
    _add_data_flags(fit)
    fit.add_argument("--out", required=True, help="output directory")
    fit.add_argument("--config", default=None, help="RunConfig JSON to use as defaults")
    fit.add_argument(
        "--checkpoint-interval",
        type=int,
        default=0,
        dest="checkpoint_interval",
        help="write a resumable checkpoint every this many iterations (0 disables)",
    )
    _add_hyper_flags(fit)

    ev = sub.add_parser("eval", help="cross-fold perplexity/coherence/match report")
    _add_data_flags(ev)
    ev.add_argument("--out", required=True, help="output directory")
    ev.add_argument("--config", default=None, help="RunConfig JSON to use as defaults")
    ev.add_argument("--folds", type=int, default=None, help="number of hold-out folds (default 10)")
    ev.add_argument("--holdout", type=float, default=None, help="held-out cell fraction (default 0.1)")
    ev.add_argument("--draws", type=int, default=50, help="replicates per qq table")
    ev.add_argument("--top-m", type=int, default=10, dest="top_m", help="columns per feature in reports")
    _add_hyper_flags(ev)

    qq = sub.add_parser("qq", help="model and baseline qq tables for a fitted posterior")
    _add_data_flags(qq)
    qq.add_argument("--posterior", required=True, help="summary file from fit")
    qq.add_argument("--out", required=True, help="output directory")
    qq.add_argument("--config", default=None, help="RunConfig JSON to use as defaults")
    qq.add_argument("--draws", type=int, default=50, help="replicates per qq table")
    qq.add_argument("--seed", type=int, default=None, help="replicate seed (default 0)")

    tp = sub.add_parser("topics", help="top-weight columns per live feature")
    _add_data_flags(tp)
    tp.add_argument("--posterior", required=True, help="summary file from fit")
    tp.add_argument("--out", required=True, help="output directory")
    tp.add_argument("--config", default=None, help="RunConfig JSON to use as defaults")
    tp.add_argument("--top-m", type=int, default=10, dest="top_m", help="columns per feature")

    mt = sub.add_parser("meta", help="fit a second layer to the binarized activity pattern")
    mt.add_argument("--posterior", required=True, help="first-layer summary file")
    mt.add_argument("--out", required=True, help="output directory")
    mt.add_argument("--config", default=None, help="RunConfig JSON to use as defaults")
    mt.add_argument("--top-m", type=int, default=10, dest="top_m", help="features per meta-feature in the report")
    _add_hyper_flags(mt)

    rs = sub.add_parser("resume", help="continue a chain from a checkpoint")
    _add_data_flags(rs)
    rs.add_argument("--checkpoint", required=True, help="checkpoint file from fit")
    rs.add_argument("--out", required=True, help="output directory")
    rs.add_argument("--config", default=None, help="RunConfig JSON to use as defaults")

    return top


def _load_config_file(path):
    if path is None:
        return None
    with open(path, encoding="utf-8") as fh:
        return RunConfig.from_json(fh.read())


def _resolve_hyper(args, file_config):
    base = file_config.hyper.to_dict() if file_config is not None else HyperParams().to_dict()
    for flag, field in _HYPER_FLAGS.items():
        val = getattr(args, flag, None)
        if val is not None:
            base[field] = val
    return HyperParams.from_dict(base)


def _resolve(args, name, file_config, default):
    val = getattr(args, name, None)
    if val is not None:
        return val
    if file_config is not None:
        stored = getattr(file_config, {"format": "fmt", "folds": "n_folds"}.get(name, name), None)
        if stored is not None:
            return stored
    return default


def _echo_config(out_dir, config):
    atomic_write_text(os.path.join(out_dir, "run_config.json"), config.to_json(version=__version__) + "\n")


def _load_data(args, file_config):
    fmt = _resolve(args, "format", file_config, "auto")
    preproc = _resolve(args, "preproc", file_config, "none")
    if preproc == "none":
        return load_counts(args.data, fmt), fmt, preproc
    raw, row_labels, col_labels = load_raw_matrix(args.data)
    mode = "round" if preproc == "rca-round" else "binary"
    return rca_transform(raw, mode=mode, row_labels=row_labels, col_labels=col_labels), fmt, preproc


def _cmd_generate(args):
    file_config = _load_config_file(args.config)
    hp = _resolve_hyper(args, file_config)
    fmt = args.format or "dense"
    rng = np.random.default_rng(hp.seed)
    if args.prior == "ibp":
        alpha = 1.0 if args.alpha is None else args.alpha
        z = sample_ibp(alpha, args.rows, rng).z
    elif args.prior == "3p":
        alpha = 1.0 if args.alpha is None else args.alpha
        z = sample_3p_ibp(alpha, hp.c, hp.sigma, args.rows, rng).z
    else:
        z = sample_3r_ibp(hp, args.rows, rng, alpha=args.alpha).z
    data = CountMatrix.from_dense(
        z.astype(np.int64),
        row_labels=tuple(f"r{i}" for i in range(z.shape[0])),
        col_labels=tuple(f"f{k}" for k in range(z.shape[1])),
    )
    os.makedirs(args.out, exist_ok=True)
    save_counts(data, os.path.join(args.out, "matrix.tsv"), fmt=fmt)
    config = RunConfig(
        dataset=os.path.join(args.out, "matrix.tsv"),
        fmt=fmt,
        hyper=hp,
        out_dir=args.out,
        options={"command": "generate", "prior": args.prior, "alpha": args.alpha, "rows": args.rows},
    )
    _echo_config(args.out, config)
    print(f"wrote {data.n_rows}x{data.n_cols} matrix with {data.n_nonzero} active cells to {args.out}")
    return 0


def _cmd_fit(args):
    file_config = _load_config_file(args.config)
    hp = _resolve_hyper(args, file_config)
    data, fmt, preproc = _load_data(args, file_config)
    os.makedirs(args.out, exist_ok=True)
    ckpt = os.path.join(args.out, "checkpoint.bin") if args.checkpoint_interval else None
    cfg = ChainConfig(hyper=hp, checkpoint_path=ckpt, checkpoint_interval=args.checkpoint_interval)
    config = RunConfig(
        dataset=args.data,
        fmt=fmt,
        preproc=preproc,
        hyper=hp,
        out_dir=args.out,
        options={"command": "fit", "checkpoint_interval": args.checkpoint_interval},
    )
    _echo_config(args.out, config)
    summary = run_chain(data, None, cfg)
    save_summary(summary, os.path.join(args.out, "summary.bin"))
    print(
        f"fit finished: {summary.n_samples} samples, K+ mode "
        f"{int(np.bincount(summary.kplus_trace).argmax())}, "
        f"pi acceptance {summary.pi_accept_rate:.2f}"
    )
    return 0


def _cmd_eval(args):
    file_config = _load_config_file(args.config)
    hp = _resolve_hyper(args, file_config)
    data, fmt, preproc = _load_data(args, file_config)
    holdout = float(_resolve(args, "holdout", file_config, 0.1))
    n_folds = int(_resolve(args, "folds", file_config, 10))
    os.makedirs(args.out, exist_ok=True)
    config = RunConfig(
        dataset=args.data,
        fmt=fmt,
        preproc=preproc,
        holdout=holdout,
        n_folds=n_folds,
        hyper=hp,
        out_dir=args.out,
        options={"command": "eval", "draws": args.draws, "top_m": args.top_m},
    )
    _echo_config(args.out, config)
    masks = make_splits(data, holdout, n_folds, hp.seed)
    report = evaluate_folds(data, masks, ChainConfig(hyper=hp), top_m=args.top_m, qq_draws=args.draws)
    atomic_write_text(os.path.join(args.out, "report.json"), report.to_json() + "\n")
    atomic_write_text(os.path.join(args.out, "report.txt"), report.to_text())
    print(f"eval finished over {n_folds} folds: {report.perplexity_line()}")
    return 0


def _qq_table(points):
    lines = ["empirical\tpredicted"]
    lines += [f"{e:.6g}\t{p:.6g}" for e, p in points]
    return "\n".join(lines) + "\n"


def _cmd_qq(args):
    file_config = _load_config_file(args.config)
    data, fmt, preproc = _load_data(args, file_config)
    summary = load_summary(args.posterior)
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed)
    model_pts = qq_row_nonzeros(summary, data, args.draws, rng)
    base_pts = binomial_baseline_qq(data, args.draws, rng)
    os.makedirs(args.out, exist_ok=True)
    atomic_write_text(os.path.join(args.out, "qq_model.tsv"), _qq_table(model_pts))
    atomic_write_text(os.path.join(args.out, "qq_baseline.tsv"), _qq_table(base_pts))
    config = RunConfig(
        dataset=args.data,
        fmt=fmt,
        preproc=preproc,
        hyper=summary.hyper.replace(seed=seed),
        out_dir=args.out,
        options={"command": "qq", "draws": args.draws, "posterior": args.posterior},
    )
    _echo_config(args.out, config)
    print(f"wrote qq tables ({len(model_pts)} rows) to {args.out}")
    return 0


def _cmd_topics(args):
    file_config = _load_config_file(args.config)
    data, fmt, preproc = _load_data(args, file_config)
    summary = load_summary(args.posterior)
    live = live_features(summary.z_mean)
    report = top_features(summary.b_mean, data.col_labels, args.top_m, live=live)
    lines = [f"F{k}: {feature_line(pairs)}" for k, pairs in report]
    os.makedirs(args.out, exist_ok=True)
    atomic_write_text(os.path.join(args.out, "topics.txt"), "\n".join(lines) + "\n")
    config = RunConfig(
        dataset=args.data,
        fmt=fmt,
        preproc=preproc,
        hyper=summary.hyper,
        out_dir=args.out,
        options={"command": "topics", "top_m": args.top_m, "posterior": args.posterior},
    )
    _echo_config(args.out, config)
    print(f"wrote {len(lines)} feature lines to {args.out}")
    return 0


def _cmd_meta(args):
    file_config = _load_config_file(args.config)
    summary = load_summary(args.posterior)
    hp = _resolve_hyper(args, file_config)
    cfg = ChainConfig(hyper=hp)
    meta_summary = meta_features(summary, cfg)
    live = live_features(summary.z_mean)
    labels = tuple(f"F{k}" for k in np.flatnonzero(live))
    meta_live = live_features(meta_summary.z_mean)
    report = top_features(meta_summary.b_mean, labels, args.top_m, live=meta_live)
    lines = [f"M-F{k}: {feature_line(pairs)}" for k, pairs in report]
    os.makedirs(args.out, exist_ok=True)
    save_summary(meta_summary, os.path.join(args.out, "meta_summary.bin"))
    atomic_write_text(os.path.join(args.out, "meta_topics.txt"), "\n".join(lines) + "\n")
    config = RunConfig(
        dataset=args.posterior,
        hyper=hp,
        out_dir=args.out,
        options={"command": "meta", "top_m": args.top_m},
    )
    _echo_config(args.out, config)
    print(f"meta fit finished: {len(lines)} live meta-features")
    return 0


def _cmd_resume(args):
    file_config = _load_config_file(args.config)
    data, fmt, preproc = _load_data(args, file_config)
    runner = ChainRunner.from_checkpoint(args.checkpoint, data)
    summary = runner.run()
    os.makedirs(args.out, exist_ok=True)
    save_summary(summary, os.path.join(args.out, "summary.bin"))
    config = RunConfig(
        dataset=args.data,
        fmt=fmt,
        preproc=preproc,
        hyper=summary.hyper,
        out_dir=args.out,
        options={"command": "resume", "checkpoint": args.checkpoint},
    )
    _echo_config(args.out, config)
    print(f"resumed to iteration {runner.iteration}: {summary.n_samples} samples")
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "fit": _cmd_fit,
    "eval": _cmd_eval,
    "qq": _cmd_qq,
    "topics": _cmd_topics,
    "meta": _cmd_meta,
    "resume": _cmd_resume,
}


def cli_dispatch(argv):
    """Parse argv and run the matching subcommand; returns the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (S3RIBPError, OSError, ValueError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


def main():
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
