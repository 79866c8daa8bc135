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
from .model import CountMatrix, HyperParams, _whole, rca_transform
from .priors import sample_3p_ibp, sample_3r_ibp, sample_ibp

__all__ = ["cli_dispatch", "main"]

log = logging.getLogger(__name__)

# (flag, field, help) rows: the HyperParams fields, and the RunConfig fields
# that set eval's folds.  _add_flags reads a flag's type and the default its
# help states from the dataclass; its value lands on args.<field>.
_HYPER_FLAGS = (
    ("--seed", "seed", "chain seed"),
    ("--k-max", "k_max", "feature truncation"),
    ("--burn-in", "burn_in", "burn-in iterations"),
    ("--samples", "n_samples", "retained samples"),
    ("--thin", "thin", "retention stride"),
    ("--alpha-b", "alpha_b", "loading shape"),
    ("--mu-b", "mu_b", "loading mean"),
    ("--c", "c", "concentration"),
    ("--sigma", "sigma", "stable exponent in [0,1); 1 clamps just below"),
    ("--nb-r", "nb_r", "row-count NB size"),
    ("--nb-p", "nb_p", "row-count NB probability"),
    ("--eps-trunc", "eps_trunc", "atom floor"),
    ("--mh-step", "mh_step", "logit proposal scale"),
    ("--alpha-shape", "alpha_prior_shape", "mass prior shape"),
    ("--alpha-scale", "alpha_prior_scale", "mass prior scale"),
)
_FOLD_FLAGS = (("--folds", "n_folds", "number of hold-out folds"), ("--holdout", "holdout", "held-out cell fraction"))


def _add_flags(p, table, defaults):
    for flag, name, text in table:
        value = getattr(defaults, name)
        p.add_argument(
            flag,
            type=type(value),
            default=None,
            dest=name,
            metavar=flag[2:].replace("-", "_").upper(),
            help=f"{text} (default {value:g})",
        )


def _add_data_flags(p):
    p.add_argument("--data", required=True, help="count file (dense or triplet)")
    p.add_argument("--format", default=None, dest="fmt", choices=["auto", "dense", "triplet"], help="input format")
    p.add_argument("--preproc", default=None, choices=["none", "rca-round", "rca-binary"], help="preprocessing")


def _build_parser():
    top = argparse.ArgumentParser(prog="s3ribp", description=__doc__.splitlines()[0])
    top.add_argument("--version", action="version", version=f"s3ribp {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, handler, text):
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", default=None, help="RunConfig JSON to use as defaults")
        return p

    gen = command("generate", _cmd_generate, "forward-sample a prior to a matrix file")
    gen.add_argument("--prior", default="s3r", choices=["ibp", "3p", "s3r"], help="which process to sample")
    alpha_help = "mass parameter (default 1; s3r draws it from its prior; its weights use it only at sigma = 0)"
    gen.add_argument("--alpha", type=float, default=None, help=alpha_help)
    gen.add_argument("--rows", type=int, default=100, help="number of rows to sample")
    gen.add_argument("--format", default="dense", dest="fmt", choices=["dense", "triplet"], help="matrix file format")
    _add_flags(gen, _HYPER_FLAGS, HyperParams())

    fit = command("fit", _cmd_fit, "run one chain on a count file")
    _add_data_flags(fit)
    fit.add_argument(
        "--checkpoint-interval",
        type=int,
        default=0,
        dest="checkpoint_interval",
        help="write a resumable checkpoint every this many iterations (0 disables)",
    )
    _add_flags(fit, _HYPER_FLAGS, HyperParams())

    ev = command("eval", _cmd_eval, "cross-fold perplexity/coherence/match report")
    _add_data_flags(ev)
    _add_flags(ev, _FOLD_FLAGS, RunConfig)
    ev.add_argument("--draws", type=int, default=50, help="replicates per qq table")
    ev.add_argument("--top-m", type=int, default=10, dest="top_m", help="columns per feature in reports")
    _add_flags(ev, _HYPER_FLAGS, HyperParams())

    qq = command("qq", _cmd_qq, "model and baseline qq tables for a fitted posterior")
    _add_data_flags(qq)
    qq.add_argument("--posterior", required=True, help="summary file from fit")
    qq.add_argument("--draws", type=int, default=50, help="replicates per qq table")
    qq.add_argument("--seed", type=int, default=0, help="replicate seed (default 0)")

    tp = command("topics", _cmd_topics, "top-weight columns per live feature")
    _add_data_flags(tp)
    tp.add_argument("--posterior", required=True, help="summary file from fit")
    tp.add_argument("--top-m", type=int, default=10, dest="top_m", help="columns per feature")

    mt = command("meta", _cmd_meta, "fit a second layer to the binarized activity pattern")
    mt.add_argument("--posterior", required=True, help="first-layer summary file")
    mt.add_argument("--top-m", type=int, default=10, dest="top_m", help="features per meta-feature in the report")
    _add_flags(mt, _HYPER_FLAGS, HyperParams())

    rs = command("resume", _cmd_resume, "continue a chain from a checkpoint")
    _add_data_flags(rs)
    rs.add_argument("--checkpoint", required=True, help="checkpoint file from fit")

    return top


def _load_config_file(path):
    if path is None:
        return None
    with open(path, encoding="utf-8") as fh:
        return RunConfig.from_json(fh.read())


def _resolve_hyper(args, file_config):
    base = file_config.hyper if file_config is not None else HyperParams()
    return base.replace(**{name: getattr(args, name) for _, name, _ in _HYPER_FLAGS if getattr(args, name) is not None})


def _resolve(args, name, file_config):
    """An explicit flag, else the --config file's entry, else RunConfig's default."""
    val = getattr(args, name)
    if val is not None:
        return val
    return getattr(file_config if file_config is not None else RunConfig(dataset=args.data), name)


def _load_data(args, file_config):
    """The matrix --data names, and the RunConfig fields that record its source."""
    fmt = _resolve(args, "fmt", file_config)
    preproc = _resolve(args, "preproc", file_config)
    source = {"dataset": args.data, "fmt": fmt, "preproc": preproc}
    if preproc == "none":
        return load_counts(args.data, fmt), source
    raw, row_labels, col_labels = load_raw_matrix(args.data, fmt)
    mode = "round" if preproc == "rca-round" else "binary"
    return rca_transform(raw, mode=mode, row_labels=row_labels, col_labels=col_labels), source


def _open_out(args, options, **fields):
    """Create --out and write its run_config.json: the command, the named
    ``args`` attributes as options, and the given RunConfig fields.  Called
    once the inputs are read, so a bad input leaves no directory behind."""
    config = RunConfig(
        out_dir=args.out,
        options={"command": args.command, **{name: getattr(args, name) for name in options}},
        **fields,
    )
    os.makedirs(args.out, exist_ok=True)
    atomic_write_text(os.path.join(args.out, "run_config.json"), config.to_json(version=__version__) + "\n")


def _write_lines(args, name, lines):
    atomic_write_text(os.path.join(args.out, name), "\n".join(lines) + "\n")


def _cmd_generate(args, file_config):
    hp = _resolve_hyper(args, file_config)
    rng = np.random.default_rng(hp.seed)
    alpha = 1.0 if args.alpha is None else args.alpha
    if args.prior == "ibp":
        z = sample_ibp(alpha, args.rows, rng).z
    elif args.prior == "3p":
        z = sample_3p_ibp(alpha, hp.c, hp.sigma, args.rows, rng).z
    else:
        z = sample_3r_ibp(hp, args.rows, rng, alpha=args.alpha).z
    data = CountMatrix.from_dense(
        z.astype(np.int64),
        row_labels=tuple(f"r{i}" for i in range(z.shape[0])),
        col_labels=tuple(f"f{k}" for k in range(z.shape[1])),
    )
    path = os.path.join(args.out, "matrix.tsv")
    _open_out(args, ("prior", "alpha", "rows"), dataset=path, fmt=args.fmt, hyper=hp)
    save_counts(data, path, fmt=args.fmt)
    print(f"wrote {data.n_rows}x{data.n_cols} matrix with {data.n_nonzero} active cells to {args.out}")
    return 0


def _cmd_fit(args, file_config):
    hp = _resolve_hyper(args, file_config)
    data, source = _load_data(args, file_config)
    ckpt = os.path.join(args.out, "checkpoint.bin") if args.checkpoint_interval else None
    cfg = ChainConfig(hyper=hp, checkpoint_path=ckpt, checkpoint_interval=args.checkpoint_interval)
    _open_out(args, ("checkpoint_interval",), hyper=hp, **source)
    summary = run_chain(data, None, cfg)
    save_summary(summary, os.path.join(args.out, "summary.bin"))
    print(
        f"fit finished: {summary.n_samples} samples, K+ mode "
        f"{int(np.bincount(summary.kplus_trace).argmax())}, "
        f"pi acceptance {summary.pi_accept_rate:.2f}"
    )
    return 0


def _cmd_eval(args, file_config):
    _whole(args.draws, "--draws", 1)
    _whole(args.top_m, "--top-m", 1)
    hp = _resolve_hyper(args, file_config)
    data, source = _load_data(args, file_config)
    holdout = _resolve(args, "holdout", file_config)
    n_folds = _resolve(args, "n_folds", file_config)
    masks = make_splits(data, holdout, n_folds, hp.seed)
    report = evaluate_folds(data, masks, ChainConfig(hyper=hp), top_m=args.top_m, qq_draws=args.draws)
    _open_out(args, ("draws", "top_m"), holdout=holdout, n_folds=n_folds, hyper=hp, **source)
    atomic_write_text(os.path.join(args.out, "report.json"), report.to_json() + "\n")
    atomic_write_text(os.path.join(args.out, "report.txt"), report.to_text())
    print(f"eval finished over {n_folds} folds: {report.perplexity_line()}")
    return 0


def _cmd_qq(args, file_config):
    _whole(args.draws, "--draws", 1)
    data, source = _load_data(args, file_config)
    summary = load_summary(args.posterior)
    rng = np.random.default_rng(args.seed)
    model_pts = qq_row_nonzeros(summary, data, args.draws, rng)
    base_pts = binomial_baseline_qq(data, args.draws, rng)
    _open_out(args, ("draws", "posterior", "seed"), hyper=summary.hyper, **source)
    for name, points in (("qq_model.tsv", model_pts), ("qq_baseline.tsv", base_pts)):
        _write_lines(args, name, ["empirical\tpredicted"] + [f"{e:.6g}\t{p:.6g}" for e, p in points])
    print(f"wrote qq tables ({len(model_pts)} rows) to {args.out}")
    return 0


def _cmd_topics(args, file_config):
    _whole(args.top_m, "--top-m", 1)
    data, source = _load_data(args, file_config)
    summary = load_summary(args.posterior)
    live = live_features(summary.z_mean)
    report = top_features(summary.b_mean, data.col_labels, args.top_m, live=live)
    lines = [f"F{k}: {feature_line(pairs)}" for k, pairs in report]
    _open_out(args, ("top_m", "posterior"), hyper=summary.hyper, **source)
    _write_lines(args, "topics.txt", lines)
    print(f"wrote {len(lines)} feature lines to {args.out}")
    return 0


def _cmd_meta(args, file_config):
    _whole(args.top_m, "--top-m", 1)
    summary = load_summary(args.posterior)
    hp = _resolve_hyper(args, file_config)
    meta_summary = meta_features(summary, ChainConfig(hyper=hp))
    labels = tuple(f"F{k}" for k in np.flatnonzero(live_features(summary.z_mean)))
    report = top_features(meta_summary.b_mean, labels, args.top_m, live=live_features(meta_summary.z_mean))
    lines = [f"M-F{k}: {feature_line(pairs)}" for k, pairs in report]
    _open_out(args, ("top_m",), dataset=args.posterior, hyper=hp)
    save_summary(meta_summary, os.path.join(args.out, "meta_summary.bin"))
    _write_lines(args, "meta_topics.txt", lines)
    print(f"meta fit finished: {len(lines)} live meta-features")
    return 0


def _cmd_resume(args, file_config):
    data, source = _load_data(args, file_config)
    runner = ChainRunner.from_checkpoint(args.checkpoint, data)
    summary = runner.run()
    _open_out(args, ("checkpoint",), hyper=summary.hyper, **source)
    save_summary(summary, os.path.join(args.out, "summary.bin"))
    print(f"resumed to iteration {runner.iteration}: {summary.n_samples} samples")
    return 0


def cli_dispatch(argv):
    """Parse argv and run the matching subcommand; returns the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code or 0)
    try:
        return args.handler(args, _load_config_file(args.config))
    except (S3RIBPError, OSError, ValueError) as exc:
        sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n")
        return 1


def main():
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
