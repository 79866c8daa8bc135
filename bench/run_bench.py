"""Run one s3ribp benchmark workload and print its metrics as one JSON line.

    python3 bench/run_bench.py --workload econ-rca --seed 1 --seconds 10 --trace 0

The input is generated from the seed, written as a file, and taken through
the package's public API in the CLI's order: io, model, mcmc, evaluate.  One
round has five phases, each one operation whose outputs are checked after
its timed region: setup (read, preprocess, split, construct the runner),
fit, score, report and meta.  The two short phases, setup and report, run
several times in a round and report their median.  Rounds repeat until
``--seconds`` have passed; a fixed seed makes every round do the same work,
and each figure is the median over rounds.  ``--trace 1`` instead runs one untraced setup and fit, then one
traced round, and prints the per-layer metrics.

The last line of standard output is the result; diagnostics go to standard
error.  The program is imported from ``src/`` of the checkout this file
sits in, and the run exits 2 without a result when it is not there.
"""

from __future__ import annotations

import os

# Pin the BLAS pool to one thread before numpy loads: the figures are for a
# single-threaded process, and a shared machine makes extra threads noisy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
from inputs import WORKLOADS, chain_seed, generate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PHASES = ("setup", "fit", "score", "report", "meta")
QQ_DRAWS = 50  # replicates per qq table, the CLI's default
# The two short phases, setup and report, run this many times in a round and
# report their median, so that one slow second does not set the figure.
SHORT_REPEATS = 3
# No new round starts if it could end past this many seconds of the run,
# whatever --seconds asks, so that a run ends well within three minutes.
DEADLINE_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "fit_ms_per_iter": "ms/iteration",
    "score_s": "s",
    "report_s": "s",
    "meta_ms_per_iter": "ms/iteration",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "io.read_s": "s",
    "io.make_splits_s": "s",
    "model.preprocess_s": "s",
    "priors.exposure_mass_ms": "ms",
    "mcmc.runner_init_s": "s",
    "mcmc.z_sweep_ms": "ms/iteration",
    "mcmc.z_flips_per_iter": "count",
    "mcmc.pi_mh_ms": "ms/iteration",
    "mcmc.pi_accept_rate": "ratio",
    "condbern.esp_calls_per_iter": "count",
    "condbern.esp_ms_per_iter": "ms/iteration",
    "mcmc.aux_split_ms": "ms/iteration",
    "mcmc.aux_units_per_iter": "count",
    "mcmc.b_draw_ms": "ms/iteration",
    "mcmc.alpha_draw_ms": "ms/iteration",
    "mcmc.invariant_check_ms": "ms/iteration",
    "mcmc.retain_ms": "ms/iteration",
    "mcmc.kplus_mean": "features",
    "mcmc.meta_z_sweep_ms": "ms/iteration",
    "mcmc.meta_pi_mh_ms": "ms/iteration",
    "io.checkpoint_write_ms": "ms/checkpoint",
    "io.checkpoint_bytes": "bytes",
    "io.save_summary_s": "s",
    "io.load_summary_s": "s",
    "io.summary_bytes": "bytes",
    "evaluate.log_perplexity_s": "s",
    "evaluate.baseline_s": "s",
    "evaluate.scored_cells": "count",
    "evaluate.us_per_scored_cell": "us/cell",
    "evaluate.topics_s": "s",
    "evaluate.coherence_s": "s",
    "evaluate.qq_s": "s",
    "bench.traced_fit_ratio": "ratio",
}


class PhaseFailed(Exception):
    """A phase raised or its check failed; the rest of the round is skipped."""


def import_program():
    """Import s3ribp from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "s3ribp" / "__init__.py").is_file():
        print(f"run_bench: no s3ribp package under {src}; nothing to benchmark", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import s3ribp

    if Path(s3ribp.__file__).resolve().parent != (src / "s3ribp").resolve():
        print(f"run_bench: imported s3ribp from {s3ribp.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)
    return s3ribp


class Run:
    """One workload run: the program, the generated input, the tallies."""

    def __init__(self, s3ribp, wl, seed, work):
        self.s3 = s3ribp
        self.wl = wl
        self.work = Path(work)
        self.gen = generate(wl, seed, str(self.work))
        self.hp = s3ribp.HyperParams(
            c=wl.c,
            sigma=wl.sigma,
            k_max=wl.k_max,
            burn_in=wl.burn_in,
            n_samples=wl.n_samples,
            seed=chain_seed(seed),
        )
        self.prefixes = ("r", "p") if self.gen.raw is not None else ("r", "w")
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.figures = {}
        self.tracer = None

    # -- bookkeeping ---------------------------------------------------------

    def phase(self, name, work, check, repeats=1):
        """Run one operation: time ``work`` ``repeats`` times, then ``check``
        the last output.

        Returns (output, list of seconds).  A raised exception or a failed
        check counts the operation as failed; a failed check also clears
        ``correct``.  With a tracer set, calls made by ``work`` count in
        this phase and calls made by ``check`` in none.
        """
        self.attempted += 1
        times = []
        try:
            with self.tracer.in_phase(name) if self.tracer else contextlib.nullcontext():
                for _ in range(repeats):
                    out = None  # the previous repetition's objects go first
                    t0 = time.perf_counter()
                    out = work()
                    times.append(time.perf_counter() - t0)
        except Exception:
            self.failed += 1
            print(f"[{self.wl.name}] {name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            raise PhaseFailed(name) from None
        errors = check(out)
        if errors:
            self.failed += 1
            self.correct = False
            for err in errors:
                print(f"[{self.wl.name}] {name} check failed: {err}", file=sys.stderr)
            raise PhaseFailed(name)
        return out, times

    # -- phases ----------------------------------------------------------------

    def _setup_once(self):
        s3 = self.s3
        # Each setup pays the exposure-mass quadrature, as a fresh CLI process does.
        getattr(s3.priors.levy_exposure_mass, "cache_clear", lambda: None)()
        if self.gen.raw is not None:
            raw, row_labels, col_labels = s3.load_raw_matrix(self.gen.path)
            data = s3.rca_transform(raw, mode="round", row_labels=row_labels, col_labels=col_labels)
        else:
            data = s3.load_counts(self.gen.path)
        mask = s3.make_splits(data, self.wl.holdout, 1, self.hp.seed)[0]
        config = s3.ChainConfig(
            hyper=self.hp,
            checkpoint_path=str(self.work / "checkpoint.bin"),
            checkpoint_interval=self.wl.checkpoint_every,
        )
        return data, mask, s3.ChainRunner(data, mask, config)

    def setup(self, repeats):
        def check(out):
            data, mask, _ = out
            errors, self.x = checks.check_input(data, self.gen.counts, *self.prefixes)
            errors += checks.check_splits(mask, self.wl.n_rows, self.wl.n_cols, self.wl.holdout)
            if not errors:
                self.x_train = checks.training_counts(self.x, mask.held_out_sorted())
            return errors

        (data, mask, runner), times = self.phase("setup", self._setup_once, check, repeats)
        return data, mask, runner, times

    def fit(self, data, mask, runner, reference_bytes=None):
        s3 = self.s3
        fit_path = self.work / "fit_summary.bin"

        def check(summary):
            errors = checks.check_state(
                runner.state_snapshot(), data, mask, self.x_train, self.hp.eps_trunc, s3.InvariantError
            )
            errors += checks.check_summary(summary, self.x_train, self.hp.eps_trunc, self.wl.n_samples, "fit")
            s3.save_summary(summary, str(fit_path))
            resumed = s3.ChainRunner.from_checkpoint(str(self.work / "checkpoint.bin"), data, mask).run()
            s3.save_summary(resumed, str(self.work / "resumed.bin"))
            fit_bytes = fit_path.read_bytes()
            if (self.work / "resumed.bin").read_bytes() != fit_bytes:
                errors.append("summary resumed from the final checkpoint differs from the fit's")
            if reference_bytes is not None and fit_bytes != reference_bytes:
                errors.append("summary differs from the first fit at the same seed")
            return errors

        summary, times = self.phase("fit", runner.run, check)
        return summary, fit_path.read_bytes(), 1000.0 * times[0] / self.wl.iterations

    def score(self, data, mask, summary):
        s3 = self.s3

        def work():
            return (
                s3.log_perplexity(summary, data, mask),
                s3.baseline_row_mean_log_perplexity(data, mask),
            )

        def check(out):
            cells = mask.held_out_sorted()
            errors, figures = checks.check_scores(summary, self.x, cells, *out, s3.predictive_log_lik)
            self.figures.update(figures)
            if self.wl.check_quality and not out[0] < out[1]:
                errors.append(f"model log-perplexity {out[0]} is not below the baseline's {out[1]}")
            return errors

        return self.phase("score", work, check)[1]

    def report(self, data, summary):
        s3 = self.s3
        path = str(self.work / "summary.bin")
        top_m = self.wl.top_m

        def work():
            s3.save_summary(summary, path)
            loaded = s3.load_summary(path)
            live = s3.live_features(loaded.z_mean)
            top = s3.top_features(loaded.b_mean, data.col_labels, top_m, live=live)
            coherence = s3.umass_coherence(loaded.b_mean, data, top_m, live=live)
            rng = np.random.default_rng(self.hp.seed)
            qq_model = s3.qq_row_nonzeros(loaded, data, QQ_DRAWS, rng)
            qq_base = s3.binomial_baseline_qq(data, QQ_DRAWS, rng)
            return loaded, live, top, coherence, qq_model, qq_base

        def check(out):
            loaded, live, top, coherence, qq_model, qq_base = out
            errors = checks.check_report(loaded, self.x, data.col_labels, top_m, live, top, coherence, qq_model, qq_base)
            saved = Path(path).read_bytes()
            if saved != (self.work / "fit_summary.bin").read_bytes():
                errors.append("saved summary differs from the fit's summary bytes")
            s3.save_summary(loaded, str(self.work / "reloaded.bin"))
            if (self.work / "reloaded.bin").read_bytes() != saved:
                errors.append("save -> load -> save is not byte-identical")
            self.figures["live_features"] = int(np.sum(live))
            self.figures["coherence"] = float(coherence)
            return errors

        (loaded, *_), times = self.phase("report", work, check, SHORT_REPEATS)
        return loaded, times

    def meta(self, loaded):
        """Second-layer chains from seeds chain seed + 1, ..., + meta_chains;
        ms/iteration of each.

        Every round runs the same chains, so the work of a round does not
        depend on how many rounds fit in a run.
        """
        s3 = self.s3
        hp = self.hp.replace(burn_in=self.wl.meta_burn_in, n_samples=self.wl.meta_samples)
        seeds = iter([(hp.seed + i) % 2**64 for i in range(1, self.wl.meta_chains + 1)])
        summaries = []

        def work():
            config = s3.ChainConfig(hyper=hp.replace(seed=next(seeds)))
            summaries.append(s3.meta_features(loaded, config))

        def check(_):
            return [e for m in summaries for e in checks.check_meta(m, loaded, hp.eps_trunc, hp.n_samples)]

        _, times = self.phase("meta", work, check, self.wl.meta_chains)
        return [1000.0 * t / (hp.burn_in + hp.n_samples) for t in times]

    def round(self, reference_bytes=None):
        """One pass through the five phases; returns the phase figures.

        Time lists hold one entry per repetition of a repeated phase.
        """
        done = []
        try:
            data, mask, runner, setup_s = self.setup(SHORT_REPEATS)
            done.append("setup")
            summary, fit_bytes, fit_ms = self.fit(data, mask, runner, reference_bytes)
            done.append("fit")
            score_s = self.score(data, mask, summary)
            done.append("score")
            loaded, report_s = self.report(data, summary)
            done.append("report")
            meta_ms = self.meta(loaded)
        except PhaseFailed as exc:
            skipped = [p for p in PHASES if p not in done and p != exc.args[0]]
            self.attempted += len(skipped)
            self.failed += len(skipped)
            return None
        return {
            "setup_s": setup_s,
            "fit_ms_per_iter": [fit_ms],
            "fit_bytes": fit_bytes,
            "score_s": score_s,
            "report_s": report_s,
            "meta_ms_per_iter": meta_ms,
            "scored_cells": mask.n_held_out,
        }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(run, seconds):
    """Untraced rounds until ``seconds`` have passed; medians of each figure."""
    start = time.perf_counter()
    rounds = []
    reference = None
    while True:
        t0 = time.perf_counter()
        result = run.round(reference)
        if result is None:
            break
        reference = result["fit_bytes"]
        rounds.append(result)
        now = time.perf_counter()
        if now - start >= seconds or now - start + (now - t0) > DEADLINE_S:
            break
    if not rounds:
        return {}
    metrics = {name: statistics.median([t for r in rounds for t in r[name]]) for name in END_TO_END if name in rounds[0]}
    metrics["peak_rss_mb"] = peak_rss_mb()
    print(f"[{run.wl.name}] {len(rounds)} round(s); figures {json.dumps(run.figures)}", file=sys.stderr)
    return metrics


def measure_traced(run):
    """One untraced setup and fit, then one traced round at the same seed."""
    try:
        data, mask, runner, _ = run.setup(1)
        _, untraced_bytes, untraced_ms = run.fit(data, mask, runner)
    except PhaseFailed:
        return {}
    del data, mask, runner
    tracer = run.tracer = tracing.Tracer()
    tracing.install(tracer, run.s3)
    try:
        result = run.round(untraced_bytes)
    finally:
        tracer.restore()
        run.tracer = None
    if result is None:
        return {}
    print(f"[{run.wl.name}] traced; absent names: {sorted(tracer.absent)}", file=sys.stderr)
    return layer_metrics(tracer, run.wl, result, untraced_ms, run.work / "summary.bin", run.x_train)


def layer_metrics(tracer, wl, result, untraced_ms, summary_path, x_train):
    """Per-layer metrics from the traced round's totals.

    Every aux split divides the whole training count total, so that total
    is the aux units per iteration.  The tracing overhead is a ratio of the
    traced to the untraced fit, which stays positive where a difference of
    two noisy times would change sign.
    """

    def seconds(phase, *spans, per=1.0, scale=1.0):
        totals = [tracer.total(phase, s) for s in spans]
        if any(t is None for t in totals) or sum(t[0] for t in totals) == 0:
            return None
        return scale * sum(t[1] for t in totals) / per

    def per_call(phase, span, key):
        total, value = tracer.total(phase, span), tracer.count(phase, key)
        if total is None or value is None or total[0] == 0:
            return None
        return value / total[0]

    def ratio(phase, num, den):
        a, b = tracer.count(phase, num), tracer.count(phase, den)
        return None if a is None or not b else a / b

    iters, meta_iters = wl.iterations, wl.meta_iterations
    writes = iters // wl.checkpoint_every
    esp = tracer.total("fit", "condbern.esp")
    score = seconds("score", "evaluate.log_perplexity", "evaluate.baseline")
    out = {
        "io.read_s": seconds("setup", "io.read", per=SHORT_REPEATS),
        "io.make_splits_s": seconds("setup", "io.make_splits", per=SHORT_REPEATS),
        "model.preprocess_s": seconds("setup", "model.preprocess", per=SHORT_REPEATS),
        "priors.exposure_mass_ms": seconds("setup", "priors.exposure_mass", per=SHORT_REPEATS, scale=1e3),
        "mcmc.runner_init_s": seconds("setup", "mcmc.runner_init", per=SHORT_REPEATS),
        "mcmc.z_sweep_ms": seconds("fit", "mcmc.z_sweep", per=iters, scale=1e3),
        "mcmc.z_flips_per_iter": per_call("fit", "mcmc.z_sweep", "z_flips"),
        "mcmc.pi_mh_ms": seconds("fit", "mcmc.pi_mh", per=iters, scale=1e3),
        "mcmc.pi_accept_rate": ratio("fit", "pi_accepted", "pi_proposed"),
        "condbern.esp_calls_per_iter": None if esp is None else esp[0] / iters,
        "condbern.esp_ms_per_iter": seconds("fit", "condbern.esp", per=iters, scale=1e3),
        "mcmc.aux_split_ms": seconds("fit", "mcmc.aux_split", per=iters, scale=1e3),
        "mcmc.aux_units_per_iter": float(x_train.sum()),
        "mcmc.b_draw_ms": seconds("fit", "mcmc.b_draw", per=iters, scale=1e3),
        "mcmc.alpha_draw_ms": seconds("fit", "mcmc.alpha_draw", per=iters, scale=1e3),
        "mcmc.invariant_check_ms": seconds("fit", "mcmc.invariant_check", per=iters, scale=1e3),
        "mcmc.retain_ms": seconds("fit", "mcmc.retain", per=iters, scale=1e3),
        "mcmc.kplus_mean": per_call("fit", "mcmc.z_sweep", "kplus"),
        "mcmc.meta_z_sweep_ms": seconds("meta", "mcmc.z_sweep", per=meta_iters, scale=1e3),
        "mcmc.meta_pi_mh_ms": seconds("meta", "mcmc.pi_mh", per=meta_iters, scale=1e3),
        "io.checkpoint_write_ms": seconds("fit", "io.checkpoint_write", per=writes, scale=1e3),
        "io.checkpoint_bytes": per_call("fit", "io.checkpoint_write", "checkpoint_bytes"),
        "io.save_summary_s": seconds("report", "io.save_summary", per=SHORT_REPEATS),
        "io.load_summary_s": seconds("report", "io.load_summary", per=SHORT_REPEATS),
        "io.summary_bytes": float(os.path.getsize(summary_path)),
        "evaluate.log_perplexity_s": seconds("score", "evaluate.log_perplexity"),
        "evaluate.baseline_s": seconds("score", "evaluate.baseline"),
        "evaluate.scored_cells": float(result["scored_cells"]),
        "evaluate.us_per_scored_cell": None if score is None else 1e6 * score / result["scored_cells"],
        "evaluate.topics_s": seconds("report", "evaluate.topics", per=SHORT_REPEATS),
        "evaluate.coherence_s": seconds("report", "evaluate.coherence", per=SHORT_REPEATS),
        "evaluate.qq_s": seconds("report", "evaluate.qq", per=SHORT_REPEATS),
        "bench.traced_fit_ratio": result["fit_ms_per_iter"][0] / untraced_ms,
    }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    s3ribp = import_program()
    wl = WORKLOADS[args.workload]
    (HERE / "work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-{args.seed}-", dir=HERE / "work")
    try:
        run = Run(s3ribp, wl, args.seed, work)
        metrics = measure_traced(run) if args.trace else measure(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
