"""Fast self-test of the benchmark: tiny workloads, then corrupted outputs.

    python3 bench/selftest.py

Each workload runs one untraced and one traced round at a tiny size and must
pass every check.  Then each check is fed a corrupted output (a changed
count, a missing held-out cell, a flipped Z entry, a perturbed score, a
reordered top list, ...) and must fail.  Last, the benchmark must refuse to
run, without printing a result, when the program's source is missing.  Exits
1 and names what went wrong when any of this does not hold.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run_bench  # pins the BLAS threads before numpy loads

import numpy as np  # noqa: E402

import checks  # noqa: E402
from inputs import WORKLOADS  # noqa: E402

TINY = {
    "econ-rca": dict(n_rows=24, n_cols=60, k_max=6, check_quality=False),
    "sparse-docs": dict(n_rows=80, n_cols=90, k_max=5),
}
TINY_SCHEDULE = dict(burn_in=5, n_samples=3, checkpoint_every=4, meta_burn_in=3, meta_samples=2, meta_chains=2)

failures = []


def expect(condition, message):
    if not condition:
        failures.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def expect_fails(errors, what):
    expect(bool(errors), f"check passed a corrupted output: {what}")


def corrupt_summary(summary, **arrays):
    out = copy.copy(summary)
    for name, value in arrays.items():
        setattr(out, name, value)
    return out


def corruptions(s3, run, data, mask, summary, scores):
    """Feed every check a corrupted output; each must report an error."""
    wl, x, hp = run.wl, run.x, run.hp
    dense = data.dense.copy()
    dense[0, 0] += 1
    bumped = s3.CountMatrix.from_dense(dense, data.row_labels, data.col_labels)
    expect_fails(checks.check_input(bumped, run.gen.counts, *run.prefixes)[0], "input count changed")

    short = s3.ObservationMask(frozenset(mask.held_out_sorted()[1:]), mask.n_rows, mask.n_cols)
    expect_fails(checks.check_splits(short, wl.n_rows, wl.n_cols, wl.holdout), "held-out cell missing")

    z = summary.z_samples.copy()
    z[0, 0, 0] ^= 1
    expect_fails(checks.check_summary(corrupt_summary(summary, z_samples=z), run.x_train, hp.eps_trunc,
                                      wl.n_samples, "fit"), "flipped Z entry")
    b = summary.b_samples.copy()
    b[0, 0, 0] = 0.0
    expect_fails(checks.check_summary(corrupt_summary(summary, b_samples=b), run.x_train, hp.eps_trunc,
                                      wl.n_samples, "fit"), "zero loading")
    expect_fails(checks.check_summary(summary, run.x_train, hp.eps_trunc, wl.n_samples + 1, "fit"),
                 "retained draw count")

    snapshot = run.runner.state_snapshot()
    cell = next(iter(snapshot.aux))
    snapshot.aux[cell] = snapshot.aux[cell] + 1
    expect_fails(checks.check_state(snapshot, data, mask, run.x_train, hp.eps_trunc, s3.InvariantError),
                 "aux split not summing to the count")

    cells = mask.held_out_sorted()
    model, base = scores
    expect_fails(checks.check_scores(summary, x, cells, model * (1 + 1e-6), base, s3.predictive_log_lik)[0],
                 "perturbed model score")
    expect_fails(checks.check_scores(summary, x, cells, model, base * (1 + 1e-6), s3.predictive_log_lik)[0],
                 "perturbed baseline score")

    def off_by_one(sm, cell, value):
        return s3.predictive_log_lik(sm, cell, value) + 1e-6

    expect_fails(checks.check_scores(summary, x, cells, model, base, off_by_one)[0], "perturbed cell score")

    live = s3.live_features(summary.z_mean)
    top = s3.top_features(summary.b_mean, data.col_labels, wl.top_m, live=live)
    rng = np.random.default_rng(0)
    qq_model = s3.qq_row_nonzeros(summary, data, 2, rng)
    qq_base = s3.binomial_baseline_qq(data, 2, rng)
    args = (summary, x, data.col_labels, wl.top_m)
    expect(not checks.check_report(*args, live, top, -1.0, qq_model, qq_base), "report checks pass as produced")
    k, pairs = top[0]
    swapped = [(k, (pairs[1], pairs[0]) + tuple(pairs[2:]))] + list(top[1:])
    expect_fails(checks.check_report(*args, live, swapped, -1.0, qq_model, qq_base), "reordered top list")
    flipped = np.array(live)
    flipped[0] = not flipped[0]
    expect_fails(checks.check_report(*args, flipped, top, -1.0, qq_model, qq_base), "flipped live flag")
    shifted = [(e + 1.0, p) for e, p in qq_model]
    expect_fails(checks.check_report(*args, live, top, -1.0, shifted, qq_base), "qq empirical side")

    meta_hp = hp.replace(burn_in=wl.meta_burn_in, n_samples=wl.meta_samples)
    meta = s3.meta_features(summary, s3.ChainConfig(hyper=meta_hp))
    expect(not checks.check_meta(meta, summary, hp.eps_trunc, wl.meta_samples), "meta checks pass as produced")
    mz = meta.z_samples.copy()
    mz[0, 0, 0] ^= 1
    expect_fails(checks.check_meta(corrupt_summary(meta, z_samples=mz), summary, hp.eps_trunc, wl.meta_samples),
                 "flipped meta Z entry")


def tiny_workload(s3, name, work):
    wl = dataclasses.replace(WORKLOADS[name], **TINY[name], **TINY_SCHEDULE)
    run = run_bench.Run(s3, wl, 7, work)
    result = run.round()
    expect(result is not None and run.failed == 0 and run.correct, f"{name}: tiny round passes its checks")
    if result is None:
        return

    traced = run_bench.Run(s3, wl, 7, work)
    layers = run_bench.measure_traced(traced)
    expect(traced.failed == 0 and traced.correct, f"{name}: tiny traced round matches the untraced summary")
    expect(set(layers) == set(run_bench.PER_LAYER), f"{name}: traced run reports every per-layer metric")
    missing = sorted(k for k, v in layers.items() if v is None or not math.isfinite(v) or v <= 0)
    expect(not missing, f"{name}: every per-layer metric is a positive number (not: {missing})")

    # rebuild the last round's objects for the corruption checks
    data, mask, runner = run._setup_once()
    run.runner = runner
    summary = runner.run()
    scores = (s3.log_perplexity(summary, data, mask), s3.baseline_row_mean_log_perplexity(data, mask))
    corruptions(s3, run, data, mask, summary, scores)

    fit_check = run_bench.Run(s3, wl, 7, work)
    data, mask, runner, _ = fit_check.setup(1)
    try:
        fit_check.fit(data, mask, runner, reference_bytes=b"not the summary")
    except run_bench.PhaseFailed:
        pass
    expect(not fit_check.correct, f"{name}: fit check catches a summary that differs from the reference")


def benchmark_json_matches():
    spec = json.loads((run_bench.ROOT / "BENCHMARK.json").read_text())
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run_bench.END_TO_END,
           "BENCHMARK.json end_to_end names and units match the benchmark")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == run_bench.PER_LAYER,
           "BENCHMARK.json per_layer names and units match the benchmark")
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
           "BENCHMARK.json workloads match the benchmark")


def refuses_without_program(work):
    bare = Path(work) / "bare"
    shutil.copytree(run_bench.HERE, bare / "bench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(run_bench.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "econ-rca", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(), "exits non-zero without a result when src/ is missing")


def main():
    s3 = run_bench.import_program()
    (run_bench.HERE / "work").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=run_bench.HERE / "work")
    try:
        for name in sorted(WORKLOADS):
            tiny_workload(s3, name, work)
        benchmark_json_matches()
        refuses_without_program(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: " + ("FAILED: " + "; ".join(failures) if failures else "all checks behave"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
