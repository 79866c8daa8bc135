"""Regenerate the README's figures: ten seeds per workload, then one traced run.

    python3 bench/collect.py

Each run is a fresh ``run_bench.py`` process, one after another, measuring
for the ``run_seconds`` of ``BENCHMARK.json``.  Prints, per workload, the
median and the quartile spread (Q3 - Q1, as a share of the median, from
``statistics.quantiles(values, n=4)``) of every end-to-end metric, the
held-out quality figures of every seed, and the traced run's per-layer
metrics at the first seed.  Each run's result line and diagnostics are kept
under ``bench/results/``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("econ-rca", "sparse-docs")
SEEDS = range(1, 11)
OUT = HERE / "results"


def run(workload, seed, seconds, trace, out):
    cmd = [sys.executable, str(HERE / "run_bench.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    stem = out / f"{workload}-{seed}-trace{trace}"
    stem.with_suffix(".err").write_text(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    last = proc.stdout.strip().splitlines()[-1]
    stem.with_suffix(".json").write_text(last + "\n")
    figures = [ln for ln in proc.stderr.splitlines() if "figures" in ln]
    return json.loads(last), json.loads(figures[-1].split("figures ", 1)[1]) if figures else {}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    OUT.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS:
        results = [run(workload, seed, seconds, 0, OUT) for seed in SEEDS]
        print(f"## {workload}: seeds {SEEDS[0]}-{SEEDS[-1]}, {seconds} s per run")
        print(f"correct: {all(r['correct'] for r, _ in results)}; "
              f"failed/attempted: {sum(r['failed'] for r, _ in results)}/{sum(r['attempted'] for r, _ in results)}")
        print("| metric | unit | median | spread | min | max |\n| --- | --- | --- | --- | --- | --- |")
        for name, spec in results[0][0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r, _ in results]
            print(f"| {name} | {spec['unit']} | {statistics.median(vals):.4g} | {spread(vals):.3f} "
                  f"| {min(vals):.4g} | {max(vals):.4g} |")
        print("\n| seed | model | baseline | model, finite cells | non-finite model/baseline cells |")
        print("| --- | --- | --- | --- | --- |")
        for seed, (_, fig) in zip(SEEDS, results):
            print(f"| {seed} | {fig['model_log_perplexity']:.4f} | {fig['baseline_log_perplexity']:.4f} "
                  f"| {fig['model_finite_mean']:.4f} "
                  f"| {fig['model_nonfinite_cells']}/{fig['baseline_nonfinite_cells']} |")
        traced, _ = run(workload, SEEDS[0], seconds, 1, OUT)
        print(f"\ntraced run, seed {SEEDS[0]}: correct {traced['correct']}, "
              f"failed/attempted {traced['failed']}/{traced['attempted']}")
        print("| metric | unit | value |\n| --- | --- | --- |")
        for name, spec in traced["metrics"].items():
            value = spec["value"]
            print(f"| {name} | {spec['unit']} | {'absent' if value is None else f'{value:.4g}'} |")
        print()
        sys.stdout.flush()


if __name__ == "__main__":
    main()
