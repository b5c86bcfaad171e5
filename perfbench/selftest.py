"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py            # tiny inputs, ~1-2 minutes
    python3 perfbench/selftest.py --scale full --seconds 20

Checks, for every workload:

* the last stdout line is the result object with exactly the keys
  ``correct``/``attempted``/``failed``/``metrics``, the run is correct, and
  every metric BENCHMARK.json names is emitted with its unit (and no other);
* in the traced run, every span lies inside its parent and no span's
  children cover more time than the span itself;
* the exact-count fence (solver objective, ratios, error metrics, WAL and
  coalescing counts) repeats bit-for-bit across two runs of one seed;
* with ``--scale full``, the layer split the workloads exist to show:
  SMAWK is the DP method on querylog-dp and the solve is the largest child
  of training on both training workloads; synthetic-bcd runs no DP; the
  service workload runs no training at all.

Finally it runs the benchmark in a directory holding only BENCHMARK.json
and the benchmark's own files, where it must fail without a result line.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def _run(cwd: Path, workload: str, seed: int, seconds: float, trace: int, scale: str):
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    return subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace), "--scale", scale],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _parse(process, label: str):
    if process.returncode != 0:
        raise AssertionError(f"{label}: exit {process.returncode}\n{process.stderr[-3000:]}")
    lines = process.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    diagnostics = json.loads(lines[-2].split(" ", 2)[2])
    return result, diagnostics


def _check_result(result: dict, expected: dict, label: str, positive: bool) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"{label}: incorrect run {result['correct']} {result['failed']}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        raise AssertionError(f"{label}: metrics {sorted(set(metrics) ^ set(expected))}")
    for name, entry in metrics.items():
        if entry["unit"] != expected[name]["unit"]:
            raise AssertionError(f"{label}: {name} unit {entry['unit']}")
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise AssertionError(f"{label}: {name} = {value!r}")
        if positive and value <= 0:
            raise AssertionError(f"{label}: end-to-end {name} = {value}")


def _check_layers(workload: str, values: dict) -> None:
    """The per-layer split each workload exists to show (full scale)."""
    if workload == "zipf-service":
        training = ("optimize.solve_s", "ml.fit_s", "ml.featurize_s", "core.train_rest_s")
        if any(values[name] != 0 for name in training):
            raise AssertionError("zipf-service recorded a training span")
        return
    children = {
        "optimize.solve_s": values["optimize.solve_s"],
        "ml.featurize_s": values["ml.featurize_s"],
        "ml.fit_s": values["ml.fit_s"],
        "core.train_rest_s": values["core.train_rest_s"],
    }
    if max(children, key=children.get) != "optimize.solve_s":
        raise AssertionError(f"{workload}: solve is not the largest child of train: {children}")
    if workload == "querylog-dp" and values["optimize.dp.method.smawk"] != 1:
        raise AssertionError("querylog-dp did not run the SMAWK DP")
    if workload == "synthetic-bcd" and (
        values["optimize.dp.layers"] or values["optimize.dp.cost_evals"]
        or not values["optimize.bcd.marginal_cost_calls"]
    ):
        raise AssertionError("synthetic-bcd ran a DP or no BCD")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="perfbench self-test")
    parser.add_argument("--scale", choices=("tiny", "full"), default="tiny")
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in config["end_to_end"]}
    per_layer = {m["name"]: m for m in config["per_layer"]}
    for workload in (w["name"] for w in config["workloads"]):
        fences = []
        for seed in (7, 7):
            result, diagnostics = _parse(
                _run(ROOT, workload, seed, args.seconds, 0, args.scale), f"{workload} trace 0"
            )
            _check_result(result, end_to_end, f"{workload} trace 0", positive=True)
            fences.append(diagnostics["fence"])
        if fences[0] != fences[1]:
            raise AssertionError(f"{workload}: fence moved between runs of one seed: {fences}")
        result, diagnostics = _parse(
            _run(ROOT, workload, 7, args.seconds, 1, args.scale), f"{workload} trace 1"
        )
        _check_result(result, per_layer, f"{workload} trace 1", positive=False)
        if diagnostics["trace_violations"]:
            raise AssertionError(f"{workload}: spans {diagnostics['trace_violations']}")
        if args.scale == "full":
            _check_layers(workload, {k: v["value"] for k, v in result["metrics"].items()})
        print(f"ok  {workload}", flush=True)

    bare = ROOT / ".bench_build" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in config["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        process = _run(bare, config["workloads"][0]["name"], 1, 1, 0, "tiny")
        if process.returncode == 0 or '"metrics"' in process.stdout:
            raise AssertionError("benchmark did not fail in a directory without the program")
        print("ok  fails without the program sources", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
