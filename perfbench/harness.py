"""Shared plumbing for the perfbench workloads.

Everything here is about *measuring*, not about the program under test:
the checkout layout, the metric catalogue (kept in step with
``BENCHMARK.json``), the per-run statistics that resist the host's speed
regimes, set-up timing in fresh interpreters, peak memory, the host
fingerprint and the one-line JSON result.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

#: The benchmark runs from the root of a checkout; everything it reads and
#: writes lives below this directory.
ROOT = Path.cwd()
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

#: End-to-end metrics (``--trace 0``): name -> unit.  Every workload emits
#: every one of them; BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "ingest_eps": "arrivals/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "avg_abs_error": "arrivals",
    "expected_abs_error": "arrivals",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit.  A layer a workload does
#: not run reports 0 (e.g. no optimize.* on zipf-service, no service.* on the
#: in-process workloads).
PER_LAYER = {
    # repro.ml
    "ml.featurize_s": "s",
    "ml.fit_s": "s",
    "ml.predict_s": "s",
    "ml.featurize_query_s": "s",
    # repro.optimize
    "optimize.solve_s": "s",
    "optimize.dp.method.smawk": "count",
    "optimize.dp.layers": "count",
    "optimize.dp.cost_evals": "count",
    "optimize.bcd.sweeps": "count",
    "optimize.bcd.restarts": "count",
    "optimize.bcd.marginal_cost_calls": "count",
    "optimize.objective": "objective",
    # repro.core
    "core.train_rest_s": "s",
    "core.ingest_s": "s",
    "core.ingest.hit_ratio": "ratio",
    "core.query.precompute_s": "s",
    "core.query.unseen_ratio": "ratio",
    # service path
    "service.client.ingest_call_ms.p50": "ms",
    "service.client.ingest_call_ms.p99": "ms",
    "service.client.estimate_call_ms.p50": "ms",
    "service.client.estimate_call_ms.p99": "ms",
    "service.request_s.ingest": "s",
    "service.request_s.estimate": "s",
    "service.coalesced_batch_keys.mean": "keys",
    "service.backpressure_stall_s": "s",
    "resilience.wal_appended_batches": "count",
    "core.sharding.routing_s": "s",
    "core.workers.scatter_s.shard0": "s",
    "core.workers.scatter_s.shard1": "s",
    "core.workers.queue_wait_s": "s",
    # tail latency: its run-to-run spread on 2-vCPU VMs is too wide for a bound
    "query.p99_ms": "ms",
    # tracing cost (traced minus untraced, per end-to-end timing)
    "trace.overhead.train_s": "s",
    "trace.overhead.ingest_eps": "arrivals/s",
    "trace.overhead.query_p50_ms": "ms",
    # host regime diagnostic: a fixed DP solve before and after the workload
    "host.ref_dp_s.before": "s",
    "host.ref_dp_s.after": "s",
}

#: Duration of one Calibrator sample on the nominal host.  In-process
#: timings and set-up times are scaled by CALIBRATION_NOMINAL_S /
#: (calibration measured around them): on the 2-vCPU VMs this was tuned on,
#: speed switches between regimes about 2x apart that last tens of seconds,
#: so raw times of one run say more about the regime it fell in than about
#: the program.  Raw medians go to the diagnostics.
CALIBRATION_NOMINAL_S = 0.04


def calibration_scale(calibration_s: float) -> float:
    """Factor taking a timing measured beside ``calibration_s`` to the
    nominal host speed."""
    return CALIBRATION_NOMINAL_S / calibration_s


def unscaled(calibration_s: float) -> float:
    """The identity scale, for the raw figures in the diagnostics."""
    return 1.0


class BenchmarkError(RuntimeError):
    """The benchmark cannot run in this directory (e.g. no program sources)."""


def prepare_environment() -> None:
    """Point imports and the native-kernel cache at this checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(
            f"no program sources under {SRC}: run from the root of a checkout"
        )
    BUILD.mkdir(exist_ok=True)
    os.environ["REPRO_KERNELS_CACHE"] = str(BUILD / "repro-kernels")
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def build_kernels() -> str:
    """Resolve (and, on first use, compile) the kernel backend; its name.

    Runs before anything is timed so no set-up sample pays for a compile.
    """
    from repro.kernels import get_backend, resolve_backend

    get_backend("auto")
    return resolve_backend("auto")


def freeze_inputs() -> None:
    """Move the generated inputs out of the collector's reach."""
    gc.collect()
    gc.freeze()


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    if len(values) == 0:
        raise ValueError("no samples")
    return float(np.quantile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


# ----------------------------------------------------------------------
# set-up timing
# ----------------------------------------------------------------------
def spawn_until(args: List[str], marker: str, timeout: float = 60.0):
    """Start ``args`` and wait for a stdout line starting with ``marker``.

    Returns ``(seconds, process)``; the caller owns the process.
    """
    start = time.perf_counter()
    process = subprocess.Popen(
        args,
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    deadline = start + timeout
    try:
        while True:
            line = process.stdout.readline()
            if line.startswith(marker):
                return time.perf_counter() - start, process
            if not line or time.perf_counter() > deadline:
                raise BenchmarkError(f"{args[:3]} never printed {marker!r}")
    except BaseException:
        stop_process(process)
        raise


def stop_process(process: subprocess.Popen, timeout: float = 15.0) -> None:
    """Wait for ``process`` to end, terminating then killing it if needed."""
    for action in (None, process.terminate, process.kill):
        if action is not None and process.poll() is None:
            action()
        try:
            process.wait(timeout=timeout)
            break
        except subprocess.TimeoutExpired:
            continue
    if process.stdout is not None:
        process.stdout.close()


def import_setup_seconds(modules: Iterable[str], repeats: int, calibrator: "Calibrator") -> List[tuple]:
    """Fresh-interpreter set-up: ``import repro``, backend resolution, and
    the modules a workload drives, timed from spawn to ready.  Returns
    ``(seconds, calibration)`` per spawn."""
    code = (
        "import repro, repro.kernels as k; k.get_backend('auto'); "
        + "".join(f"import {name}; " for name in modules)
        + "print('ready', flush=True)"
    )
    samples = []
    for _ in range(repeats):
        before = calibrator.sample()
        seconds, process = spawn_until([sys.executable, "-c", code], "ready")
        stop_process(process)
        samples.append((seconds, (before + calibrator.sample()) / 2))
    return samples


def normalized_median(samples: Sequence[tuple]) -> float:
    """Median of ``(seconds, calibration)`` samples at the nominal speed."""
    return median([seconds * calibration_scale(c) for seconds, c in samples])


# ----------------------------------------------------------------------
# memory and host
# ----------------------------------------------------------------------
def self_peak_rss_mb() -> float:
    """High-water RSS of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree_peak_rss_mb(pid: int) -> float:
    """Sum of ``VmHWM`` over ``pid`` and its direct children."""
    pids = [pid]
    children = Path(f"/proc/{pid}/task/{pid}/children")
    if children.exists():
        pids += [int(token) for token in children.read_text().split()]
    total_kib = 0
    for member in pids:
        try:
            status = Path(f"/proc/{member}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
    return total_kib / 1024.0


def _cpu_model() -> Optional[str]:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha() -> Optional[str]:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the program sources, for checkouts without git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".c") and path.is_file():
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def host_fingerprint(kernel_backend: str) -> Dict[str, object]:
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "kernel_backend": kernel_backend,
        "git_sha": _git_sha(),
        "src_digest": _source_digest(),
    }


class Calibrator:
    """A frozen reference workload owned by the benchmark.

    It mixes the kinds of work the program does — a Python loop over dict
    lookups, scalar NumPy calls issued from Python, and vectorized NumPy
    over a large array — and calls nothing in the program, so only the
    host's speed can move it.  Sampled between the timed phases, it says
    which speed regime each part of a run saw.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = {i: float(i) for i in range(4096)}
        self._keys = rng.integers(0, 8192, 120_000).tolist()
        self._sorted = np.sort(rng.random(8192))
        self._prefix = np.concatenate([[0.0], np.cumsum(self._sorted)])
        self._big = rng.integers(0, 1 << 20, 1_000_000)
        self.samples: List[float] = []

    def sample(self) -> float:
        start = time.perf_counter()
        table, total = self._table, 0.0
        for key in self._keys:
            value = table.get(key)
            if value is not None:
                total += value
        values, prefix = self._sorted, self._prefix
        for i in range(8000):
            total += float(prefix[i + 64] - prefix[i])
            total += int(np.searchsorted(values[i : i + 64], values[i + 32]))
        total += float(np.bincount(np.sort(self._big) & 4095).max())
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds


def reference_dp_seconds(repeats: int = 3) -> float:
    """Median time of a fixed median-centre SMAWK DP solve (host regime probe)."""
    from repro.optimize.dp import dynamic_programming

    frequencies = np.random.default_rng(0).zipf(1.5, 300).astype(float)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        dynamic_programming(frequencies, 16, center="median", method="smawk")
        samples.append(time.perf_counter() - start)
    return median(samples)


# ----------------------------------------------------------------------
# result line
# ----------------------------------------------------------------------
def emit(
    *,
    correct: bool,
    attempted: int,
    failed: int,
    values: Dict[str, float],
    catalogue: Dict[str, str],
    diagnostics: Dict[str, object],
) -> None:
    """Print the diagnostics line, then the result object as the last line."""
    missing = sorted(set(catalogue) - set(values))
    extra = sorted(set(values) - set(catalogue))
    if missing or extra:
        raise BenchmarkError(f"metric set mismatch: missing={missing} extra={extra}")
    print("# diagnostics " + json.dumps(diagnostics, sort_keys=True), flush=True)
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in catalogue.items()
        },
    }
    print(json.dumps(result), flush=True)
