"""The ``zipf-service`` workload: the streaming service over its socket.

The service runs as a subprocess (``python -m repro.service``) serving a
key-partitioned count-min over two shm shards with a write-ahead log.  One
load-generator process drives it with two threads on two connections.

The writer repeats three phases:

* absorb the observed prefix, closed loop, then a ``flush`` barrier — the
  count-min baseline's way from S0 to a ready estimator (``train_s``);
* push a block of the Zipf stream closed loop (``ingest_eps``, acked
  arrivals per second);
* push the stream open loop at a fixed rate below capacity while the
  reader's latencies count (``query_p50_ms`` / ``query_p90_ms``).

The reader issues a fixed-size live ``estimate`` on a fixed schedule
(open loop, every ``query_interval_s``); each latency is timed from the
query's due time, and the generator's own lateness goes to the
diagnostics.  A saturating writer makes tail latency depend on how the
two threads happen to interleave, so only queries issued beside the paced
writer count.

Answers are checked twice: live estimates of the probe keys never
decrease, and the drained tables are bit-identical to a serial
``CountMinSketch`` fed every acknowledged arrival.  The sketch's seed is
fixed configuration; ``--seed`` makes the stream.  The error metrics come
from the warm-up pass, which serves a fixed reference stream (seed 0).
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

import harness
from tracing import Tracer


@dataclass
class Scale:
    support: int
    prefix_arrivals: int
    stream_arrivals: int
    block_arrivals: int
    client_batch: int
    total_buckets: int
    probe_keys: int
    query_interval_s: float
    paced_rate: float  # arrivals/s of the open-loop writer phase
    paced_s: float
    setup_repeats: int
    min_iterations: int


SCALES = {
    "full": Scale(100_000, 2_000_000, 4_000_000, 2_000_000, 65_536, 1 << 18, 64, 0.01, 2e6, 1.0, 5, 3),
    "tiny": Scale(5_000, 50_000, 100_000, 50_000, 8_192, 1 << 12, 16, 0.01, 2e5, 0.2, 1, 2),
}

DEPTH = 2
ZIPF_EXPONENT = 1.0
SKETCH_SEED = 0
REFERENCE_SEED = 0
QUERY_CHUNK = 8_192


def _spec(scale: Scale) -> dict:
    return {
        "kind": "sharded",
        "inner": {
            "kind": "count_min",
            "total_buckets": scale.total_buckets,
            "depth": DEPTH,
            "seed": SKETCH_SEED,
        },
        "num_shards": 2,
        "mode": "key-partition",
        "executor": "process",
        "transport": "shm",
    }


def _inputs(scale: Scale, seed: int):
    """Prefix, stream and probe keys drawn from ``seed``."""
    from repro.streams.zipf import ZipfSampler

    rng = np.random.default_rng(seed)
    sampler = ZipfSampler(scale.support, exponent=ZIPF_EXPONENT, rng=rng)
    prefix = sampler.sample(scale.prefix_arrivals).astype(np.int64)
    stream = sampler.sample(scale.stream_arrivals).astype(np.int64)
    probe = np.sort(rng.choice(scale.support, size=scale.probe_keys, replace=False))
    return prefix, stream, probe.astype(np.int64)


class _ServiceProcess:
    """One ``python -m repro.service`` subprocess in a private run directory."""

    def __init__(self, spec: dict, run_dir, index: int) -> None:
        self.socket = os.path.relpath(run_dir / f"s{index}.sock", harness.ROOT)
        wal_dir = os.path.relpath(run_dir / f"wal{index}", harness.ROOT)
        args = [
            sys.executable, "-m", "repro.service",
            "--spec", json.dumps(spec),
            "--unix", self.socket,
            "--wal-dir", wal_dir,
        ]
        self.setup_s, self.process = harness.spawn_until(args, "repro.service listening")

    def client(self):
        from repro.service import StreamingClient

        return StreamingClient.connect(unix_path=self.socket, timeout=120.0)

    def stop(self) -> None:
        try:
            with self.client() as client:
                client.shutdown()
        except OSError:
            pass
        finally:
            harness.stop_process(self.process)


def _delta(before: Dict[str, float], after: Dict[str, float], key: str) -> float:
    return after.get(key, 0.0) - before.get(key, 0.0)


def _mean_delta(before, after, name: str, labels: str = "") -> float:
    count = _delta(before, after, f"{name}_count{labels}")
    return _delta(before, after, f"{name}_sum{labels}") / count if count else 0.0


class _Load:
    """Writer and reader threads sharing one timed window."""

    def __init__(self, service: _ServiceProcess, scale: Scale, inputs, tracer: Optional[Tracer]):
        self.service = service
        self.scale = scale
        self.prefix, self.stream, self.probe = inputs
        self.tracer = tracer
        self.calibrator = harness.Calibrator()
        self.last_calibration = 0.0
        self.calibrating = threading.Event()
        self.reader_idle = threading.Event()
        self.traced_now = False
        self.paced_now = False
        # (value, calibration) pairs per traced flag
        self.train = {False: [], True: []}
        self.ingest = {False: [], True: []}
        # per paced phase: ([latency ms], calibration)
        self.queries = {False: [], True: []}
        self.lateness_ms: List[float] = []
        self.acked_prefixes = 0
        self.acked_ranges: List[tuple] = []  # stream (start, stop) slices acked
        self.attempted = 0
        self.failed = 0
        self.reader_attempted = 0  # the reader thread's own tallies
        self.reader_failed = 0
        self.reader_error: Optional[BaseException] = None
        self._phase_latencies: List[float] = []

    def push(self, client, keys: np.ndarray, rate: Optional[float] = None) -> None:
        """Ingest ``keys`` batch by batch, closed loop or at ``rate``."""
        batch = self.scale.client_batch
        start = time.perf_counter()
        acked = 0
        for offset in range(0, len(keys), batch):
            if rate is not None:
                delay = start + offset / rate - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            acked += client.ingest(keys[offset : offset + batch])
            self.attempted += 1
        if acked != len(keys):
            self.failed += 1

    def _set_traced(self, traced: bool) -> None:
        if traced == self.traced_now:
            return
        if traced:
            from repro.service import StreamingClient

            self.tracer.patch(StreamingClient, "ingest", "service.client.ingest")
            self.tracer.patch(StreamingClient, "estimate", "service.client.estimate")
        else:
            self.tracer.restore()
        self.traced_now = traced

    def _next_block(self, offset: int, length: int):
        stop = offset + length
        if stop > len(self.stream):
            offset, stop = 0, length
        self.acked_ranges.append((offset, stop))
        return self.stream[offset:stop], stop

    def calibrate(self) -> float:
        """Host speed around the phase that just ended: the mean of the
        calibration samples taken before and after it (a host-regime record
        for the diagnostics; it also lets the service settle between
        phases).  The reader pauses meanwhile, so the sample measures the
        host, not the reader."""
        self.calibrating.set()
        try:
            self.reader_idle.wait(timeout=5)
            before, self.last_calibration = self.last_calibration, self.calibrator.sample()
        finally:
            self.calibrating.clear()
        return (before + self.last_calibration) / 2

    def writer(self, deadline: float, trace: bool) -> None:
        scale = self.scale
        paced_length = int(scale.paced_rate * scale.paced_s)
        offset = 0
        iteration = 0
        self.last_calibration = self.calibrator.sample()
        with self.service.client() as client:
            while iteration < scale.min_iterations or time.perf_counter() < deadline:
                traced = trace and iteration % 2 == 0
                self._set_traced(traced)
                start = time.perf_counter()
                self.push(client, self.prefix)
                client.flush()
                seconds = time.perf_counter() - start
                self.train[traced].append((seconds, self.calibrate()))
                self.acked_prefixes += 1

                keys, offset = self._next_block(offset, scale.block_arrivals)
                start = time.perf_counter()
                self.push(client, keys)
                rate = len(keys) / (time.perf_counter() - start)
                client.flush()
                self.ingest[traced].append((rate, self.calibrate()))

                keys, offset = self._next_block(offset, paced_length)
                self._phase_latencies = []
                self.paced_now = True
                self.push(client, keys, rate=scale.paced_rate)
                self.paced_now = False
                client.flush()
                self.queries[traced].append((self._phase_latencies, self.calibrate()))
                iteration += 1
        self._set_traced(False)

    def reader(self, stop: threading.Event) -> None:
        interval = self.scale.query_interval_s
        last = np.zeros(len(self.probe))
        try:
            with self.service.client() as client:
                due = time.perf_counter()
                while not stop.is_set():
                    if self.calibrating.is_set():
                        self.reader_idle.set()
                        time.sleep(0.001)
                        due = time.perf_counter() + interval
                        continue
                    self.reader_idle.clear()
                    now = time.perf_counter()
                    if now < due:
                        time.sleep(due - now)
                    sent = time.perf_counter()
                    paced, latencies = self.paced_now, self._phase_latencies
                    answers = client.estimate(self.probe)
                    if paced:
                        latencies.append((time.perf_counter() - due) * 1e3)
                        self.lateness_ms.append((sent - due) * 1e3)
                    self.reader_attempted += 1
                    if (answers < last).any():
                        self.reader_failed += 1
                    last = answers
                    due += interval
        except BaseException as error:  # surfaced by run_workload
            self.reader_error = error


def _query_all(client, keys: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [client.estimate(keys[i : i + QUERY_CHUNK]) for i in range(0, len(keys), QUERY_CHUNK)]
    )


def _serial_estimates(scale: Scale, counts: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Answers of a serial count-min fed the given per-key arrival counts."""
    from repro.sketches import CountMinSketch

    reference = CountMinSketch.from_total_buckets(scale.total_buckets, depth=DEPTH, seed=SKETCH_SEED)
    present = np.flatnonzero(counts).astype(np.int64)
    reference.update_batch(present, counts[present])
    return reference.estimate_batch(keys)


def _end_to_end(load: _Load, traced: bool, scale) -> Dict[str, float]:
    """Per-run values of the timed phases: medians of the samples, each
    first multiplied by ``scale(its calibration)``."""
    phases = [(ms, c) for ms, c in load.queries[traced] if ms]
    return {
        "train_s": harness.median([s * scale(c) for s, c in load.train[traced]]),
        "ingest_eps": 1.0 / harness.median([scale(c) / r for r, c in load.ingest[traced]]),
        "query_p50_ms": harness.median([harness.median(ms) * scale(c) for ms, c in phases]),
        "query_p90_ms": harness.quantile([m * scale(c) for ms, c in phases for m in ms], 0.90),
    }


def run_workload(seed: int, seconds: float, trace: bool, scale_name: str) -> dict:
    from repro.evaluation.metrics import errors_over_elements

    scale = SCALES[scale_name]
    backend = harness.build_kernels()
    reference_stream = np.concatenate(_inputs(scale, REFERENCE_SEED)[:2])
    prefix, stream, probe = _inputs(scale, seed)
    support = scale.support
    reference_counts = np.bincount(reference_stream, minlength=support)
    seen = np.flatnonzero(
        reference_counts + np.bincount(prefix, minlength=support) + np.bincount(stream, minlength=support)
    ).astype(np.int64)
    harness.freeze_inputs()

    run_dir = harness.BUILD / f"service-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    spec = _spec(scale)
    service: Optional[_ServiceProcess] = None
    tracer = Tracer() if trace else None
    failed = 0
    calibrator = harness.Calibrator()
    try:
        setup = []
        for index in range(scale.setup_repeats):
            if service is not None:
                service.stop()
            before = calibrator.sample()
            service = _ServiceProcess(spec, run_dir, index)
            setup.append((service.setup_s, (before + calibrator.sample()) / 2))
        ref_before = harness.reference_dp_seconds()
        load = _Load(service, scale, (prefix, stream, probe), tracer)

        # Warm-up: the reference stream, once, untimed.  Its drained answers
        # give the error metrics and the first bit-identity check; its WAL
        # and coalescing counters are exact.
        with service.client() as client:
            before = client.metrics()["samples"]
            load.push(client, reference_stream)
            client.flush()
            warm = client.metrics()["samples"]
            seen_reference = np.flatnonzero(reference_counts).astype(np.int64)
            answers = _query_all(client, seen_reference)
        if not np.array_equal(answers, _serial_estimates(scale, reference_counts, seen_reference)):
            failed += 1
        average, expected = errors_over_elements(
            dict(zip(seen_reference.tolist(), reference_counts[seen_reference].tolist())),
            dict(zip(seen_reference.tolist(), answers.tolist())),
        )
        wal_batches = _delta(before, warm, "repro_service_wal_appended_batches_total")
        coalesced_batches = _delta(before, warm, "repro_service_coalesced_batch_keys_count")

        stop = threading.Event()
        reader = threading.Thread(target=load.reader, args=(stop,), name="perfbench-reader")
        with service.client() as client:
            before = client.metrics()["samples"]
        window_start = time.perf_counter()
        reader.start()
        try:
            load.writer(window_start + seconds, trace)
        finally:
            stop.set()
            reader.join(timeout=60)
        window_s = time.perf_counter() - window_start
        if load.reader_error is not None:
            raise load.reader_error

        # Drained tables against a serial count-min fed every acked arrival.
        acked = reference_counts + load.acked_prefixes * np.bincount(prefix, minlength=support)
        for start, stop_at in load.acked_ranges:
            acked += np.bincount(stream[start:stop_at], minlength=support)
        with service.client() as client:
            client.flush()
            after = client.metrics()["samples"]
            drained = _query_all(client, seen)
        if not np.array_equal(drained, _serial_estimates(scale, acked, seen)):
            failed += 1
        peak_rss = harness.process_tree_peak_rss_mb(service.process.pid)
        ref_after = harness.reference_dp_seconds()
    finally:
        if service is not None:
            service.stop()
        shutil.rmtree(run_dir, ignore_errors=True)

    failed += load.failed + load.reader_failed
    # Raw medians: the service's work runs in other processes, mostly IPC,
    # and the load generator's calibration does not track it (measured:
    # normalizing widened the run-to-run spread of every service timing).
    untraced = _end_to_end(load, False, harness.unscaled)
    values = {
        # Set-up runs while nothing else does, so it is normalized like the
        # in-process timings (raw set-up medians moved 40% between regimes).
        "setup_s": harness.normalized_median(setup),
        **untraced,
        "avg_abs_error": average,
        "expected_abs_error": expected,
        "peak_rss_mb": peak_rss,
    }
    catalogue = harness.END_TO_END
    if trace:
        traced = _end_to_end(load, True, harness.unscaled)
        calls = {
            name: [tracer.duration(i) * 1e3 for i in tracer.roots(f"service.client.{name}")]
            for name in ("ingest", "estimate")
        }
        values = {name: 0.0 for name in harness.PER_LAYER}
        values.update(
            {
                "service.client.ingest_call_ms.p50": harness.median(calls["ingest"]),
                "service.client.ingest_call_ms.p99": harness.quantile(calls["ingest"], 0.99),
                "service.client.estimate_call_ms.p50": harness.median(calls["estimate"]),
                "service.client.estimate_call_ms.p99": harness.quantile(calls["estimate"], 0.99),
                "service.request_s.ingest": _mean_delta(before, after, "repro_service_request_seconds", '{op="ingest"}'),
                "service.request_s.estimate": _mean_delta(before, after, "repro_service_request_seconds", '{op="estimate"}'),
                "service.coalesced_batch_keys.mean": _mean_delta(before, after, "repro_service_coalesced_batch_keys"),
                "service.backpressure_stall_s": _delta(before, after, "repro_service_backpressure_stall_seconds_total"),
                "resilience.wal_appended_batches": wal_batches,
                "core.sharding.routing_s": _delta(before, after, "repro_sharded_routing_seconds_sum"),
                "core.workers.scatter_s.shard0": _delta(before, after, 'repro_pool_scatter_seconds_total{shard="0"}'),
                "core.workers.scatter_s.shard1": _delta(before, after, 'repro_pool_scatter_seconds_total{shard="1"}'),
                "core.workers.queue_wait_s": _delta(before, after, "repro_pool_queue_wait_seconds_sum"),
                "query.p99_ms": harness.quantile(
                    [m for ms, _ in load.queries[False] for m in ms], 0.99
                ),
                "host.ref_dp_s.before": ref_before,
                "host.ref_dp_s.after": ref_after,
            }
        )
        for metric in ("train_s", "ingest_eps", "query_p50_ms"):
            values[f"trace.overhead.{metric}"] = traced[metric] - untraced[metric]
        catalogue = harness.PER_LAYER
    diagnostics = {
        "workload": "zipf-service",
        "seed": seed,
        "window_s": window_s,
        "iterations": len(load.train[False]) + len(load.train[True]),
        "paced_queries": sum(len(ms) for ms, _ in load.queries[False]),
        "generator_lateness_ms": {
            "p50": harness.median(load.lateness_ms),
            "p99": harness.quantile(load.lateness_ms, 0.99),
        },
        "host": harness.host_fingerprint(backend),
        "host.ref_dp_s": [ref_before, ref_after],
        "calibration_s": harness.median(load.calibrator.samples),
        "normalized": _end_to_end(load, False, harness.calibration_scale),
        "fence": {
            "avg_abs_error": average,
            "expected_abs_error": expected,
            "wal_appended_batches": wal_batches,
        },
        # How the pump coalesces depends on timing, so this count is not
        # exact from run to run and stays out of the fence.
        "warm_up_coalesced_batches": coalesced_batches,
    }
    if trace:
        diagnostics["trace_violations"] = tracer.nesting_violations()[:5]
    return {
        "correct": failed == 0,
        "attempted": load.attempted + load.reader_attempted,
        "failed": failed,
        "values": values,
        "catalogue": catalogue,
        "diagnostics": diagnostics,
    }
