"""Workload definitions and the untraced measurement loops.

Every workload is a closed loop: one caller submits a sweep through an
``ExecutionBackend``, waits for its records, then submits the next.  The
inputs (graph seeds and replica seeds) come from the benchmark seed alone,
so one seed always produces the same sweeps.  Sizes are chosen so that a
run of ``--seconds`` holds many sweeps (averages need samples) while each
workload still loads the layer it exists for; README.md gives the numbers.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.exec import BatchedBackend, ExecutionCell, ProcessBackend
from repro.experiments.config import GraphSpec, ProtocolSpecConfig

BFW = ProtocolSpecConfig("bfw")

#: engine-cycle: one BFW cell on a cycle, all replicas in one batched array.
ENGINE_GRAPH = ("cycle", 64)
ENGINE_REPLICAS = 64

#: setup-sharded: three random/structured graphs whose pure-Python diameter
#: dominates each shard; shards of 4 make every shard rebuild its graph.
SHARDED_GRAPHS = (("erdos-renyi", 196), ("geometric", 196), ("grid", 196))
SHARDED_REPLICAS = 8
SHARDED_SHARD_SIZE = 4
SHARDED_WORKERS = 2

#: service-mixed: two small cells per sweep, each sweep sent fresh and then
#: resubmitted verbatim (the second is served from the result cache).
SERVICE_GRAPHS = (("cycle", 48), ("hypercube", 32))
SERVICE_REPLICAS = 16
SERVICE_WORKERS = 2
SERVICE_HEARTBEAT = 32
#: Each run needs this many misses and hits so that p90 has ten samples
#: beyond it.
SERVICE_MIN_PAIRS = 100

WORKLOADS = ("engine-cycle", "setup-sharded", "service-mixed")


class SweepSource:
    """Deterministic stream of sweeps (lists of cells) for one workload."""

    def __init__(self, workload: str, seed: int) -> None:
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")
        self.workload = workload
        self._rng = random.Random(f"{workload}:{seed}")

    def _seeds(self, count: int) -> Tuple[int, ...]:
        return tuple(self._rng.randrange(1, 2**31) for _ in range(count))

    def _cells(self, graphs, replicas: int) -> List[ExecutionCell]:
        graph_seed = self._rng.randrange(2**31)
        return [
            ExecutionCell(
                protocol=BFW,
                graph=GraphSpec(family, n, graph_seed),
                seeds=self._seeds(replicas),
            )
            for family, n in graphs
        ]

    def next(self) -> List[ExecutionCell]:
        if self.workload == "engine-cycle":
            return self._cells([ENGINE_GRAPH], ENGINE_REPLICAS)
        if self.workload == "setup-sharded":
            return self._cells(SHARDED_GRAPHS, SHARDED_REPLICAS)
        return self._cells(SERVICE_GRAPHS, SERVICE_REPLICAS)


def make_backend(workload: str, url: Optional[str] = None):
    """The backend each workload measures (``url`` for the service client)."""
    if workload == "engine-cycle":
        return BatchedBackend()
    if workload == "setup-sharded":
        return ProcessBackend(
            workers=SHARDED_WORKERS, shard_size=SHARDED_SHARD_SIZE
        )
    from repro.service.client import ServiceBackend

    return ServiceBackend(url, heartbeat_interval=SERVICE_HEARTBEAT)


def start_service(cache_dir: str):
    """A loopback sweep service with heartbeats on, started."""
    from repro.service.server import SweepService

    return SweepService(
        workers=SERVICE_WORKERS,
        cache_dir=cache_dir,
        heartbeat_interval=SERVICE_HEARTBEAT,
    ).start()


# ---------------------------------------------------------------------- #
# Process-level probes
# ---------------------------------------------------------------------- #


def cpu_seconds() -> float:
    """CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _rss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as handle:
            return int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


def _child_pids() -> List[int]:
    pids: List[int] = []
    for tid in os.listdir(f"/proc/{os.getpid()}/task"):
        try:
            with open(f"/proc/{os.getpid()}/task/{tid}/children") as handle:
                pids.extend(int(p) for p in handle.read().split())
        except (OSError, ValueError):
            continue
    return pids


class ChildRssSampler:
    """Peak summed RSS of live child processes, sampled every 0.1 s.

    The process's own peak comes exactly from ``ru_maxrss``; children (the
    process pool) are sampled because ``RUSAGE_CHILDREN`` would also count
    the set-up probes.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.peak = 0
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self.peak = max(self.peak, sum(_rss_bytes(p) for p in _child_pids()))

    def __enter__(self) -> "ChildRssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def peak_rss_mb(children_peak: int) -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    return (own + children_peak) / (1 << 20)


def percentile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (``statistics.quantiles`` with n=100)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------- #
# Untraced loops
# ---------------------------------------------------------------------- #


@dataclass
class Sweep:
    """One submitted sweep: its cells, outcomes, latency and kind."""

    cells: List[ExecutionCell]
    outcomes: tuple
    seconds: float
    kind: str = "miss"  # "hit" = a verbatim resubmission on the service
    error: Optional[str] = None


@dataclass
class SweepTiming:
    """What a measurement keeps of a sweep once its records are checked."""

    seconds: float
    kind: str
    rounds: int
    error: Optional[str]


@dataclass
class Measurement:
    sweeps: List[SweepTiming] = field(default_factory=list)
    wall: float = 0.0
    cpu: float = 0.0
    children_rss_peak: int = 0

    def end_to_end(self, setup_s: float) -> Dict[str, float]:
        executed = [s for s in self.sweeps if s.kind == "miss" and not s.error]
        done = [s for s in self.sweeps if not s.error]
        return {
            "setup_s": setup_s,
            # A mean, not a median: the host's speed drifts in phases of
            # 10-30 s, and a run's median jumps to whichever phase held
            # most of its sweeps, while the mean weighs the phases evenly.
            "sweep_s": statistics.fmean(s.seconds for s in executed),
            "replica_rounds_per_s": sum(s.rounds for s in done)
            / sum(s.seconds for s in done),
            "cpu_s": self.cpu / len(self.sweeps),
            "peak_rss_mb": peak_rss_mb(self.children_rss_peak),
        }

    def service_latencies(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for kind in ("miss", "hit"):
            ms = [1000 * s.seconds for s in self.sweeps if s.kind == kind]
            out[f"{kind}_count"] = len(ms)
            out[f"{kind}_p50_ms"] = statistics.median(ms)
            out[f"{kind}_p90_ms"] = percentile(ms, 90)
        return out


def timed_sweep(
    run: Callable[[List[ExecutionCell]], tuple],
    cells: List[ExecutionCell],
    kind: str = "miss",
) -> Sweep:
    """Time one ``run_cell_outcomes`` call until its records are in hand."""
    started = time.perf_counter()
    try:
        outcomes = run(cells)
        for outcome in outcomes:
            outcome.to_records()
    except Exception as error:  # a failed sweep is counted, not fatal
        return Sweep(cells, (), time.perf_counter() - started, kind, repr(error))
    return Sweep(cells, outcomes, time.perf_counter() - started, kind)


def measure(
    workload: str,
    source: SweepSource,
    seconds: float,
    backend,
    on_sweep: Callable[[Sweep], None],
) -> Measurement:
    """Run the closed loop for ``seconds`` (service: at least 100 pairs).

    Each sweep goes to ``on_sweep`` (the output check) as soon as it is
    timed, and only its timing is kept: the outcomes are dropped, so the
    benchmark's own memory barely grows with the sweeps a run holds.
    """
    measurement = Measurement()
    service = workload == "service-mixed"

    def submit(cells: List[ExecutionCell], kind: str) -> None:
        sweep = timed_sweep(backend.run_cell_outcomes, cells, kind)
        on_sweep(sweep)
        rounds = sum(outcome.rounds_advanced for outcome in sweep.outcomes)
        measurement.sweeps.append(SweepTiming(sweep.seconds, kind, rounds, sweep.error))

    with ChildRssSampler() as sampler:
        cpu0 = cpu_seconds()
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            pairs = len(measurement.sweeps) // 2
            if elapsed >= seconds and (not service or pairs >= SERVICE_MIN_PAIRS):
                break
            cells = source.next()
            submit(cells, "miss")
            if service:
                submit(cells, "hit")
        measurement.wall = time.perf_counter() - start
        measurement.cpu = cpu_seconds() - cpu0
    measurement.children_rss_peak = sampler.peak
    return measurement
