"""The traced run: replay each workload's sweeps with one span per layer call.

Spans are recorded from the benchmark's own code around the public call
each layer exposes, with :class:`repro.telemetry.spans.SpanRecorder`, and
written with :func:`repro.telemetry.spans.write_chrome_trace` so the split
opens in Perfetto.  The recorder only knows the kinds sweep, cell, shard and
attempt, so a sweep is a ``sweep`` span, a worker's unit of work a ``shard``
span, a server-side cell a ``cell`` span, and every layer call an
``attempt`` span whose name is the layer.

Per sweep:

* ``engine-cycle`` replays each cell in process:
  ``graphs.build`` → ``graphs.diameter`` → ``core.compile`` →
  ``batch.rounds`` → ``exec.outcome`` → ``exec.merge`` → ``exec.to_records``;
* ``setup-sharded`` replays the cells through its own spawn pool of the
  same size: ``exec.split`` and ``exec.pickle`` of the shards in the parent,
  the chain above (plus unpickle and pickle) inside each worker, then
  ``exec.pickle`` (unpickle), ``exec.merge`` and ``exec.to_records`` in the
  parent; pool start and stop are ``exec.pool``;
* ``service-mixed`` sends each sweep over HTTP with client spans around
  ``submit``/``outcome`` (``service.submit``/``service.fetch``; the event
  long-polls, ``service.poll``, are waits), cache spans around ``ResultCache.get``
  and ``put``, and the server's own span tree (``ServiceClient.spans``):
  ``service.queue`` (cell), ``service.shard`` and ``service.execute``
  (attempt).  The executed cells are also replayed in process to split
  ``service.execute`` into the graph, core and batch layers.

Each instant of a sweep is attributed to the innermost spans active at it,
shared equally among concurrent ones (a wait only gets instants in which
nothing else works); time no layer span covers is the unattributed
remainder.  Layer shares plus the remainder therefore add up
to the traced sweep time exactly.
"""

from __future__ import annotations

import multiprocessing
import pickle
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

from repro.batch.engine import BatchedEngine
from repro.exec import CellOutcome, ExecutionCell, merge_cell_outcomes, split_cell
from repro.experiments.runner import instantiate_protocol
from repro.service.cache import ResultCache
from repro.service.client import ServiceClient
from repro.service.wire import encode_outcome
from repro.telemetry.spans import Span, SpanRecorder

import workloads

#: Layers whose busy time is reported as a per-layer metric of the same name.
BUSY_METRICS = {
    "graphs.build_s": ("graphs.build",),
    "graphs.diameter_s": ("graphs.diameter",),
    "core.compile_s": ("core.compile",),
    "batch.rounds_s": ("batch.rounds",),
    "exec.pickle_s": ("exec.pickle",),
    "exec.merge_s": ("exec.merge",),
    "service.request_s": ("service.submit", "service.fetch"),
    "service.cache_read_s": ("service.cache_read",),
    "service.cache_write_s": ("service.cache_write",),
}

#: Per-layer metrics and their units (the ``per_layer`` list of
#: BENCHMARK.json).  Counts and times are per sweep call.
PER_LAYER_UNITS = {
    "graphs.build_s": "s",
    "graphs.builds": "count",
    "graphs.distinct_graphs": "count",
    "graphs.diameter_s": "s",
    "graphs.diameter_calls": "count",
    "core.compile_s": "s",
    "batch.rounds_s": "s",
    "batch.replica_rounds": "count",
    "batch.round_steps": "count",
    "batch.active_fraction": "ratio",
    "exec.shards": "count",
    "exec.pickle_bytes": "B",
    "exec.pickle_s": "s",
    "exec.merge_s": "s",
    "exec.pool_overhead_s": "s",
    "service.requests": "count",
    "service.request_s": "s",
    "service.wire_bytes": "B",
    "service.cache_hits": "count",
    "service.cache_misses": "count",
    "service.cache_read_s": "s",
    "service.cache_write_s": "s",
    "service.queue_wait_s": "s",
    "service.retries": "count",
    "telemetry.heartbeats": "count",
    "telemetry.spans": "count",
    "trace.sweep_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}

UNATTRIBUTED = "unattributed"


class Tracer:
    """A span recorder plus the per-layer counters the spans cannot hold."""

    def __init__(self) -> None:
        self.recorder = SpanRecorder()
        self.counts: Dict[str, float] = defaultdict(float)
        self.current: Optional[str] = None  # the open sweep span
        self._lock = threading.Lock()  # server threads count too

    def count(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] += value

    @contextmanager
    def span(
        self, kind: str, layer: str, parent: Optional[str], **attrs
    ) -> Iterator[str]:
        span_id = self.recorder.begin(
            kind, layer, parent_id=parent, attrs={"layer": layer, **attrs}
        )
        try:
            yield span_id
        finally:
            self.recorder.finish(span_id)

    def adopt(self, records: Sequence[dict], parent: str, layers: Dict[str, str]):
        """Copy foreign span records (a worker's, the server's) under ``parent``.

        ``layers`` maps each record's kind to the layer it stands for; ids
        are re-minted, parent links follow them.
        """
        ids: Dict[str, str] = {}
        for record in records:
            span = Span.from_record(record)
            if span.end is None:
                continue
            attrs = dict(span.attrs)
            attrs.setdefault("layer", layers.get(span.kind, span.kind))
            ids[span.span_id] = self.recorder.record(
                span.kind,
                attrs["layer"],
                start=span.start,
                end=span.end,
                parent_id=ids.get(span.parent_id, parent),
                attrs=attrs,
            )


# ---------------------------------------------------------------------- #
# Replays
# ---------------------------------------------------------------------- #


def replay_cell(tracer: Tracer, cell: ExecutionCell, parent: str) -> CellOutcome:
    """Execute one cell layer by layer, as the batched executor does."""
    attempt = lambda layer: tracer.span("attempt", layer, parent)
    with attempt("graphs.build"):
        topology = cell.build_topology()
    with attempt("graphs.diameter"):
        diameter = topology.diameter()
    with attempt("core.compile"):
        protocol = instantiate_protocol(
            cell.protocol.name, topology, dict(cell.protocol.params)
        )
        engine = BatchedEngine(topology, protocol, kernel=cell.kernel)
    with attempt("batch.rounds"):
        batch = engine.run(
            list(cell.seeds), max_rounds=cell.max_rounds, record_leader_counts=False
        )
    with attempt("exec.outcome"):
        outcome = CellOutcome(
            cell=cell,
            n=topology.n,
            diameter=diameter,
            topology_name=topology.name,
            batch=batch,
            batched=True,
        )
    steps = int(batch.rounds_executed.max())
    tracer.count("graphs.builds")
    tracer.count("graphs.diameter_calls")
    tracer.count("batch.replica_rounds", int(batch.rounds_executed.sum()))
    tracer.count("batch.round_steps", steps)
    tracer.count("batch.replica_slots", steps * cell.num_replicas)
    return outcome


def replay_unit(payload: bytes) -> dict:
    """Pool worker: unpickle a shard, replay it, pickle the outcome back."""
    tracer = Tracer()
    with tracer.span("shard", "exec.worker", None) as root:
        with tracer.span("attempt", "exec.pickle", root):
            cell = pickle.loads(payload)
        outcome = replay_cell(tracer, cell, root)
        with tracer.span("attempt", "exec.pickle", root):
            data = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
    return {
        "spans": [span.to_record() for span in tracer.recorder.spans()],
        "outcome": data,
        "counts": dict(tracer.counts),
    }


def traced_local(tracer: Tracer, cells: List[ExecutionCell], attrs) -> tuple:
    """engine-cycle: the in-process replay of one sweep."""
    outcomes = []
    with tracer.span("sweep", "sweep", None, **attrs) as root:
        for index, cell in enumerate(cells):
            with tracer.span("shard", "exec.worker", root, cell=index) as unit:
                outcome = replay_cell(tracer, cell, unit)
            with tracer.span("attempt", "exec.merge", root, cell=index):
                outcome = merge_cell_outcomes(cell, [outcome])
            with tracer.span("attempt", "exec.to_records", root, cell=index):
                outcome.to_records()
            outcomes.append(outcome)
    tracer.count("exec.shards", len(cells))
    return root, tuple(outcomes)


def traced_pool(tracer: Tracer, cells: List[ExecutionCell], attrs) -> tuple:
    """setup-sharded: the replay through a spawn pool shaped like the backend's."""
    outcomes = []
    with tracer.span("sweep", "sweep", None, **attrs) as root:
        span = lambda layer, **a: tracer.span("attempt", layer, root, **a)
        with span("exec.split"):
            units = [
                (index, split_cell(cell, workloads.SHARDED_SHARD_SIZE))
                for index, cell in enumerate(cells)
            ]
        with span("exec.pickle"):
            payloads = [
                pickle.dumps(shard, protocol=pickle.HIGHEST_PROTOCOL)
                for _, shards in units
                for shard in shards
            ]
        tracer.count("exec.pickle_bytes", sum(len(p) for p in payloads))
        tracer.count("exec.shards", len(payloads))
        with span("exec.pool"):
            pool = multiprocessing.get_context("spawn").Pool(
                min(workloads.SHARDED_WORKERS, len(payloads))
            )
        try:
            results = pool.imap(replay_unit, payloads, chunksize=1)
            for index, shards in units:
                shard_outcomes = []
                for shard_index in range(len(shards)):
                    result = next(results)
                    tracer.adopt(result["spans"], root, {})
                    for key, value in result["counts"].items():
                        tracer.count(key, value)
                    tracer.count("exec.pickle_bytes", len(result["outcome"]))
                    with span("exec.pickle", cell=index, shard=shard_index):
                        shard_outcomes.append(pickle.loads(result["outcome"]))
                with span("exec.merge", cell=index):
                    outcome = merge_cell_outcomes(cells[index], shard_outcomes)
                with span("exec.to_records", cell=index):
                    outcome.to_records()
                outcomes.append(outcome)
        finally:
            with span("exec.pool"):
                pool.terminate()
                pool.join()
    return root, tuple(outcomes)


class TimedCache(ResultCache):
    """The service's result cache with a span around every get and put.

    Spans and counts are taken only while a traced sweep is open.
    """

    def __init__(self, directory: str, tracer: Tracer) -> None:
        super().__init__(directory)
        self.tracer = tracer

    def _timed(self, layer: str, call):
        if self.tracer.current is None:
            return call()
        with self.tracer.span("attempt", layer, self.tracer.current):
            return call()

    def get(self, signature):
        outcome = self._timed("service.cache_read", lambda: super(TimedCache, self).get(signature))
        if self.tracer.current is not None:
            key = "service.cache_misses" if outcome is None else "service.cache_hits"
            self.tracer.count(key)
        return outcome

    def put(self, signature, cell, outcome):
        return self._timed(
            "service.cache_write",
            lambda: super(TimedCache, self).put(signature, cell, outcome),
        )


class TimedClient(ServiceClient):
    """A service client with a span around each HTTP call it makes."""

    def __init__(self, url: str, tracer: Tracer) -> None:
        super().__init__(url)
        self.tracer = tracer
        self.sweep_ids: List[str] = []

    @contextmanager
    def _call(self, layer: str, **attrs):
        self.tracer.count("service.requests")
        with self.tracer.span("attempt", layer, self.tracer.current, **attrs):
            yield

    def submit(self, cells, **kwargs):
        with self._call("service.submit"):
            receipt = super().submit(cells, **kwargs)
        self.sweep_ids.append(str(receipt["id"]))
        return receipt

    def events(self, sweep_id, cursor=0, timeout=10.0):
        with self._call("service.poll", wait=True):
            return super().events(sweep_id, cursor=cursor, timeout=timeout)

    def outcome(self, sweep_id, cell_index):
        with self._call("service.fetch", cell=cell_index):
            outcome = super().outcome(sweep_id, cell_index)
        self.tracer.count("service.wire_bytes", len(encode_outcome(outcome)))
        return outcome


#: Server span kinds and the layer each stands for.
SERVER_LAYERS = {"cell": "service.queue", "shard": "service.shard", "attempt": "service.execute"}


def adopt_server_spans(tracer: Tracer, client: ServiceClient, sweep_id: str, root: str):
    """Import the server's span tree of one sweep and count its waits."""
    records = [r for r in client.spans(sweep_id)["spans"] if r["kind"] != "sweep"]
    tracer.adopt(records, root, SERVER_LAYERS)
    tracer.count("telemetry.spans", len(records) + 1)
    by_id = {r["span_id"]: r for r in records}
    for record in records:
        if record["kind"] == "shard" and record["parent_id"] in by_id:
            wait = record["start"] - by_id[record["parent_id"]]["start"]
            tracer.count("service.queue_wait_s", wait)
            tracer.count("exec.shards")
        if record["kind"] == "attempt":
            tracer.count("service.retries", "retry_of" in record["attrs"])


# ---------------------------------------------------------------------- #
# Accounting
# ---------------------------------------------------------------------- #


def _union(intervals: List[tuple]) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def account(spans: Sequence[Span], root_id: str):
    """Busy self time and attributed wall time per layer under one root.

    Returns ``(busy, wall, duration, units)``: ``busy[layer]`` sums each
    span's duration minus what its children cover; ``wall[layer]`` shares
    every instant of the root equally among the innermost spans active at
    it (``wall[UNATTRIBUTED]`` holds instants no layer span covers), so
    ``sum(wall.values()) == duration``; ``units`` sums the durations of the
    ``shard`` spans (units of work a worker ran).  Spans marked ``wait``
    (long-polls) get an instant only when no other span is working in it.
    """
    children: Dict[Optional[str], List[Span]] = defaultdict(list)
    for span in spans:
        children[span.parent_id].append(span)
    root = next(span for span in spans if span.span_id == root_id)
    lo, hi = root.start, root.end
    nodes, stack = [], [root]
    while stack:
        span = stack.pop()
        nodes.append(span)
        stack.extend(children[span.span_id])
    clip = lambda s: (max(lo, min(hi, s.start)), max(lo, min(hi, s.end)))
    layer = lambda s: UNATTRIBUTED if s is root else s.attrs.get("layer", s.name)
    busy: Dict[str, float] = defaultdict(float)
    for span in nodes:
        own = clip(span)
        covered = _union([clip(c) for c in children[span.span_id]])
        busy[layer(span)] += own[1] - own[0] - covered
    bounds = sorted({t for span in nodes for t in clip(span)})
    wall: Dict[str, float] = defaultdict(float)
    for t0, t1 in zip(bounds, bounds[1:]):
        mid = (t0 + t1) / 2
        active = {s.span_id for s in nodes if s.start <= mid < s.end}
        leaves = [
            s
            for s in nodes
            if s.span_id in active
            and not any(c.span_id in active for c in children[s.span_id])
        ]
        leaves = [s for s in leaves if not s.attrs.get("wait")] or leaves
        for span in leaves:
            wall[layer(span)] += (t1 - t0) / len(leaves)
    units = sum(s.duration for s in nodes if s.kind == "shard")
    return busy, wall, hi - lo, units


# ---------------------------------------------------------------------- #
# The traced run of one workload
# ---------------------------------------------------------------------- #


class TracedRun:
    """Alternates untraced and traced sweeps of the same workload.

    ``workers`` is how many units of work run at once, the divisor of the
    pool overhead: the sweep's wall time minus its summed unit busy time
    per worker.
    """

    def __init__(self, workload: str, workers: int) -> None:
        self.workload = workload
        self.workers = workers
        self.tracer = Tracer()
        self.roots: List[tuple] = []  # (root span id, group)
        self.replays: List[str] = []
        self.traced_s: List[float] = []
        self.untraced_s: List[float] = []

    def _distinct(self, cells) -> None:
        self.tracer.count("graphs.distinct", len({cell.graph for cell in cells}))

    def traced_sweep(self, cells, index: int) -> tuple:
        attrs = {"sweep": index, "cell": index}
        started = time.perf_counter()
        if self.workload == "engine-cycle":
            root, outcomes = traced_local(self.tracer, cells, attrs)
        else:
            root, outcomes = traced_pool(self.tracer, cells, attrs)
        self.traced_s.append(time.perf_counter() - started)
        self.roots.append((root, "sweep"))
        self._distinct(cells)
        return outcomes

    def traced_service(self, backend, client: "TimedClient", cells, kind: str, index: int):
        """One HTTP sweep with client, cache and server spans; returns the sweep."""
        tracer = self.tracer
        with tracer.span("sweep", "sweep", None, sweep=index, cell=index, call=kind) as root:
            tracer.current = root
            try:
                sweep = workloads.timed_sweep(backend.run_cell_outcomes, cells, kind)
            finally:
                tracer.current = None
        self.roots.append((root, kind))
        if kind == "miss":
            self.traced_s.append(sweep.seconds)
        if client.sweep_ids:
            adopt_server_spans(tracer, client, client.sweep_ids.pop(), root)
        if kind == "miss" and not sweep.error:
            # Split the server's execute spans into layers by replaying the
            # same cells in process, outside the timed sweep.
            self._distinct(cells)
            with tracer.span("sweep", "replay", None, sweep=index, cell=index) as replay:
                for cell in cells:
                    outcome = replay_cell(tracer, cell, replay)
                    with tracer.span("attempt", "exec.merge", replay):
                        merge_cell_outcomes(cell, [outcome])
            self.replays.append(replay)
        return sweep

    def metrics(self, heartbeats_per_call: float = 0.0) -> Dict[str, float]:
        """Per-layer metrics, per traced sweep call."""
        spans = self.tracer.recorder.spans()
        self.groups: Dict[str, dict] = {}
        busy_total: Dict[str, float] = defaultdict(float)
        duration = units = 0.0
        for root, group in self.roots:
            busy, wall, length, unit_s = account(spans, root)
            entry = self.groups.setdefault(
                group, {"calls": 0, "duration": 0.0, "busy": defaultdict(float), "wall": defaultdict(float)}
            )
            entry["calls"] += 1
            entry["duration"] += length
            for key, value in busy.items():
                entry["busy"][key] += value
                busy_total[key] += value
            for key, value in wall.items():
                entry["wall"][key] += value
            duration += length
            units += unit_s
        for replay in self.replays:
            for key, value in account(spans, replay)[0].items():
                if key != UNATTRIBUTED:
                    busy_total[key] += value
        calls = max(1, len(self.roots))
        counts = self.tracer.counts
        out = {name: 0.0 for name in PER_LAYER_UNITS}
        for name in PER_LAYER_UNITS:
            if name in counts:
                out[name] = counts[name] / calls
        for name, layers in BUSY_METRICS.items():
            out[name] = sum(busy_total.get(layer, 0.0) for layer in layers) / calls
        out["graphs.distinct_graphs"] = counts.get("graphs.distinct", 0.0) / calls
        slots = counts.get("batch.replica_slots", 0.0)
        out["batch.active_fraction"] = counts["batch.replica_rounds"] / slots if slots else 0.0
        out["exec.pool_overhead_s"] = (duration - units / self.workers) / calls
        out["telemetry.heartbeats"] = heartbeats_per_call
        out["trace.sweep_s"] = duration / calls
        unattributed = sum(g["wall"].get(UNATTRIBUTED, 0.0) for g in self.groups.values())
        out["trace.unattributed_s"] = unattributed / calls
        out["trace.overhead_s"] = statistics.median(self.traced_s) - statistics.median(
            self.untraced_s
        )
        return out

    def table(self) -> str:
        """The per-layer split of each group of traced sweep calls."""
        lines = []
        for group, entry in self.groups.items():
            calls, duration = entry["calls"], entry["duration"]
            busy, wall = entry["busy"], entry["wall"]
            layers = sorted(
                (k for k in set(busy) | set(wall) if k != UNATTRIBUTED),
                key=lambda k: -wall.get(k, 0.0),
            )
            lines.append(
                f"layers of {self.workload} [{group}], mean of {calls} traced calls"
            )
            lines.append(f"  {'layer':<22}{'busy_s':>11}{'wall_s':>11}{'wall%':>8}")
            for key in layers + [UNATTRIBUTED]:
                lines.append(
                    f"  {key:<22}{busy.get(key, 0.0) / calls:>11.5f}"
                    f"{wall.get(key, 0.0) / calls:>11.5f}"
                    f"{100 * wall.get(key, 0.0) / max(duration, 1e-12):>7.1f}%"
                )
            lines.append(
                f"  layers + unattributed = {sum(wall.values()) / calls:.5f} s"
                f" = traced sweep {duration / calls:.5f} s"
            )
        return "\n".join(lines)
