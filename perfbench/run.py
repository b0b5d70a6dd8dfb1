#!/usr/bin/env python3
"""repro's benchmark ledger: end-to-end and per-layer numbers per workload.

Run from the repository root::

    python3 perfbench/run.py --workload engine-cycle --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload service-mixed --trace 1   # layer split
    python3 perfbench/run.py --self-test                          # check demo
    python3 perfbench/run.py --compare before.jsonl after.jsonl

The last line of a measuring run is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  ``--out FILE``
also appends the run, with its machine fingerprint, to a JSON-lines ledger
that ``--compare`` reads.  See README.md for the workloads and metrics.
"""

import os

#: One BLAS/OpenMP thread per process, part of every workload's definition:
#: ``process:2`` with default BLAS threads would run four threads on two
#: CPUs.  Set before numpy loads; pool workers and probes inherit it.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

import argparse
import ctypes
import importlib.util
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: The baseline seed (README.md names the held-out one).
DEFAULT_SEED = 1

SETUP_REPEATS = 7

#: The end-to-end metrics every workload reports, with their units.
END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "replica_rounds_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run to a JSON-lines ledger")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = parser.parse_args(argv)
    if not (args.self_test or args.compare or args.workload):
        parser.error("--workload is required")
    return args


# ---------------------------------------------------------------------- #
# Machine fingerprint
# ---------------------------------------------------------------------- #


def _openblas_threads():
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    names = (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    )
    for path in sorted(p for p in paths if ".so" in p):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            if hasattr(library, name):
                function = getattr(library, name)
                function.restype = ctypes.c_int
                return int(function())
    return None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        path = ROOT / ".git" / ref
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "numba": importlib.util.find_spec("numba") is not None,
        "commit": _git_commit(),
        "thread_pins": THREAD_PINS,
    }


# ---------------------------------------------------------------------- #
# Set-up time
# ---------------------------------------------------------------------- #


def measure_setup(workload: str, repeats: int = SETUP_REPEATS) -> float:
    """Median seconds from launching a fresh interpreter to a ready backend."""
    times = []
    for index in range(repeats):
        scratch = OUT / f"setup-{os.getpid()}-{index}"
        start = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), str(ROOT), workload, str(scratch)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdin.close()
        probe.wait(timeout=120)
        probe.stdout.close()
        shutil.rmtree(scratch, ignore_errors=True)
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed")
        times.append(elapsed)
    return statistics.median(times)


# ---------------------------------------------------------------------- #
# Runs
# ---------------------------------------------------------------------- #


def _check_sweep(check, sweep) -> None:
    if sweep.error:
        check.add_failed(sweep.cells, sweep.error)
        return
    for cell, outcome in zip(sweep.cells, sweep.outcomes):
        check.add(cell, outcome)


def run_untraced(args, check):
    import workloads

    source = workloads.SweepSource(args.workload, args.seed)
    setup_s = measure_setup(args.workload)
    service = None
    try:
        if args.workload == "service-mixed":
            service = workloads.start_service(str(OUT / f"cache-{os.getpid()}"))
            backend = workloads.make_backend(args.workload, service.url)
        else:
            backend = workloads.make_backend(args.workload)
        # Warm up (lazy imports, first-call caches; the service's read and
        # write paths) on a sweep outside the measured stream.
        warm = workloads.SweepSource(args.workload, -args.seed - 1).next()
        backend.run_cell_outcomes(warm)
        if service is not None:
            backend.run_cell_outcomes(warm)
        measurement = workloads.measure(
            args.workload, source, args.seconds, backend, partial(_check_sweep, check)
        )
    finally:
        if service is not None:
            service.stop(drain=False)
    extra = {"sweeps": len(measurement.sweeps), "window_s": measurement.wall}
    if args.workload == "service-mixed":
        extra.update(measurement.service_latencies())
    return measurement.end_to_end(setup_s), extra


def run_traced(args, check):
    import tracing
    import workloads
    from repro.telemetry.spans import write_chrome_trace

    source = workloads.SweepSource(args.workload, args.seed)
    workers = {"engine-cycle": 1}.get(args.workload, 2)
    traced = tracing.TracedRun(args.workload, workers)
    service = None
    heartbeats = 0.0
    start = time.perf_counter()
    index = 0
    try:
        if args.workload == "service-mixed":
            cache_dir = str(OUT / f"cache-{os.getpid()}")
            service = workloads.start_service(cache_dir)
            service.cache.close()
            service.cache = tracing.TimedCache(cache_dir, traced.tracer)
            plain = workloads.make_backend(args.workload, service.url)
            backend = workloads.make_backend(args.workload, service.url)
            client = tracing.TimedClient(service.url, traced.tracer)
            backend.client = client
            warm = workloads.SweepSource(args.workload, -args.seed - 1).next()
            plain.run_cell_outcomes(warm)
            counter = lambda: service.metrics_payload()["service"]["counters"].get(
                "service.heartbeats", 0
            )
            beats0, calls = counter(), 0
            while time.perf_counter() - start < args.seconds:
                cells = source.next()
                for kind in ("miss", "hit"):
                    sweep = workloads.timed_sweep(plain.run_cell_outcomes, cells, kind)
                    _check_sweep(check, sweep)
                    if kind == "miss":
                        traced.untraced_s.append(sweep.seconds)
                cells = source.next()
                for kind in ("miss", "hit"):
                    _check_sweep(check, traced.traced_service(backend, client, cells, kind, index))
                index += 1
                calls += 4
            heartbeats = (counter() - beats0) / calls
        else:
            backend = workloads.make_backend(args.workload)
            while time.perf_counter() - start < args.seconds:
                cells = source.next()
                sweep = workloads.timed_sweep(backend.run_cell_outcomes, cells)
                _check_sweep(check, sweep)
                traced.untraced_s.append(sweep.seconds)
                outcomes = traced.traced_sweep(cells, index)
                for cell, outcome in zip(cells, outcomes):
                    check.add(cell, outcome)
                index += 1
    finally:
        if service is not None:
            service.stop(drain=False)
    metrics = traced.metrics(heartbeats)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    write_chrome_trace(traced.tracer.recorder.spans(), str(trace_path))
    print(traced.table())
    print(f"tracing overhead: {metrics['trace.overhead_s']:+.5f} s per sweep "
          f"(traced minus untraced median); Perfetto trace: {trace_path}")
    return metrics, {"traced_sweeps": index, "trace_file": str(trace_path)}


def measure_run(args) -> int:
    import checks
    import tracing

    check = checks.OutputCheck()
    if args.trace:
        metrics, extra = run_traced(args, check)
        units = tracing.PER_LAYER_UNITS
    else:
        metrics, extra = run_untraced(args, check)
        units = END_TO_END_UNITS
    check.run()
    extra["failed_frac"] = check.failed / max(1, check.attempted)
    extra["unconverged"] = check.unconverged
    for problem in check.problems[:10]:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    machine = fingerprint()
    print("fingerprint " + json.dumps(machine, sort_keys=True))
    print("details " + json.dumps(extra, sort_keys=True))
    if args.out:
        entry = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "fingerprint": machine,
            "details": extra,
            "result": result,
        }
        with open(args.out, "a") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if check.correct else 1


def _stop_resource_tracker() -> None:
    """Stop the helper process multiprocessing starts for spawn pools."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare, ROOT / "BENCHMARK.json")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    try:
        if args.self_test:
            import checks

            return checks.self_test()
        return measure_run(args)
    finally:
        _stop_resource_tracker()
        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(OUT / f"cache-{os.getpid()}", ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
