"""Set-up probe: a fresh interpreter up to a backend ready for its first sweep.

Run as ``python3 setup_probe.py <repo-root> <workload> <scratch-dir>``.  It
imports ``repro``, constructs the workload's backend (starting the loopback
sweep service where the workload uses one), prints ``ready`` and then
waits for its standard input to close before shutting down.  The parent
times the interval from launch to the ``ready`` line.
"""

import os
import sys


def main() -> None:
    root, workload, scratch = sys.argv[1:4]
    sys.path[:0] = [os.path.join(root, "src"), os.path.dirname(__file__)]
    import workloads

    service = None
    if workload == "service-mixed":
        service = workloads.start_service(scratch)
        workloads.make_backend(workload, service.url)
    else:
        workloads.make_backend(workload)
    print("ready", flush=True)
    sys.stdin.read()
    if service is not None:
        service.stop(drain=False)


if __name__ == "__main__":
    main()
