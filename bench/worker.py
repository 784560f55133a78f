"""One benchmark process: set up one workload, run passes over its
operations until the time is up, check the outputs, and write a JSON
result for run.py.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1
        --workdir DIR --result FILE [--setup-only] [--spans FILE]

``ready`` in the result is the perf_counter reading (CLOCK_MONOTONIC,
shared by all processes) when set-up ended.  With --trace 1 untraced and
traced passes alternate, starting untraced; the end-to-end numbers come
only from untraced passes.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time

from workloads import WORKLOADS


def run_pass(ops, tracer=None):
    results = []
    start = time.perf_counter()
    for _, fn in ops:
        if tracer is not None:
            tracer.operation += 1
            fn = tracer.wrap("op", fn)
        try:
            results.append(fn())
        except Exception as exc:  # an operation's crash counts as a failed operation
            results.append(exc)
    return time.perf_counter() - start, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    workload.setup()
    ready = time.perf_counter()
    result = {"ready": ready}
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    ops = workload.operations()
    walls = {False: [], True: []}
    attempted = failed = 0
    errors, first_snapshot = [], None
    while True:
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        if traced:
            tracer.install()
        try:
            wall, results = run_pass(ops, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(wall)
        n_failed, snapshot = workload.outcome(results)
        attempted += len(results)
        failed += n_failed
        if first_snapshot is None:
            first_snapshot = snapshot
        elif snapshot != first_snapshot:
            errors.append(f"pass {len(walls[False]) + len(walls[True])}: outputs differ from pass 1")
        done = time.perf_counter() - ready >= args.seconds
        if done and (tracer is None or walls[True]):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        errors += workload.check(first_snapshot)
    except Exception as exc:  # a check that cannot run is a failed check
        errors.append(f"check raised {exc!r}")
    result.update(attempted=attempted, failed=failed, errors=errors,
                  walls=walls[False], traced_walls=walls[True], peak_rss_mb=peak_rss_mb)
    if tracer is not None:
        layers = tracer.layer_metrics(len(walls[True]))
        # each traced pass against the untraced pass just before it
        layers["trace.overhead_s"] = statistics.median(
            t - u for t, u in zip(walls[True], walls[False]))
        result["layers"] = layers
        if args.spans:
            tracer.write(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
