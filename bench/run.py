"""Benchmark entry point for momentalign.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout.  The workload runs in its own
process (bench/worker.py) as a closed loop: one operation after another
from a single thread, BLAS held to one thread, passes repeated until
--seconds have gone by.  Before and after it, set-up alone runs in
further processes so that set-up time is a median over the whole run.  The last line printed is one
JSON object: correct, attempted, failed, and the end-to-end metrics of
BENCHMARK.json (--trace 0) or its per-layer metrics (--trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5  # set-up-only processes before and as many after the measuring one
TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, workdir: Path, deadline: float, *extra) -> tuple[float, dict]:
    """(launch time, result document) of one worker process."""
    result = workdir / "result.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir),
           "--result", str(result), *extra]
    launched = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                          timeout=max(1.0, deadline - launched))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return launched, json.loads(result.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + TIMEOUT_S

    if not (ROOT / "src" / "momentalign" / "__init__.py").is_file():
        print(f"error: no momentalign sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds < 1 or args.seed < 0:
        print("error: --seconds must be >= 1 and --seed >= 0", file=sys.stderr)
        return 2

    out_root = BENCH / "out"
    out_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_root))

    def probe_setups() -> list:
        """Set-up times of SETUP_PROBES set-up-only processes."""
        times = []
        for _ in range(0 if args.trace else SETUP_PROBES):
            launched, probe = run_worker(args, workdir, deadline, "--setup-only")
            times.append(probe["ready"] - launched)
        return times

    try:
        setups = probe_setups()
        extra = []
        if args.trace:
            traces = BENCH / "traces"
            traces.mkdir(exist_ok=True)
            extra = ["--spans", str(traces / f"{args.workload}.spans.csv")]
        launched, res = run_worker(args, workdir, deadline, *extra)
        setups.append(res["ready"] - launched)
        setups += probe_setups()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in res["errors"]:
        print(f"check failed: {err}")
    walls = res["walls"]
    print(f"{args.workload} seed {args.seed}: {len(walls)} untraced passes, "
          f"{len(res['traced_walls'])} traced, {res['attempted']} operations, "
          f"{res['failed']} failed")
    if args.trace:
        values = res["layers"]
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not res["errors"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
