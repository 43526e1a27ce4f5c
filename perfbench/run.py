"""equidist benchmark: one closed-loop workload, checked, timed, reported.

    python3 perfbench/run.py --workload weyl_scan --seed 1 --seconds 28 --trace 0

Workloads: weyl_scan, mc_sweep, koksma_power, cli_batch (see jobs.py and
README.md).  With --trace 0 it prints the end-to-end metrics of
BENCHMARK.json; with --trace 1 the per-layer metrics of a separate traced
run.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Run from the repository root; equidist is
imported from ./src.  Exits non-zero without a result if the sources are
missing or a benchmark process fails.

setup_s is the median, over SETUP_SAMPLES fresh interpreters, of the time
from process start to ready (import equidist, generate the job list, run
and check one warm-up job).  The last of those interpreters goes on to run
the timed loop; BLAS and OpenMP are pinned to one thread in all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
DEADLINE_S = 175.0
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def fail(msg: str) -> int:
    print(f"benchmark: {msg}", file=sys.stderr)
    return 2


def spawn(args, role: str, deadline: float):
    """Start one harness process; returns (ready_s, result or None, exit code)."""
    env = dict(os.environ, **PINNED_ENV)
    cmd = [sys.executable, os.path.join(HERE, "harness.py"), *args, "--role", role]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            if line.startswith("@@READY"):
                ready = time.perf_counter() - t0
            elif line.startswith("@@RESULT "):
                result = json.loads(line[len("@@RESULT "):])
            else:
                sys.stdout.write(line)
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return ready, result, code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "equidist", "__init__.py")):
        return fail(f"no equidist sources under {os.path.join(ROOT, 'src')}")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    hargs = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            ready, _, code = spawn(hargs, "setup", deadline)
            if code != 0 or ready is None:
                return fail(f"set-up process exited with code {code}")
            setups.append(ready)
    ready, result, code = spawn(hargs, "main", deadline)
    if code != 0 or ready is None or result is None:
        return fail(f"benchmark process exited with code {code} and no result")
    setups.append(ready)

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    info = result["info"]
    info["setup_samples_s"] = setups
    out_metrics = {}
    for m in wanted:
        if m["name"] not in metrics:
            return fail(f"metric {m['name']} was not measured")
        out_metrics[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# info " + json.dumps(info, sort_keys=True))
    for name, v in out_metrics.items():
        print(f"{name:48s} {v['value']:.6g} {v['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"{'failed_frac':48s} {failed / attempted if attempted else 1.0:.6g} "
          f"({failed} of {attempted} jobs)")
    if not args.trace:
        print(f"# job_tail_s is the p{info['tail_percentile']} latency "
              f"({info['tail_jobs_beyond']} of {info['jobs']} jobs beyond it)")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
