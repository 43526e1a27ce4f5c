"""One benchmark process: set up, run the closed loop, report as JSON.

Started by run.py as a fresh interpreter.  It imports equidist from the
checkout's src/, builds the seed-derived job list, runs and checks one
warm-up job on a reserved master seed, and prints "@@READY".  A process
started with --role setup exits there (run.py times several of them for
setup_s).  The main process then runs whole cycles of jobs, one at a time,
until --seconds of job time have passed (untraced), or a fixed number of
alternating untraced and traced cycles derived from --seconds (traced), and
prints "@@RESULT <json>".

Job latency is the wall time of the call into equidist; the output checks
run between jobs, off the clock.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import goldens
import jobs
import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WALL_LIMIT_S = 150.0  # stop issuing jobs past this, whatever --seconds says


def import_equidist():
    """Import equidist from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "equidist", "__init__.py")):
        raise SystemExit(f"benchmark: no equidist sources under {SRC}")
    sys.path.insert(0, SRC)
    import equidist
    import equidist.cli  # noqa: F401  (the cli jobs call equidist.cli.main)

    where = os.path.realpath(equidist.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"benchmark: imported equidist from {where}, not from {SRC}")
    return equidist


@contextlib.contextmanager
def scratch_dir():
    path = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(path))


def machine_info() -> dict:
    import numpy as np

    blas = "unknown"
    with contextlib.suppress(Exception):
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    commit = "unknown"
    if os.path.exists(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "equidist")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "platform": platform.platform(),
    }


class Checker:
    """Golden and oracle checks for finished jobs."""

    def __init__(self, workload: str):
        self.golden = goldens.load(workload)
        self.unchecked = 0

    def check(self, job: jobs.Job, raw) -> tuple[list[str], dict]:
        try:
            result, errors, counters = jobs.summarize(job, raw)
        except Exception as exc:  # a malformed result is a failed job
            return [f"result unreadable: {exc!r}"], {}
        golden = self.golden.get(job.key)
        if golden is None:
            self.unchecked += 1
        else:
            errors = errors + goldens.compare(result, golden)
        return errors, counters


def run_one(job, E, out_dir, checker, rec=None):
    """Run and check one job; returns (latency_s, errors, counters)."""
    t0 = time.perf_counter()
    try:
        if rec is None:
            raw = jobs.run(job, E, out_dir)
        else:
            raw = rec.call("job", jobs.run, (job, E, out_dir), {})
    except Exception as exc:
        latency = time.perf_counter() - t0
        return latency, [f"raised {exc!r}"], {}
    latency = time.perf_counter() - t0
    errors, counters = checker.check(job, raw)
    return latency, errors, counters


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(latency, percentile, jobs beyond) at the highest percentile with >= 10 jobs beyond."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    rank = n - 10
    return xs[rank - 1], 100.0 * rank / n, 10


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0

    def add(self, job, latency, errors):
        self.busy += latency
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"# FAILED {job.workload}/{job.key} master={job.master}: {'; '.join(errors)}",
                  file=sys.stderr)
        else:
            self.latencies.append(latency)

    @property
    def jobs_per_s(self) -> float:
        return len(self.latencies) / self.busy if self.busy > 0 else 0.0


def untraced(E, joblist, checker, out_dir, seconds):
    tally = Tally()
    wall0 = time.perf_counter()
    cycles = 0
    while True:
        for job in joblist.cycle(cycles):
            latency, errors, _ = run_one(job, E, out_dir, checker)
            tally.add(job, latency, errors)
        cycles += 1
        mean_cycle = tally.busy / cycles
        if tally.busy + mean_cycle / 2 >= seconds or time.perf_counter() - wall0 > WALL_LIMIT_S:
            break
    t, pct, beyond = tail(tally.latencies) if tally.latencies else (0.0, 0.0, 0)
    info = {"cycles": cycles, "jobs": tally.attempted, "tail_percentile": round(pct, 2),
            "tail_jobs_beyond": beyond, "unchecked_by_golden": checker.unchecked}
    metrics = {
        "jobs_per_s": tally.jobs_per_s,
        "job_p50_s": statistics.median(tally.latencies) if tally.latencies else 0.0,
        "job_tail_s": t,
        "peak_rss_mb": peak_rss_mb(),
    }
    return tally, metrics, info


def trace_cycles(workload: str, seconds: float) -> int:
    """Traced runs use a fixed cycle count, so their counts repeat exactly."""
    return max(1, round(seconds / (2 * jobs.WORKLOADS[workload].cycle_s)))


def traced(E, joblist, checker, out_dir, seconds, workload):
    rec = tracer.Recorder()
    wrappers = tracer.Wrappers(rec)
    plain, spanned = Tally(), Tally()
    counters: dict[str, int] = {}
    for i in range(trace_cycles(workload, seconds)):
        for job in joblist.cycle(2 * i):
            latency, errors, _ = run_one(job, E, out_dir, checker)
            plain.add(job, latency, errors)
        for job in joblist.cycle(2 * i + 1):
            rec.job = spanned.attempted
            with wrappers:
                latency, errors, extra = run_one(job, E, out_dir, checker, rec)
            spanned.add(job, latency, errors)
            for k, v in extra.items():
                counters[k] = counters.get(k, 0) + v
    metrics, errors = layer_metrics(rec, counters)
    overhead = 1.0 - spanned.jobs_per_s / plain.jobs_per_s if plain.jobs_per_s else 0.0
    metrics["trace.overhead_frac"] = overhead
    info = {"traced_jobs": spanned.attempted, "untraced_jobs": plain.attempted,
            "spans": len(rec.spans),
            "note": "spans inside pool workers are out of reach; pool time is the "
                    "self time of the waiting span"}
    for msg in errors:
        print(f"# TRACE CHECK FAILED: {msg}", file=sys.stderr)
    failed = plain.failed + spanned.failed
    attempted = plain.attempted + spanned.attempted
    return attempted, failed, metrics, info, errors


def layer_metrics(rec: tracer.Recorder, counters: dict) -> tuple[dict, list[str]]:
    selfs = rec.self_times()
    spans = rec.spans
    errors = []
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    attr_sum: dict[str, int] = {}
    seeds = set()
    produced = 0
    outer_phase = 0
    per_job: dict[int, list[float]] = {}
    for i, sp in enumerate(spans):
        name, parent = sp[tracer.NAME], sp[tracer.PARENT]
        parent_name = spans[parent][tracer.NAME] if parent >= 0 else None
        if sp[tracer.END] is None:
            errors.append(f"span {name} never closed")
            continue
        if parent >= 0 and (sp[tracer.START] < spans[parent][tracer.START] or sp[tracer.END] > spans[parent][tracer.END]):
            errors.append(f"span {name} escapes its parent {parent_name}")
        if selfs[i] < -1e-6:
            errors.append(f"span {name} has negative self time {selfs[i]:.3g}s")
        if name == "job":
            per_job.setdefault(sp[tracer.JOB], [0.0, 0.0, 0.0])[0] = sp[tracer.END] - sp[tracer.START]
            per_job[sp[tracer.JOB]][1] = selfs[i]
            continue
        per_job.setdefault(sp[tracer.JOB], [0.0, 0.0, 0.0])[2] += selfs[i]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        attrs = sp[tracer.ATTRS] or {}
        for key, value in attrs.items():
            if key == "seed":
                seeds.add(value)
            elif key == "phase_terms":
                if parent_name != "weyl.weyl_sum":
                    outer_phase += value
            else:
                attr_sum[f"{name}.{key}"] = attr_sum.get(f"{name}.{key}", 0) + value
        if name in ("generators.residue_stream", "generators.beta_stream",
                    "generators.interleaved_vectors") and not (parent_name or "").startswith("generators."):
            produced += attrs.get("terms", 0)
    for job, (wall, residual, layers) in per_job.items():
        if abs(layers + residual - wall) > 1e-6:
            errors.append(f"job {job}: layer self times {layers:.6f}s + residual "
                          f"{residual:.6f}s != wall {wall:.6f}s")

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in tracer.LAYERS:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in tracer.ATTR_METRICS:
        m[name] = attr_sum.get(name, 0)
    draws = calls.get("arithmetic.seed_draw", 0)
    m["arithmetic.prime_tests_per_seed"] = ratio(calls.get("arithmetic.is_probable_prime", 0), draws)
    m["arithmetic.distinct_seed_ratio"] = ratio(len(seeds), draws)
    m["arithmetic.power_steps_per_used_sample"] = ratio(
        m["arithmetic.power_stream.steps"], counters.get("koksma_samples_used", 0))
    gen_self = sum(v for k, v in self_s.items() if k.startswith("generators."))
    m["generators.ns_per_term"] = ratio(1e9 * gen_self, produced)
    m["weyl.phase_terms"] = outer_phase
    m["weyl.ns_per_phase_term"] = ratio(1e9 * self_s.get("weyl.weyl_sum", 0.0), outer_phase)
    m["cli.report_bytes"] = counters.get("report_bytes", 0)
    m["trace.residual_s"] = sum(v[1] for v in per_job.values())
    return m, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "main"), default="main")
    args = ap.parse_args(argv)

    E = import_equidist()
    checker = Checker(args.workload)
    joblist = jobs.JobList(args.workload, args.seed)
    with scratch_dir() as out_dir:
        warm = joblist.warmup()
        _, warm_errors, _ = run_one(warm, E, out_dir, checker)
        print("@@READY", flush=True)
        if args.role == "setup":
            return 1 if warm_errors else 0
        for msg in warm_errors:
            print(f"# WARM-UP FAILED {warm.key}: {msg}", file=sys.stderr)
        if args.trace:
            attempted, failed, metrics, info, trace_errors = traced(
                E, joblist, checker, out_dir, args.seconds, args.workload)
        else:
            tally, metrics, info = untraced(E, joblist, checker, out_dir, args.seconds)
            attempted, failed, trace_errors = tally.attempted, tally.failed, []
    info["machine"] = machine_info()
    out = {
        "correct": not warm_errors and not trace_errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": info,
    }
    print("@@RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
