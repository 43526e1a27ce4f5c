"""Self-tests of the benchmark itself (not of equidist).

    python3 perfbench/selftest.py [--quick]

1. The same workload seed generates the same job list; another seed does not.
2. Every count metric repeats exactly across two traced runs (skipped with
   --quick).
3. A cli_batch report at --workers 2 equals the one at --workers 1 once
   config.workers and output_path are masked.
4. The checker rejects deliberately corrupted results, and the trace check
   rejects a span that escapes its parent.
5. The tail percentile and BENCHMARK.json agree with the definitions.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import subprocess
import sys

import goldens
import harness
import jobs
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
COUNT_SUFFIXES = (".calls", ".terms", ".steps", ".bits", "phase_terms", "report_bytes",
                  "prime_tests_per_seed", "distinct_seed_ratio", "power_steps_per_used_sample")
failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def test_job_lists():
    for name in jobs.WORKLOADS:
        a = [jobs.JobList(name, 7).cycle(c) for c in range(3)]
        b = [jobs.JobList(name, 7).cycle(c) for c in range(3)]
        other = [jobs.JobList(name, 8).cycle(c) for c in range(3)]
        expect(a == b, f"{name}: seed 7 gives the same job list twice")
        expect(a != other, f"{name}: seeds 7 and 8 give different job lists")
        masters = [j.master for cyc in a for j in cyc]
        warm = jobs.JobList(name, 7).warmup().master
        expect(warm not in masters, f"{name}: warm-up master seed unused by timed jobs")


def traced_counts(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "2", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    ).stdout.strip().splitlines()[-1]
    result = json.loads(out)
    expect(result["correct"], f"{workload}: traced run correct")
    return {k: v["value"] for k, v in result["metrics"].items() if k.endswith(COUNT_SUFFIXES)}


def test_counts_repeat():
    for name in jobs.WORKLOADS:
        first, second = traced_counts(name), traced_counts(name)
        expect(first == second, f"{name}: {len(first)} count metrics repeat exactly")


def test_cli_workers(E, out_dir):
    for kind in ("discrepancy", "covariance", "wcud"):
        job = jobs.make_job("cli_batch", kind, 0)
        reports = []
        for workers in (1, 2):
            argv, path = jobs.cli_argv(job, out_dir, workers)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
                E.cli.main(argv)
            with open(path) as fh:
                report = json.load(fh)
            report["config"].pop("workers")
            report["config"].pop("output_path")
            reports.append(report)
        expect(reports[0] == reports[1], f"cli {kind}: report at --workers 2 equals --workers 1")


def test_checker(E, out_dir):
    gold = goldens.load("weyl_scan")
    job = jobs.make_job("weyl_scan", "weyl1_d1", 0)
    raw = jobs.run(job, E, out_dir)
    result, errors, _ = jobs.summarize(job, raw)
    expect(not errors and not goldens.compare(result, gold[job.key]), "checker accepts a good weyl job")

    summ = goldens.summary(result)
    near = copy.deepcopy(result)
    near["etk"] *= 1 + 1e-13
    expect(not goldens.compare(near, summ), "checker accepts a float within tolerance")
    far = copy.deepcopy(result)
    far["final"][0] *= 1 + 1e-6
    expect(bool(goldens.compare(far, summ)), "checker rejects a float beyond tolerance")
    seed = copy.deepcopy(result)
    seed["seed"] = "1/3"
    expect(bool(goldens.compare(seed, summ)), "checker rejects a different drawn seed")
    flags = copy.deepcopy(result)
    flags["flagged"] = [[1]]
    expect(bool(goldens.compare(flags, summ)), "checker rejects a changed flagged set")

    # the geometric closed form catches a corrupted Weyl sum
    seed_obj, scan, flagged, etk = raw
    m = next(iter(scan.series))
    s = scan.series[m]
    scan.series[m] = type(s)(s.m, s.checkpoints, tuple(v * 0.5 for v in s.values))
    _, oracle_errors, _ = jobs.summarize(job, (seed_obj, scan, flagged, etk))
    expect(bool(oracle_errors), "geometric closed-form oracle rejects a corrupted Weyl sum")

    kjob = jobs.make_job("koksma_power", "beta_star", 0)
    seed_obj, stars, probes = jobs.run(kjob, E, out_dir)
    k, fixed = max(probes.items())
    probes[k] = type(fixed)(fixed.mantissa + 4 * (fixed.err_ulps + 1), fixed.frac_bits, fixed.err_ulps)
    _, oracle_errors, _ = jobs.summarize(kjob, (seed_obj, stars, probes))
    expect(bool(oracle_errors), "koksma exact-power oracle rejects a sample outside err_ulps")

    cjob = jobs.make_job("cli_batch", "weyl_refuted", 0)
    _, path = jobs.run(cjob, E, out_dir)
    _, oracle_errors, _ = jobs.summarize(cjob, (0, path))
    expect(bool(oracle_errors), "checker rejects a wrong exit code")

    rec = tracer.Recorder()
    rec.spans = [["job", -1, 0, 0.0, 1.0, 1.0, {}], ["weyl.weyl_sum", 0, 0, 0.5, 1.5, 1.0, {}]]
    _, trace_errors = harness.layer_metrics(rec, {})
    expect(bool(trace_errors), "trace check rejects a span escaping its parent")


def test_definitions():
    expect(harness.tail([float(i) for i in range(1, 41)])[:2] == (30.0, 75.0),
           "tail of 40 jobs is the p75 latency, 10 jobs beyond")
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = {w["name"] for w in spec["workloads"]}
    expect(names == set(jobs.WORKLOADS), "BENCHMARK.json lists the workloads of jobs.py")
    rec = tracer.Recorder()
    produced, _ = harness.layer_metrics(rec, {})
    produced["trace.overhead_frac"] = 0.0
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in produced]
    expect(not missing, f"every per-layer metric is produced by the trace (missing {missing})")


def main() -> int:
    E = harness.import_equidist()
    test_job_lists()
    test_definitions()
    with harness.scratch_dir() as out_dir:
        test_checker(E, out_dir)
        test_cli_workers(E, out_dir)
    if "--quick" not in sys.argv:
        test_counts_repeat()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
