"""Golden results: record them at a known-good commit, compare every job.

A job result is a JSON-like tree.  `split` separates it into an exact
skeleton (every float replaced by a marker) and the list of its floats in
tree order.  The golden keeps a digest of the skeleton, which pins drawn
seeds, verdicts, flagged sets, exit codes and integer certificates
bit for bit, and a summary of the floats: their count, their sum, and up
to FLOAT_SAMPLES of them at fixed positions.  Floats must agree within
|a - b| <= ABS_TOL + REL_TOL * |b|, not bit for bit, so a kernel that
changes the last bits of a Weyl sum still passes.

Record (at the seed commit, from the repository root):

    python3 perfbench/goldens.py --workload weyl_scan
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

REL_TOL = 1e-9
ABS_TOL = 1e-12
FLOAT_SAMPLES = 16
HERE = os.path.dirname(os.path.abspath(__file__))


def split(tree):
    floats: list[float] = []

    def walk(x):
        if x is None or isinstance(x, (int, str)):
            return x
        if isinstance(x, float):
            floats.append(x)
            return "<f>"
        if isinstance(x, dict):
            return {str(k): walk(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
        if isinstance(x, (list, tuple)):
            return [walk(v) for v in x]
        raise TypeError(f"unsupported result type {type(x).__name__}")

    skeleton = walk(tree)
    return skeleton, floats


def digest(skeleton) -> str:
    text = json.dumps(skeleton, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def summary(tree) -> dict:
    skeleton, floats = split(tree)
    n = len(floats)
    step = max(1, math.ceil(n / FLOAT_SAMPLES))
    return {
        "exact": digest(skeleton),
        "n_floats": n,
        "sum": math.fsum(floats),
        "abs_sum": math.fsum(abs(v) for v in floats),
        "at": [[i, floats[i]] for i in range(0, n, step)],
    }


def _within(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= ABS_TOL + REL_TOL * abs(b)


def compare(tree, golden: dict) -> list[str]:
    """Differences between a job result and its golden; empty when it matches."""
    got = summary(tree)
    errors = []
    if got["exact"] != golden["exact"]:
        errors.append("exact fields differ from the golden (seeds, verdicts, flags, codes)")
    if got["n_floats"] != golden["n_floats"]:
        errors.append(f"{got['n_floats']} float fields, golden has {golden['n_floats']}")
        return errors
    slack = ABS_TOL * got["n_floats"] + REL_TOL * golden["abs_sum"]
    if abs(got["sum"] - golden["sum"]) > slack:
        errors.append(f"float sum {got['sum']!r} vs golden {golden['sum']!r}")
    values = dict((i, v) for i, v in got["at"])
    for i, want in golden["at"]:
        if not _within(values[i], want):
            errors.append(f"float #{i} = {values[i]!r}, golden {want!r}")
    return errors


def path_for(workload: str) -> str:
    return os.path.join(HERE, "goldens", f"{workload}.json")


def load(workload: str) -> dict:
    with open(path_for(workload)) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    import harness
    import jobs

    ap = argparse.ArgumentParser(description="record golden job results")
    ap.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    args = ap.parse_args(argv)
    E = harness.import_equidist()
    out = {}
    with harness.scratch_dir() as out_dir:
        for index in range(jobs.POOL_SIZE + 1):
            for kind in jobs.WORKLOADS[args.workload].kinds:
                job = jobs.make_job(args.workload, kind, index)
                result, errors, _ = jobs.summarize(job, jobs.run(job, E, out_dir))
                if errors:
                    print(f"{job.key}: oracle failure {errors}", file=sys.stderr)
                    return 1
                out[job.key] = summary(result)
            print(f"{args.workload}: pool index {index} recorded", file=sys.stderr)
    path = path_for(args.workload)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(out.items())]
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
