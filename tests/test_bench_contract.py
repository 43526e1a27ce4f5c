"""The benchmark's view of the library: wrapped names and recorded goldens.

`perfbench/tracer.py` installs its layer wrappers by (module, attribute)
and (module, class, method); a renamed or deleted target would only show
up as a failed `--trace 1` run, so it is checked here.  The golden replay
runs pool entry 0 of every job kind of every workload, CLI calls included,
through the benchmark's own job runner and checker, so a change that moves
a result, a verdict or an exit code beyond the golden tolerance fails here
rather than in a benchmark run.  The zero-frequency kinds, whose |S_n| rows
are exact and take milliseconds, also replay entries 1-7, so more than one
master seed checks their bytes, and so do the kinds whose scans sum multi-factor
m by matrix product (the weyl_scan kinds at d >= 2 with a golden worth replaying, and
the CLI weyl reports), on entries 1-3.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import equidist
import equidist.cli  # noqa: F401  (the cli_batch jobs call equidist.cli.main)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, *_ in tracer.FUNCTIONS])
def test_wrapped_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("module, cls, method", [(m, c, f) for m, c, f, *_ in tracer.METHODS])
def test_wrapped_method_resolves(module, cls, method):
    owner = getattr(importlib.import_module(module), cls)
    assert callable(owner.__dict__[method])


def _perfbench_modules():
    # harness imports its siblings (goldens, jobs, tracer) by bare name
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("harness"), importlib.import_module("jobs")
    finally:
        sys.path.remove(str(PERFBENCH))


harness, jobs = _perfbench_modules()
REPLAYED = [(kind, name) for name, wl in jobs.WORKLOADS.items() for kind in wl.kinds]


@pytest.mark.parametrize("kind, workload", REPLAYED)
def test_golden_replay(kind, workload, tmp_path):
    job = jobs.make_job(workload, kind, 0)
    raw = jobs.run(job, equidist, str(tmp_path))
    errors, _ = harness.Checker(workload).check(job, raw)
    assert errors == []


ZERO_FREQUENCY_KINDS = [("del_mult2", "mc_sweep"), ("wcud_mult2", "mc_sweep"), ("wcud", "cli_batch")]


@pytest.mark.parametrize("index", range(1, 8))
@pytest.mark.parametrize("kind, workload", ZERO_FREQUENCY_KINDS)
def test_golden_replay_more_master_seeds(kind, workload, index, tmp_path):
    job = jobs.make_job(workload, kind, index)
    raw = jobs.run(job, equidist, str(tmp_path))
    errors, _ = harness.Checker(workload).check(job, raw)
    assert errors == []


MATRIX_PRODUCT_KINDS = [("fact_d3", "weyl_scan"), ("weyl2_d3", "weyl_scan"), ("mult3_d2", "weyl_scan"),
                        ("interleaved_d2", "weyl_scan"), ("weyl_pass", "cli_batch"),
                        ("weyl_refuted", "cli_batch")]


@pytest.mark.parametrize("index", range(1, 4))
@pytest.mark.parametrize("kind, workload", MATRIX_PRODUCT_KINDS)
def test_golden_replay_matrix_product_kinds(kind, workload, index, tmp_path):
    job = jobs.make_job(workload, kind, index)
    raw = jobs.run(job, equidist, str(tmp_path))
    errors, _ = harness.Checker(workload).check(job, raw)
    assert errors == []
