"""Workload definitions: job types, the seed-derived job list, per-job checks.

A workload is a fixed cycle of job types.  Every job is one closed-loop
call into equidist that runs to its verdict; the next job starts only
after the previous one returned and was checked.  Each job type draws its
master seeds from a fixed pool of POOL_SIZE entries whose outputs were
recorded as goldens (see goldens.py); the workload seed chooses which pool
entries a run uses and in what order.  Pool index POOL_SIZE is reserved for
the warm-up job, so no timed job ever reuses its master seed.

`run(job, E, out_dir)` is the timed part.  `summarize(job, raw)` runs off the clock
and returns the result to compare against the golden, the list of oracle
violations, and counters the traced run reports.  The oracles use only the
standard library, never equidist, so checking cannot warm a library cache.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

POOL_SIZE = 64
WARMUP_INDEX = POOL_SIZE


@dataclass(frozen=True)
class Job:
    workload: str
    kind: str
    index: int  # pool index; >= POOL_SIZE + 1 means outside the golden pool
    master: int

    @property
    def key(self) -> str:
        return f"{self.kind}:{self.index}"


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple[str, ...]
    warmup: str
    cycle_s: float  # nominal cycle time on the reference machine, seed commit
    shared: dict  # kind -> kind whose master seed it reuses within a cycle


WORKLOADS = {
    "weyl_scan": Workload(
        "weyl_scan",
        ("fact_d3", "fact_d2", "self_power_d1", "mult3_d2", "weyl2_d3",
         "interleaved_d2", "weyl1_d1"),
        warmup="weyl1_d1",
        cycle_s=3.4,
        shared={},
    ),
    "mc_sweep": Workload(
        "mc_sweep",
        ("mc_d1", "mc_d2", "mc_d3", "del_factorial", "del_mult2", "wcud_mult2",
         "lemma2_factorial"),
        warmup="wcud_mult2",
        cycle_s=3.4,
        shared={"mc_d2": "mc_d1", "mc_d3": "mc_d1"},
    ),
    "koksma_power": Workload(
        "koksma_power",
        ("lemma3_koksma", "beta_star", "fixed_point_pow"),
        warmup="beta_star",
        cycle_s=3.3,
        shared={},
    ),
    "cli_batch": Workload(
        "cli_batch",
        ("discrepancy", "wcud", "gamma", "covariance", "weyl_pass",
         "weyl_refuted", "generate_json", "generate_csv", "degenerate"),
        warmup="generate_json",
        cycle_s=2.0,
        shared={},
    ),
}


def master_seed(workload: str, kind: str, index: int) -> int:
    wl = WORKLOADS[workload]
    group = wl.shared.get(kind, kind)
    digest = hashlib.sha256(f"{workload}/{group}/{index}".encode()).digest()
    return int.from_bytes(digest[:6], "big")


def make_job(workload: str, kind: str, index: int) -> Job:
    return Job(workload, kind, index, master_seed(workload, kind, index))


class JobList:
    """Seed-derived, deterministic job sequence of one run.

    Cycle c of job type t uses pool entry perm[t][c]; cycles beyond the pool
    get fresh master seeds outside it (checked by oracles only).
    """

    def __init__(self, workload: str, seed: int):
        self.workload = WORKLOADS[workload]
        rng = random.Random(f"{workload}:{seed}")
        self.perm = {}
        for kind in self.workload.kinds:
            if kind in self.workload.shared:
                continue
            order = list(range(POOL_SIZE))
            rng.shuffle(order)
            self.perm[kind] = order

    def cycle(self, c: int) -> list[Job]:
        out = []
        for kind in self.workload.kinds:
            group = self.workload.shared.get(kind, kind)
            order = self.perm[group]
            index = order[c] if c < len(order) else POOL_SIZE + 1 + c
            out.append(make_job(self.workload.name, kind, index))
        return out

    def warmup(self) -> Job:
        return make_job(self.workload.name, self.workload.warmup, WARMUP_INDEX)


# -- job parameters --------------------------------------------------------

# weyl_scan: (family args, d, construction, m_radius, N)
WEYL_SHAPES = {
    "fact_d3": (("factorial",), 3, "sliding_bc", 3, 100_000),
    "fact_d2": (("factorial",), 2, "sliding_bc", 3, 20_000),
    "self_power_d1": (("self_power",), 1, "sliding_bc", 3, 100_000),
    "mult3_d2": (("multiplicative", 3), 2, "sliding_bc", 3, 100_000),
    "weyl2_d3": (("weyl", 2), 3, "sliding_bc", 3, 40_000),
    "interleaved_d2": (("factorial",), 2, "interleaved_a", 3, 5_000),
    "weyl1_d1": (("weyl", 1), 1, "sliding_bc", 3, 20_000),
}
# exact degenerate certificates, written out independently of the library
DEGENERATE = {"mult3_d2": (3, -1), "weyl2_d3": (1, -2, 1)}

MC_SEEDS = 24
DEL_N, DEL_SEEDS = 10_000, 32
WCUD_N, WCUD_SEEDS = 1000, 16
LEMMA2_LAGS, LEMMA2_SEEDS = (1, 2, 3, 4), 16
LEMMA3_N, LEMMA3_SEEDS, LEMMA3_PAIRS, LEMMA3_BITS = 4096, 8, 32, 64
BETA_N = 2000
FPP_COUNT, FPP_MAX_K = 6, 1500


def _spec(E, args):
    kind, *rest = args
    if kind == "factorial":
        return E.GeneratorSpec.factorial()
    if kind == "self_power":
        return E.GeneratorSpec.self_power()
    if kind == "multiplicative":
        return E.GeneratorSpec.multiplicative(rest[0])
    if kind == "weyl":
        return E.GeneratorSpec.weyl(rest[0])
    if kind == "koksma":
        return E.GeneratorSpec.koksma()
    raise ValueError(kind)


def _mc_params(job: Job):
    """(d, m, k, l) of an mc_moment job, drawn like acceptance criterion 5."""
    d = int(job.kind[-1])
    rng = random.Random(f"{job.kind}/{job.index}")
    while True:
        comps = tuple(rng.randint(-3, 3) for _ in range(d))
        if any(comps):
            break
    l = rng.randint(1, 40)
    return d, comps, l + rng.randint(1, 40), l


def _fpp_ks(job: Job) -> list[int]:
    rng = random.Random(f"fpp/{job.index}")
    return sorted(rng.sample(range(2, FPP_MAX_K + 1), FPP_COUNT))


def _beta_probe(n: int) -> tuple[int, ...]:
    return (1, 2, 3, 64, n // 2, n)


# -- cli argv --------------------------------------------------------------


def cli_argv(job: Job, out_dir: str, workers: int = 2):
    """argv and report path of one cli_batch job."""
    ms = ["--master-seed", str(job.master)]
    w = ["--workers", str(workers)]
    kind = job.kind
    if kind == "generate_json":
        args, ext = ["generate", "--family", "factorial", "--N", "2000", *ms], "json"
    elif kind == "generate_csv":
        args, ext = ["generate", "--family", "koksma", "--N", "500", "--format", "csv", *ms], "csv"
    elif kind == "weyl_refuted":
        args, ext = ["weyl", "--family", "multiplicative", "--M", "2", "--d", "2",
                     "--m-radius", "2", "--N", "10000", *ms], "json"
    elif kind == "weyl_pass":
        args, ext = ["weyl", "--family", "factorial", "--d", "2", "--m-radius", "2",
                     "--N", "30000", *ms], "json"
    elif kind == "discrepancy":
        args, ext = ["discrepancy", "--family", "factorial", "--N", "2000",
                     "--n-seeds", "32", *w, *ms], "json"
    elif kind == "covariance":
        args, ext = ["covariance", "--family", "koksma", "--m", "1", "--N", "2048",
                     "--n-seeds", "8", "--seed-bits", "64", *w, *ms], "json"
    elif kind == "wcud":
        args, ext = ["wcud", "--family", "multiplicative", "--M", "2", "--d", "2",
                     "--m", "2,-1", "--N", "1000", "--n-seeds", "16", *w, *ms], "json"
    elif kind == "degenerate":
        args, ext = ["degenerate", "--family", "weyl", "--p", str(1 + job.index % 5)], "json"
    elif kind == "gamma":
        args, ext = ["gamma", "--count", "1024", "--bits", "32", *ms], "json"
    else:
        raise ValueError(kind)
    path = os.path.join(out_dir, f"{kind}.{ext}")
    return [*args, "--output", path], path


CLI_EXIT = {"weyl_refuted": 2, "wcud": 2, "weyl_pass": 0, "generate_json": 0,
            "generate_csv": 0, "discrepancy": 0, "degenerate": 0, "gamma": 0}


# -- the timed part --------------------------------------------------------


def run(job: Job, E, out_dir: str):
    """Execute one job against the equidist namespace E; returns raw output."""
    wl, kind = job.workload, job.kind
    if wl == "weyl_scan":
        fam, d, construction, radius, n = WEYL_SHAPES[kind]
        spec = _spec(E, fam)
        cfg = E.WindowConfig(d=d, h=1, construction=construction)
        sampler = E.SeedSampler(job.master)
        if construction == "interleaved_a":
            seed = [sampler.sample(spec.seed_interval()) for _ in range(d)]
        else:
            seed = sampler.sample(spec.seed_interval())
        scan = E.criterion_scan(spec, seed, cfg, radius, n)
        flagged = scan.flagged(0.9)
        etk = E.etk_bound(scan, radius, scan.checkpoints[-1])
        return seed, scan, flagged, etk
    if wl == "mc_sweep":
        fac = E.GeneratorSpec.factorial()
        mult = E.GeneratorSpec.multiplicative(2)
        if kind.startswith("mc_d"):
            d, comps, k, l = _mc_params(job)
            est = E.mc_moment(fac, E.WindowConfig(d=d), comps,
                              E.MomentTarget("pair_moment", k=k, l=l),
                              n_seeds=MC_SEEDS, master_seed=job.master)
            return est, E.exact_frequency(fac, k, l, comps)
        if kind == "del_factorial":
            return E.del_criterion(fac, E.WindowConfig(d=1), (1,), DEL_N,
                                   n_seeds=DEL_SEEDS, master_seed=job.master)
        if kind == "del_mult2":
            return E.del_criterion(mult, E.WindowConfig(d=2), (2, -1), DEL_N,
                                   n_seeds=DEL_SEEDS, master_seed=job.master)
        if kind == "wcud_mult2":
            return E.wcud_check(mult, E.WindowConfig(d=2), (2, -1), WCUD_N,
                                n_seeds=WCUD_SEEDS, master_seed=job.master)
        if kind == "lemma2_factorial":
            return E.lemma2_decay_fit(fac, E.WindowConfig(d=1), (1,), LEMMA2_LAGS,
                                      n_seeds=LEMMA2_SEEDS, master_seed=job.master)
    if wl == "koksma_power":
        spec = E.GeneratorSpec.koksma()
        if kind == "lemma3_koksma":
            return E.lemma3_check(spec, E.WindowConfig(d=1), (1,), LEMMA3_N,
                                  n_seeds=LEMMA3_SEEDS, master_seed=job.master,
                                  n_pairs=LEMMA3_PAIRS, bit_width=LEMMA3_BITS)
        seed = E.SeedSampler(job.master).sample(spec.seed_interval())
        if kind == "beta_star":
            stream = E.beta_stream(spec, seed, BETA_N)
            values = E.stream_floats(stream)
            stars = [E.star_discrepancy_1d(values[:n]).value
                     for n in E.checkpoint_grid(BETA_N)]
            probes = {k: stream[k - 1].fixed for k in _beta_probe(BETA_N)}
            return seed, stars, probes
        if kind == "fixed_point_pow":
            return seed, {k: E.fixed_point_pow(seed.value, k) for k in _fpp_ks(job)}
    if wl == "cli_batch":
        argv, path = cli_argv(job, out_dir)
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                E.cli.main(argv)
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, path
    raise ValueError(f"unknown job {wl}/{kind}")


# -- off the clock: result, oracles, counters --------------------------------


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _sinpi(x: Fraction) -> float:
    x = x - 2 * math.floor(x / 2)  # exact reduction into [0, 2)
    return math.sin(math.pi * float(x))


def _cospi(x: Fraction) -> float:
    return _sinpi(x + Fraction(1, 2))


def geometric_weyl(theta: Fraction, n: int) -> complex:
    """(1/n) sum_{k=1..n} e(k theta), closed form with exact argument reduction."""
    num = _sinpi(n * theta)
    den = _sinpi(theta)
    phase = (n + 1) * theta
    return complex(_cospi(phase), _sinpi(phase)) * (num / (n * den))


def _koksma_oracle(seed, k: int, fixed, power: bool) -> str | None:
    """fixed is frac(t^k) (or t^k when power) within err_ulps, checked exactly."""
    p, q = seed.numerator, seed.denominator
    num, den = p**k, q**k
    if not power:
        num %= den
    f = fixed.frac_bits
    gap = abs(fixed.mantissa * den - (num << f))
    if gap > fixed.err_ulps * den:
        return f"k={k}: fixed-point sample off the exact value by more than err_ulps={fixed.err_ulps}"
    return None


def _pairs_used(pairs, d: int, h: int = 1, o: int = 0) -> int:
    needed = set()
    for k, l in pairs:
        for w in (k, l):
            base = (w - 1) * h + o
            needed.update(base + j for j in range(1, d + 1))
    return len(needed)


def _parse_report(path: str):
    with open(path) as fh:
        text = fh.read()
    if path.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(text)))
        parsed = [rows[0]] + [[_cell(c) for c in row] for row in rows[1:]]
    else:
        parsed = json.loads(text)
        parsed.get("config", {}).pop("output_path", None)
    return parsed, len(text.encode())


def _cell(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def summarize(job: Job, raw):
    """(result, oracle errors, counters) for one finished job."""
    wl, kind = job.workload, job.kind
    errors: list[str] = []
    counters: dict[str, int] = {}
    if wl == "weyl_scan":
        seed, scan, flagged, etk = raw
        canon = sorted((m for m in scan.series if m.canonical), key=lambda m: m.components)
        flagged_c = [list(m.components) for m in flagged]
        result = {
            "seed": [str(s) for s in seed] if isinstance(seed, list) else str(seed),
            "flagged": flagged_c,
            "n_m": len(scan.series),
            "checkpoints": list(scan.checkpoints),
            "etk": etk.value,
            "final": [scan.series[m].final_magnitude for m in canon],
        }
        want = DEGENERATE.get(kind)
        if want is not None:
            neg = [-c for c in want]
            if sorted(flagged_c) != sorted([list(want), neg]):
                errors.append(f"flagged {flagged_c}, expected exactly +-{want}")
            series = {m.components: s for m, s in scan.series.items()}.get(want)
            if series is None or any(abs(v - 1.0) > 1e-12 for v in series.magnitudes):
                errors.append(f"|W_N({want})| deviates from 1 by more than 1e-12")
        elif flagged_c:
            errors.append(f"non-degenerate family flagged {flagged_c}")
        if kind == "weyl1_d1":
            t = Fraction(seed.numerator, seed.denominator)
            for m, s in scan.series.items():
                for n, w in zip(s.checkpoints, s.values):
                    o = geometric_weyl(m.components[0] * t, n)
                    if abs(w - o) > 1e-9 * abs(o):
                        errors.append(f"m={m.components} N={n}: {w} vs closed form {o}")
                        break
        return result, errors, counters
    if wl == "mc_sweep":
        if kind.startswith("mc_d"):
            est, freq = raw
            d, comps, k, l = _mc_params(job)
            result = {"m": list(comps), "k": k, "l": l, "frequency": freq,
                      "value": [est.value.real, est.value.imag], "stderr": est.stderr,
                      "n_seeds": est.n_seeds}
            return result, errors, counters
        if kind == "lemma2_factorial":
            fit = raw
            result = {"inconclusive": fit.inconclusive, "lags": list(fit.lags),
                      "pairs": [list(p) for p in fit.pairs], "estimates": list(fit.estimates),
                      "stderrs": list(fit.stderrs), "delta_hat": fit.delta_hat}
            return result, errors, counters
        diag = raw
        result = {"verdicts": diag.verdicts, "checkpoints": list(diag.checkpoints),
                  "s_over_n": list(diag.s_over_n), "stderr": list(diag.s_over_n_stderr),
                  "partial": list(diag.del_partial_sums or []), "details": diag.details}
        if kind == "del_mult2" and diag.verdicts.get("del_series") != "divergent-trend":
            errors.append(f"degenerate del_criterion verdict {diag.verdicts}")
        if kind == "wcud_mult2":
            if diag.verdicts.get("wcud") != "refuted":
                errors.append(f"degenerate wcud verdict {diag.verdicts}")
            if any(abs(v - 1.0) > 1e-12 for v in diag.s_over_n):
                errors.append("E|S_N|/N on a degenerate m deviates from 1 by more than 1e-12")
        return result, errors, counters
    if wl == "koksma_power":
        if kind == "lemma3_koksma":
            chk = raw
            result = {"verdict": chk.verdict, "pairs": [list(p) for p in chk.pairs],
                      "estimates": list(chk.estimates), "stderrs": list(chk.stderrs),
                      "empirical_max": chk.empirical_max, "exact": chk.exact}
            counters["koksma_samples_used"] = LEMMA3_SEEDS * _pairs_used(chk.pairs, 1)
            return result, errors, counters
        if kind == "beta_star":
            seed, stars, probes = raw
            result = {"seed": str(seed), "star": list(stars)}
            for k, fixed in probes.items():
                err = _koksma_oracle(seed, k, fixed, power=False)
                if err:
                    errors.append(err)
            counters["koksma_samples_used"] = BETA_N
            return result, errors, counters
        seed, powers = raw
        result = {"seed": str(seed), "ks": list(powers),
                  "frac": [p.frac().to_float() for p in powers.values()]}
        for k, fixed in powers.items():
            err = _koksma_oracle(seed, k, fixed, power=True)
            if err:
                errors.append(err)
        return result, errors, counters
    if wl == "cli_batch":
        code, path = raw
        report, size = _parse_report(path)
        counters["report_bytes"] = size
        result = {"code": code, "report": report}
        want = CLI_EXIT.get(kind)
        if want is not None and code != want:
            errors.append(f"exit code {code}, expected {want}")
        if kind == "covariance" and code not in (0, 2):
            errors.append(f"exit code {code}, expected 0 or 2")
        if kind == "degenerate":
            p = 1 + job.index % 5
            binom = [(-1) ** j * math.comb(p, j) for j in range(p + 1)]
            if report.get("m") != binom:
                errors.append(f"degenerate m {report.get('m')}, expected {binom}")
        if kind == "gamma":
            table = report["indices"]
            for i, j in ((1, 1), (2, 5), (1024, 32)):
                n = i + j - 1
                if table[i - 1][j - 1] != n * (n + 1) // 2 - (i - 1):
                    errors.append(f"gamma index ({i},{j}) wrong")
        if kind == "covariance":
            counters["koksma_samples_used"] = 8 * _pairs_used(report["far_pairs"]["pairs"], 1)
        if kind == "generate_csv":
            counters["koksma_samples_used"] = 500
        return result, errors, counters
    raise ValueError(f"unknown job {wl}/{kind}")
