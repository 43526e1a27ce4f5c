"""End-to-end acceptance runs, one test per criterion.

Every test prints one ACCEPTANCE line (visible under pytest -s) carrying
the verdict, the elapsed time against the runtime budget, and the headline
numbers.  Master seeds are pinned so the whole module is deterministic.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from equidist.arithmetic import DEFAULT_SEED_BITS, SeedSampler
from equidist.discrepancy import (
    etk_bound,
    star_discrepancy_1d,
    star_discrepancy_oracle,
)
from equidist.generators import (
    GeneratorSpec,
    WindowConfig,
    beta_stream,
    stream_floats,
)
from equidist.stochastic import (
    MomentTarget,
    _draw_seeds,
    c_of_m_scan,
    default_bit_source,
    del_criterion,
    exact_frequency,
    gamma_index,
    gamma_stream,
    mc_moment,
    wcud_check,
)
from equidist.weyl import (
    MultiIndex,
    canonical_half,
    checkpoint_grid,
    criterion_scan,
    degenerate_m_multiplicative,
    degenerate_m_weyl,
    multi_indices,
    scan_points,
    weyl_sum,
)

FACTORIAL = GeneratorSpec.factorial()


def report(num: int, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"ACCEPTANCE {num}: {verdict} ({elapsed:.1f}s / budget {budget:.0f}s) {detail}",
        flush=True,
    )
    assert ok, detail
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds {budget}s"


# -- exact-angle helpers for the geometric closed form -----------------------


def sinpi(x: Fraction) -> float:
    """sin(pi x) with the argument reduced exactly before any rounding."""
    x = x - 2 * (x.numerator // (2 * x.denominator))  # now 0 <= x < 2
    sign = 1.0
    if x >= 1:
        x -= 1
        sign = -1.0
    if x > Fraction(1, 2):
        x = 1 - x
    return sign * math.sin(math.pi * float(x))


def cospi(x: Fraction) -> float:
    return sinpi(x + Fraction(1, 2))


def geometric_weyl(theta: Fraction, n: int) -> complex:
    """(1/n) sum_{k=1..n} e(k theta) via the sine quotient form."""
    num = sinpi(n * theta)
    den = sinpi(theta)
    phase = (n + 1) * theta
    return complex(cospi(phase), sinpi(phase)) * (num / (n * den))


def test_criterion_01_degenerate_multiplicative_pair():
    t0 = time.perf_counter()
    seed = SeedSampler(101).sample()
    cfg = WindowConfig(d=2, h=1)
    pts = scan_points(GeneratorSpec.multiplicative(2), seed, cfg, 10_000)
    series = weyl_sum(pts, (2, -1), checkpoints=checkpoint_grid(10_000))
    worst = max(abs(v - 1.0) for v in series.magnitudes)
    report(
        1,
        worst <= 1e-12,
        time.perf_counter() - t0,
        1.0,
        f"|W_N| = 1 at all {len(series.checkpoints)} checkpoints, "
        f"max deviation {worst:.2e}",
    )


def test_criterion_02_degenerate_weyl_vectors():
    t0 = time.perf_counter()
    sampler = SeedSampler(202)
    worst = 0.0
    for p in range(1, 6):
        m = degenerate_m_weyl(p)
        want = tuple((-1) ** j * math.comb(p, j) for j in range(p + 1))
        assert m.components == want, f"p={p}: {m.components} != {want}"
        seed = sampler.sample()
        pts = scan_points(GeneratorSpec.weyl(p), seed, WindowConfig(d=p + 1, h=1), 2000)
        series = weyl_sum(pts, m.components, checkpoints=checkpoint_grid(2000))
        worst = max(worst, max(abs(v - 1.0) for v in series.magnitudes))
    report(
        2,
        worst <= 1e-12,
        time.perf_counter() - t0,
        5.0,
        f"p=1..5 vectors match alternating binomials, max |W_N| deviation {worst:.2e}",
    )


def test_criterion_03_geometric_closed_form():
    t0 = time.perf_counter()
    sampler = SeedSampler(1)
    cfg = WindowConfig(d=1, h=1)
    worst = 0.0
    for _ in range(16):
        seed = sampler.sample()
        t = Fraction(seed.numerator, seed.denominator)
        scan = criterion_scan(GeneratorSpec.weyl(1), seed, cfg, 5, 10_000)
        for j in range(1, 6):
            series = scan.series[MultiIndex((j,))]
            for n, w in zip(series.checkpoints, series.values):
                o = geometric_weyl(j * t, n)
                worst = max(worst, abs(w - o) / abs(o))
    report(
        3,
        worst <= 1e-9,
        time.perf_counter() - t0,
        10.0,
        f"16 seeds, m=1..5, all checkpoints: worst relative deviation {worst:.2e}",
    )


def test_criterion_04_discrepancy_oracle_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(200):
        xs = rng.random(int(rng.integers(1, 65)))
        diff = abs(
            star_discrepancy_1d(xs).value - star_discrepancy_oracle(xs).value
        )
        worst = max(worst, diff)
    dominated = 0
    for _ in range(50):
        n = int(rng.integers(1, 33))
        xs = rng.random((n, 2))
        oracle = star_discrepancy_oracle(xs).value
        lattice = {
            m: weyl_sum(xs, m.components, checkpoints=[n])
            for m in multi_indices(2, 8)
        }
        if all(etk_bound(lattice, radius, n).value >= oracle for radius in range(1, 9)):
            dominated += 1
    report(
        4,
        worst <= 1e-15 and dominated == 50,
        time.perf_counter() - t0,
        60.0,
        f"1-D closed form vs oracle: max gap {worst:.1e}; "
        f"ETK dominates oracle in {dominated}/50 2-D instances (H=1..8)",
    )


def test_criterion_05_exact_orthogonality_certificates():
    t0 = time.perf_counter()
    rng = random.Random(505)
    pool = []
    while len(pool) < 80:
        d = rng.randint(1, 3)
        comps = tuple(rng.randint(-5, 5) for _ in range(d))
        if all(c == 0 for c in comps) or comps in {m for m, _ in pool}:
            continue
        scan = c_of_m_scan(FACTORIAL, comps, max_lag=16, probe=48)
        if scan.conclusive:
            pool.append((comps, scan.c))
    triples = []
    for _ in range(1000):
        comps, c = pool[rng.randrange(len(pool))]
        l = rng.randint(1, 40)
        k = l + rng.randint(c + 1, c + 40)
        triples.append((k, l, comps))
    nonzero = sum(1 for k, l, comps in triples if exact_frequency(FACTORIAL, k, l, comps) != 0)
    within = 0
    for k, l, comps in rng.sample(triples, 50):
        est = mc_moment(
            FACTORIAL,
            WindowConfig(d=len(comps), h=1),
            comps,
            MomentTarget("pair_moment", k=k, l=l),
            n_seeds=24,
            master_seed=9,
        )
        if abs(est.value) <= 4 * est.stderr:
            within += 1
    report(
        5,
        nonzero == 1000 and within == 50,
        time.perf_counter() - t0,
        60.0,
        f"{nonzero}/1000 frequencies nonzero beyond c(m); "
        f"{within}/50 MC covariances within 4 stderr of 0",
    )


def test_criterion_06_factorial_complete_equidistribution():
    t0 = time.perf_counter()
    n = 100_000
    seeds = _draw_seeds(FACTORIAL.seed_interval(), 32, 301, DEFAULT_SEED_BITS)
    hits = {(d, m.components): 0 for d in (1, 2, 3) for m in canonical_half(d, 3)}
    for seed in seeds:
        for d in (1, 2, 3):
            scan = criterion_scan(FACTORIAL, seed, WindowConfig(d=d), 3, n)
            # mirror indices carry the conjugate sum, so the canonical
            # half covers every magnitude with sup-norm <= 3
            for m in canonical_half(d, 3):
                if scan.series[m].final_magnitude <= 0.05:
                    hits[(d, m.components)] += 1
    worst = min(hits.values())
    report(
        6,
        worst >= 30,
        time.perf_counter() - t0,
        300.0,
        f"d=1..3, {len(hits)} multi-indices: worst (d, m) has {worst}/32 seeds "
        f"with final |W_N| <= 0.05",
    )


def test_criterion_07_koksma_desk_scale():
    t0 = time.perf_counter()
    spec = GeneratorSpec.koksma()
    sampler = SeedSampler(401)
    cps = checkpoint_grid(2000)
    table = []
    for _ in range(32):
        seed = sampler.sample(spec.seed_interval())
        values = stream_floats(beta_stream(spec, seed, 2000))
        table.append([star_discrepancy_1d(values[:n]).value for n in cps])
    mat = np.array(table)
    share = float(np.mean(mat[:, -1] <= 0.05))
    medians = np.median(mat, axis=0)
    decreasing = bool(np.all(np.diff(medians) < 0))
    report(
        7,
        share >= 0.9 and decreasing,
        time.perf_counter() - t0,
        600.0,
        f"{share:.0%} of seeds end with D* <= 0.05 (final median "
        f"{medians[-1]:.4f}); median strictly decreasing: {decreasing}",
    )


def test_criterion_08_gamma_baseline():
    t0 = time.perf_counter()
    listed = {(1, 3): 6, (2, 2): 5, (3, 2): 8, (4, 1): 7}
    indices_ok = all(gamma_index(i, j) == v for (i, j), v in listed.items())
    xs = gamma_stream(default_bit_source(1), 64, bits_per_uniform=32)
    mean_gap = abs(float(xs.mean()) - 0.5)
    mean_ok = mean_gap <= 3 / math.sqrt(12 * 64)
    star = star_discrepancy_1d(xs).value
    report(
        8,
        indices_ok and mean_ok and star <= 0.25,
        time.perf_counter() - t0,
        1.0,
        f"index table exact; mean off by {mean_gap:.4f} "
        f"(limit {3 / math.sqrt(12 * 64):.4f}); D*_64 = {star:.4f}",
    )


def test_criterion_09_wcud_refutation():
    t0 = time.perf_counter()
    spec = GeneratorSpec.multiplicative(2)
    cfg = WindowConfig(d=2, h=1)
    runs = [
        wcud_check(spec, cfg, (2, -1), 1000, n_seeds=ns, master_seed=77)
        for ns in (4, 16)
    ]
    refuted = all(r.verdicts["wcud"] == "refuted" for r in runs)
    worst = max(abs(v - 1.0) for r in runs for v in r.s_over_n)
    independent = runs[0].s_over_n == runs[1].s_over_n
    report(
        9,
        refuted and worst <= 1e-12 and independent,
        time.perf_counter() - t0,
        1.0,
        f"refuted at n_seeds=4 and 16; E|S_N|/N = 1 within {worst:.1e}, "
        f"identical across seed counts",
    )


def test_criterion_10_del_criterion_contrast():
    t0 = time.perf_counter()
    good = del_criterion(
        FACTORIAL, WindowConfig(d=1, h=1), (1,), 10_000, n_seeds=256, master_seed=7
    )
    bad = del_criterion(
        GeneratorSpec.multiplicative(2),
        WindowConfig(d=2, h=1),
        (2, -1),
        10_000,
        n_seeds=256,
        master_seed=7,
    )
    good_ratio = good.details["last_decade_ratio"]
    bad_ratio = bad.details["last_decade_ratio"]
    ok = (
        good.verdicts["del_series"] == "convergent-trend"
        and bad.verdicts["del_series"] == "divergent-trend"
        and good_ratio < 0.05
        and bad_ratio > 0.25
    )
    report(
        10,
        ok,
        time.perf_counter() - t0,
        300.0,
        f"factorial last-decade share {good_ratio:.3%}, "
        f"degenerate {bad_ratio:.3%}",
    )
