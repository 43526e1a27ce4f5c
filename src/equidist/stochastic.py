"""Monte-Carlo moments over random seeds and strong-law diagnostics.

With the seed t drawn uniformly from the family interval, each windowed
term Y_k(m; t) = e(m . beta_k(t)) becomes a mean-zero random variable on
the unit circle, and the linear-integer families make pairs (Y_k, Y_l)
exactly uncorrelated whenever the integer frequency sum_i m_i (c_{k+i-1} -
c_{l+i-1}) is nonzero: the expectation of e(F t) over a uniform rational
seed vanishes for every nonzero integer F.  That single fact powers the
exact certificates here; everything else is estimated by averaging over a
reproducible stream of sampled seeds and reported with a standard error.

Every seed-averaged statistic reads one (seed, column) table, in seed draw order,
from one source (`_seed_table`): Y_k for a column (k,) and Y_k conj(Y_l) for a
column (k, l), in one kernel pass over all seeds (`_window_rows`), or |S_n| at the
indices n - 1 of an int array, one pass per seed (`_prefix_rows`).  Terms are summed
from the windows' phase words (`generators._word_table`), with no float crossing.  The
source rejects n_seeds < 2, interleaved_a (d seeds per point) and an m of another
dimension than the windows, and draws all seeds up front.
Each estimate is a column mean with standard error std(ddof=1) / sqrt(n_seeds)
(`_mean_stderr`).  When the exact window sums w_k (`_window_sums`) vanish for every
window (`_zero_frequency`), every Y_k is 1, so |S_n| = n and no seed is drawn.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .arithmetic import DEFAULT_SEED_BITS, RationalSeed, SeedSampler
from .generators import (
    GeneratorSpec,
    PhaseTable,
    WindowConfig,
    _descriptor_at,
    _indices_at,
    _read_windows,
    _word_table,
)
from .weyl import (
    MultiIndex,
    _checkpoints,
    as_multi_index,
    checkpoint_grid,
    unit_terms,
)

DEFAULT_MC_SEEDS = 256


# -- exact frequency certificates ------------------------------------------


def _coefficient(spec: GeneratorSpec, k: int) -> int:
    fam = spec.family
    if fam == "weyl_power":
        return k**spec.power
    if fam == "multiplicative":
        return spec.base**k
    if fam == "factorial":
        return math.factorial(k)
    if fam == "self_power":
        return k**k
    if fam == "linear_integer":
        return _descriptor_at(spec.coefficients, k)
    raise ValueError(f"{fam} has no integer coefficient sequence")


def exact_frequency(spec: GeneratorSpec, k: int, l: int, m) -> int:
    """Integer frequency of Y_k conj(Y_l) in t, exact.

    Zero frequency means the pair moment is identically 1 over the seed;
    any nonzero value certifies exact decorrelation, E Y_k conj(Y_l) = 0.
    Windows are consecutive (h = 1, o = 0) and read the generator indices
    a spec's permutation puts at their stream positions.
    """
    if not spec.exact:
        raise ValueError("exact frequencies exist for integer-linear families only")
    m = as_multi_index(m)
    w = _window_sums(spec, WindowConfig(d=m.d), m, (k, l))
    return w[k] - w[l]


def _window_sums(spec: GeneratorSpec, cfg: WindowConfig, m: MultiIndex, ks) -> dict[int, int]:
    """w_k = sum_i m_i c_a over the generator indices a that window k reads.

    The frequency of the pair (k, l) is w_k - w_l.  Each coefficient is
    computed once, however many of the windows read its stream position.
    """
    def read(spec, _seed, at):  # Python ints, so no product overflows
        indices = _indices_at(spec, at)
        coefficients = {a: _coefficient(spec, a) for a in set(indices)}
        return np.array([coefficients[a] for a in indices], dtype=object)

    ks = list(ks)
    windows = zip(*_read_windows(read, spec, None, cfg, ks))
    return {k: sum(c * a for c, a in zip(m.components, w)) for k, w in zip(ks, windows)}


@dataclass(frozen=True)
class LagScan:
    """Result of scanning lags for vanishing frequencies."""

    c: int
    conclusive: bool
    zero_pairs: tuple[tuple[int, int], ...]
    max_lag: int
    probe: int


def c_of_m_scan(spec: GeneratorSpec, m, max_lag: int = 48, probe: int | None = None) -> LagScan:
    """Smallest lag bound beyond which no tested frequency vanishes.

    Scans every pair (l + g, l) with lag g <= max_lag and l + g <= probe.
    `c` is the largest lag carrying a zero frequency (0 when none do);
    the scan is conclusive when that largest lag sits strictly inside the
    scanned range, so larger untested lags had a full probe of evidence.
    """
    m = as_multi_index(m)
    if probe is None:
        probe = 2 * max_lag
    if probe < max_lag + 1:
        raise ValueError("probe must exceed max_lag")
    w = _window_sums(spec, WindowConfig(d=m.d), m, range(1, probe + 1))
    zero_pairs = []
    worst = 0
    for g in range(1, max_lag + 1):
        for l in range(1, probe - g + 1):
            if w[l + g] == w[l]:
                zero_pairs.append((l + g, l))
                worst = g
    return LagScan(
        c=worst,
        conclusive=worst < max_lag,
        zero_pairs=tuple(zero_pairs),
        max_lag=max_lag,
        probe=probe,
    )


# -- the seed-averaging engine -------------------------------------------------


def _window_rows(spec, cfg, m, columns, seeds) -> np.ndarray:
    """The (seed, column) table of Y_k for each (k,) column and Y_k conj(Y_l) for each (k, l).

    Each seed's windows are read on their own, then one kernel pass runs over all seeds'
    words.  A pair takes the bits of the scalar a * conj(b) from real parts: numpy's
    vectorised complex multiply may fuse them (FMA) and round differently.
    """
    ks = sorted({k for column in columns for k in column})
    words = zip(*(_word_table(spec, seed, cfg, ks) for seed in seeds))
    y = unit_terms(PhaseTable(map(np.concatenate, words)), m).reshape(len(seeds), len(ks))
    at = {k: i for i, k in enumerate(ks)}
    a, b = (y.take([at[c[i]] for c in columns], axis=1) for i in (0, -1))  # C order, as stacked
    pair = np.empty_like(a)
    pair.real, pair.imag = a.real * b.real + a.imag * b.imag, a.imag * b.real - a.real * b.imag
    return np.where([len(c) == 2 for c in columns], pair, a)


def _prefix_rows(spec, cfg, m, at, seeds) -> np.ndarray:
    """Each seed's |S_n| at the increasing n whose indices n - 1 the int array `at` holds,
    one kernel pass per seed: a pass already spans n terms."""
    rows = np.empty((len(seeds), len(at)))
    for row, seed in zip(rows, seeds):
        table = _word_table(spec, seed, cfg, int(at[-1]) + 1)
        np.abs(np.cumsum(unit_terms(table, m))[at], out=row)
    return rows


@functools.lru_cache(maxsize=16)
def _zero_frequency(spec: GeneratorSpec, m: MultiIndex) -> bool:
    """Whether the window sum w_k (`_window_sums`) is 0 for every window k, any h and o.

    Window k reads c_{s+1} .. c_{s+d}, s + 1 its first position
    (`WindowConfig.positions`).  A multiplicative sum is M^s times the one at
    s = 0, and a weyl_power p sum is a polynomial of degree <= p in s, so sums
    that vanish at s = 0 .. p (windows 1 .. p + 1 at h = 1, o = 0) vanish at
    every s.  Other families, and any permuted stream, are not certified.  Memoized on (spec, m).
    """
    if spec.permutation is not None or spec.family not in ("multiplicative", "weyl_power"):
        return False
    count = 1 if spec.family == "multiplicative" else spec.power + 1
    return not any(_window_sums(spec, WindowConfig(d=m.d), m, range(1, count + 1)).values())


def _require_inputs(cfg: WindowConfig, m: MultiIndex, n_seeds, master_seed, bit_width) -> None:
    """Every seed-averaged statistic's checks, seeds drawn or not (a draw's own included)."""
    if cfg.construction != "sliding_bc":
        raise ValueError(
            "seed-averaged statistics window one seed's stream (sliding_bc); "
            "interleaved_a takes d seeds per point"
        )
    if m.d != cfg.d:
        raise ValueError(f"multi-index {m} has d = {m.d}, but the windows have d = {cfg.d}")
    if n_seeds < 2:
        raise ValueError("n_seeds must be at least 2 for a standard error")
    SeedSampler(master_seed, bit_width)


@functools.lru_cache(maxsize=16)
def _draw_seeds(interval, n_seeds: int, master_seed: int, bit_width: int) -> tuple[RationalSeed, ...]:
    """The first n_seeds draws of SeedSampler(master_seed, bit_width) in `interval`, a
    tuple: the one way to take several seeds, memoized, so statistics on one master seed
    share one draw and a repeated call returns the same tuple."""
    sampler = SeedSampler(master_seed, bit_width)
    return tuple(sampler.sample(interval) for _ in range(n_seeds))


def _seed_table(spec, cfg, m, columns, n_seeds, master_seed, bit_width) -> np.ndarray:
    """The table of `columns` over the drawn seeds: a list of (k,) and (k, l) columns
    (`_window_rows`), or an int array of indices n - 1 for |S_n| (`_prefix_rows`).

    |S_n| of a zero-frequency m is exact: every phase word sum lies within ||m||_1
    units of a multiple of 2^64, so each term has real part exactly 1.0 and every
    row is the float n itself, a read-only broadcast of one row with no seed drawn.
    """
    _require_inputs(cfg, m, n_seeds, master_seed, bit_width)
    prefix = isinstance(columns, np.ndarray)
    if prefix and _zero_frequency(spec, m):
        return np.broadcast_to(columns + 1.0, (n_seeds, len(columns)))
    seeds = _draw_seeds(spec.seed_interval(), n_seeds, master_seed, bit_width)
    return (_prefix_rows if prefix else _window_rows)(spec, cfg, m, columns, seeds)


def _mean_stderr(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means of a (seed, column) table and their std(ddof=1)/sqrt(n).

    A complex column's stderr is the total sqrt((Var re + Var im) / n).
    """
    return table.mean(axis=0), table.std(axis=0, ddof=1) / math.sqrt(len(table))


# -- Monte-Carlo moments -----------------------------------------------------


@dataclass(frozen=True)
class MomentTarget:
    """What to average: one of term_mean (E Y_k), pair_moment
    (E Y_k conj Y_l), abs_sum_mean (E |S_n|), abs_sum_sq_mean (E |S_n|^2)."""

    kind: str
    k: int | None = None
    l: int | None = None
    n: int | None = None

    def __post_init__(self):
        needs = {"term_mean": "k", "pair_moment": "kl", "abs_sum_mean": "n", "abs_sum_sq_mean": "n"}
        if self.kind not in needs:
            raise ValueError(f"target kind must be one of {tuple(needs)}")
        for name in "kln":
            v = getattr(self, name)
            if v is not None or name in needs[self.kind]:
                if not isinstance(v, numbers.Integral) or isinstance(v, bool) or v < 1:
                    raise ValueError(f"{self.kind} takes {name} as a positive int, got {v!r}")
                object.__setattr__(self, name, int(v))


@dataclass(frozen=True)
class MomentEstimate:
    target: MomentTarget
    value: complex | float
    stderr: float
    n_seeds: int


def mc_moment(
    spec: GeneratorSpec,
    cfg: WindowConfig,
    m,
    target: MomentTarget,
    n_seeds: int = DEFAULT_MC_SEEDS,
    master_seed: int = 0,
    bit_width: int = DEFAULT_SEED_BITS,
) -> MomentEstimate:
    """Monte-Carlo estimate of a seed-averaged moment with its stderr.

    Complex targets report the total standard error sqrt(Var_total / n)
    with Var_total summing both components, so |estimate| <= a few stderr
    is the natural consistency check against a zero mean.  The abs_sum
    targets of a zero-frequency m are exact (n and n^2, stderr 0): no seed
    is drawn, and n_seeds, master_seed and bit_width are only validated.
    """
    m = as_multi_index(m)
    if target.kind == "term_mean":
        columns = [(target.k,)]
    elif target.kind == "pair_moment":
        columns = [(target.k, target.l)]
    else:
        columns = np.array([target.n - 1])
    table = _seed_table(spec, cfg, m, columns, n_seeds, master_seed, bit_width)
    if target.kind == "abs_sum_sq_mean":
        table = table**2
    mean, stderr = _mean_stderr(table)
    return MomentEstimate(target, mean[0].item(), float(stderr[0]), n_seeds)


# -- strong-law diagnostics --------------------------------------------------


@dataclass(frozen=True)
class SllnDiagnostics:
    """Checkpointed evidence for or against averaging behavior."""

    checkpoints: tuple[int, ...]
    s_over_n: tuple[float, ...] | None
    s_over_n_stderr: tuple[float, ...] | None
    del_partial_sums: tuple[float, ...] | None
    verdicts: dict
    details: dict = field(default_factory=dict)


def del_criterion(
    spec: GeneratorSpec,
    cfg: WindowConfig,
    m,
    n_max: int,
    n_seeds: int = DEFAULT_MC_SEEDS,
    master_seed: int = 0,
    bit_width: int = DEFAULT_SEED_BITS,
) -> SllnDiagnostics:
    """Partial sums of (1/n) E(|S_n|/n)^2 along the checkpoint grid.

    A convergent series certifies the strong law along the full sequence;
    unchecked growth is evidence against it.  E|S_n|^2 is estimated at
    every n in one cumulative pass per seed, and the series is accumulated
    exactly from the first checkpoint onward (grid-anchored), so no
    interpolation enters.  The trend verdict compares the last decade's
    share of the total: under 5 percent reads as flattening, over 25
    percent as growth.  A companion log-log fit of E(|S_n|/n)^2 against n
    lands in the details: exponent near 1 is the orthogonal-family rate,
    near 0 the degenerate one.  Both need two checkpoints, so n_max below
    the second one (27) raises ValueError.  A zero-frequency m has |S_n| = n,
    a harmonic series, divergent-trend by proof with no seed drawn:
    n_seeds, master_seed and bit_width are only validated.
    """
    m = as_multi_index(m)
    cps = checkpoint_grid(n_max)
    if len(cps) < 2:
        raise ValueError(f"n_max={n_max} gives one checkpoint; del_criterion needs two")
    at_cps = np.array(cps) - 1
    table = _seed_table(spec, cfg, m, np.arange(n_max), n_seeds, master_seed, bit_width)
    # E|S_n|^2 for n = 1..n_max, row by row: squaring the table would copy it
    est_sq = np.zeros(n_max)
    for row in table:
        est_sq += row**2
    est_sq /= n_seeds
    n0 = cps[0]
    ns = np.arange(n0, n_max + 1, dtype=float)
    partial = np.cumsum(est_sq[n0 - 1 :] / ns**3)
    del_at_cps = tuple(float(partial[c - n0]) for c in cps)
    decade_start = max(n0, n_max // 10)
    ratio = float((partial[-1] - partial[decade_start - n0]) / partial[-1])
    if ratio > 0.25 or _zero_frequency(spec, m):  # |S_n| = n: the harmonic series, by proof
        verdict = "divergent-trend"
    elif ratio < 0.05:
        verdict = "convergent-trend"
    else:
        verdict = "inconclusive"
    cp_arr = np.array(cps, dtype=float)
    # C order: a fancy index is F-ordered, and F-ordered column means differ in the last bit
    mean_abs, stderr = _mean_stderr(np.ascontiguousarray(table[:, at_cps]))
    slope, _ = np.polyfit(np.log(cp_arr), np.log(est_sq[at_cps] / cp_arr**2), 1)
    return SllnDiagnostics(
        checkpoints=tuple(cps),
        s_over_n=tuple(float(v) for v in mean_abs / cp_arr),
        s_over_n_stderr=tuple(float(v) for v in stderr / cp_arr),
        del_partial_sums=del_at_cps,
        verdicts={"del_series": verdict},
        details={
            "last_decade_ratio": ratio,
            "n_seeds": n_seeds,
            "sq_decay_alpha": float(-slope),
        },
    )


def wcud_check(
    spec: GeneratorSpec,
    cfg: WindowConfig,
    m,
    checkpoints,
    n_seeds: int = DEFAULT_MC_SEEDS,
    master_seed: int = 0,
    bit_width: int = DEFAULT_SEED_BITS,
) -> SllnDiagnostics:
    """Trend test of E|S_N|/N, the averaged Weyl criterion.

    `checkpoints` is either N_max (the default grid is used) or an explicit
    list, validated by `weyl._checkpoints`: ints (numpy integers too; a
    float raises TypeError), positive and strictly increasing.  Verdict
    "consistent": the trajectory decreases within noise and ends below
    max(0.1, 5 * stderr).  Verdict "refuted": the final value stays above
    that threshold by more than 5 stderr, so the mean is bounded away from
    zero beyond Monte-Carlo error.  Anything else is "inconclusive".  For a
    zero-frequency m, |S_N|/N = 1 exactly and no seed is drawn: n_seeds,
    master_seed and bit_width are only validated.
    """
    m = as_multi_index(m)
    if isinstance(checkpoints, numbers.Integral):
        cps = checkpoint_grid(checkpoints)
    else:
        cps = _checkpoints(checkpoints)
    table = _seed_table(spec, cfg, m, np.array(cps) - 1, n_seeds, master_seed, bit_width)
    mean, stderr = _mean_stderr(table / np.array(cps, dtype=float))
    decreasing = all(
        mean[i + 1] <= mean[i] + 3.0 * (stderr[i] + stderr[i + 1])
        for i in range(len(cps) - 1)
    )
    threshold = max(0.1, 5.0 * float(stderr[-1]))
    final = float(mean[-1])
    if final <= threshold and decreasing:
        verdict = "consistent"
    elif final - 5.0 * float(stderr[-1]) > 0.1:
        verdict = "refuted"
    else:
        verdict = "inconclusive"
    return SllnDiagnostics(
        checkpoints=tuple(cps),
        s_over_n=tuple(float(v) for v in mean),
        s_over_n_stderr=tuple(float(v) for v in stderr),
        del_partial_sums=None,
        verdicts={"wcud": verdict},
        details={"final": final, "threshold": threshold, "n_seeds": n_seeds},
    )


# -- covariance decay ---------------------------------------------------------


@dataclass(frozen=True)
class DecayFit:
    """Log-log fit of symmetrized pair moments against the lag."""

    delta_hat: float | None
    c_hat: float | None
    fit_quality: float | None
    inconclusive: bool
    lags: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    estimates: tuple[float, ...]
    stderrs: tuple[float, ...]


def lemma2_decay_fit(
    spec: GeneratorSpec,
    cfg: WindowConfig,
    m,
    lags,
    n_seeds: int = DEFAULT_MC_SEEDS,
    master_seed: int = 0,
    pair_sum: int | None = None,
    bit_width: int = DEFAULT_SEED_BITS,
) -> DecayFit:
    """Estimate the power-law exponent of E(Y_k conj Y_l + conj) in |k - l|.

    Pairs share a fixed k + l (up to parity) so only the lag varies.  Lags
    whose estimate drowns in Monte-Carlo noise (|mean| <= 3 stderr) are
    dropped; with fewer than two usable lags the fit is inconclusive.
    """
    m = as_multi_index(m)
    lags = sorted(set(map(operator.index, lags)))
    if not lags or lags[0] < 1:
        raise ValueError("lags must be positive")
    if pair_sum is None:
        pair_sum = 2 * max(lags)
    pairs = []
    for g in lags:
        k = (pair_sum + g + ((pair_sum + g) & 1)) // 2
        pairs.append((k, k - g))
    if any(l < 1 for _, l in pairs):
        raise ValueError(f"pair_sum {pair_sum} too small for the largest lag")
    table = _seed_table(spec, cfg, m, pairs, n_seeds, master_seed, bit_width)
    # symmetrized: Y_k conj(Y_l) + its conjugate
    mean, stderr = _mean_stderr(2.0 * table.real)
    usable = [i for i in range(len(lags)) if abs(mean[i]) > 3.0 * stderr[i]]
    result = dict(
        lags=tuple(lags),
        pairs=tuple(pairs),
        estimates=tuple(float(v) for v in mean),
        stderrs=tuple(float(v) for v in stderr),
    )
    if len(usable) < 2:
        return DecayFit(None, None, None, True, **result)
    xs = np.log([lags[i] for i in usable])
    ys = np.log([abs(mean[i]) for i in usable])
    slope, intercept = np.polyfit(xs, ys, 1)
    fitted = slope * xs + intercept
    ss_res = float(np.sum((ys - fitted) ** 2))
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    quality = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return DecayFit(
        float(-slope), float(math.exp(intercept)), quality, False, **result
    )


@dataclass(frozen=True)
class FarPairCheck:
    """Far-pair covariance audit feeding the N + N^{3/2} + N^2/log^2 N budget."""

    n: int
    pairs: tuple[tuple[int, int], ...]
    estimates: tuple[float, ...]
    stderrs: tuple[float, ...]
    empirical_max: float
    c_hat: float
    implied_budget: float
    verdict: str
    exact: bool


def lemma3_check(
    spec: GeneratorSpec,
    cfg: WindowConfig,
    m,
    n: int,
    n_seeds: int = DEFAULT_MC_SEEDS,
    master_seed: int = 0,
    n_pairs: int = 64,
    bit_width: int = DEFAULT_SEED_BITS,
) -> FarPairCheck:
    """Audit pair moments with min(l, k - l) >= sqrt(n).

    Integer-linear families are audited exactly through their frequencies
    at the generator indices each window reads (moment 2 when the frequency
    vanishes, 0 otherwise), with no seed drawn: n_seeds, master_seed and
    bit_width are only validated.  The power family is estimated by Monte Carlo.
    "pass" means every far pair is zero or statistically consistent with
    zero at 4 stderr; a pair bounded away from zero beyond that (margin
    above 0.25) fails the decay hypothesis.
    """
    m = as_multi_index(m)
    _require_inputs(cfg, m, n_seeds, master_seed, bit_width)
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be positive, got {n_pairs}")
    gap = math.isqrt(n - 1) + 1
    if 2 * gap > n:
        raise ValueError(f"n={n} too small for far pairs (needs n >= {2 * gap})")
    rng = random.Random(master_seed)
    pairs = []
    for _ in range(n_pairs):
        l = rng.randint(gap, n - gap)
        k = rng.randint(l + gap, n)
        pairs.append((k, l))
    pairs = sorted(set(pairs))
    if spec.exact:
        w = _window_sums(spec, cfg, m, {k for pair in pairs for k in pair})
        mean = np.array([2.0 if w[k] == w[l] else 0.0 for k, l in pairs])
        stderr = np.zeros_like(mean)
    else:
        table = _seed_table(spec, cfg, m, pairs, n_seeds, master_seed, bit_width)
        mean, stderr = _mean_stderr(2.0 * table.real)
    abs_mean = np.abs(mean)
    worst = int(np.argmax(abs_mean))
    empirical_max = float(abs_mean[worst])
    c_hat = empirical_max * math.log(n) ** 2
    implied = n + n**1.5 + c_hat * n**2 / math.log(n) ** 2
    excess = abs_mean - 4.0 * stderr
    if float(np.max(excess)) <= 0.0 or (spec.exact and empirical_max == 0.0):
        verdict = "pass"
    elif float(np.max(excess)) > 0.25:
        verdict = "fail"
    else:
        verdict = "inconclusive"
    return FarPairCheck(
        n=n,
        pairs=tuple(pairs),
        estimates=tuple(float(v) for v in mean),
        stderrs=tuple(float(v) for v in stderr),
        empirical_max=empirical_max,
        c_hat=c_hat,
        implied_budget=float(implied),
        verdict=verdict,
        exact=spec.exact,
    )


# -- i.i.d. uniform baseline ---------------------------------------------------


def gamma_index(i: int, j: int) -> int:
    """Source-bit index feeding binary digit j of uniform i.

    Antidiagonal i + j - 1 = n of the (i, j) grid maps onto the block
    (T_{n-1}, T_n] of triangular numbers, so every source bit is used
    exactly once and each uniform consumes an infinite disjoint subset.
    """
    if i < 1 or j < 1:
        raise ValueError("indices start at 1")
    n = i + j - 1
    return n * (n + 1) // 2 - (i - 1)


class SeedBitSource:
    """Binary expansion of an exact rational in (0, 1).

    The expansion of p/q (q an odd prime) is periodic with period ord_q(2),
    which can be far below q - 1.  The source checks only `max_bits`, not
    the period: a caller reading ord_q(2) or more bits gets repeats, which
    `cmd_gamma` refuses by finding any such period (`order_at_most`).
    """

    def __init__(self, seed: RationalSeed, max_bits: int = 10_000_000):
        if not Fraction(0) < seed.value < Fraction(1):
            raise ValueError("bit source needs a seed in (0, 1)")
        self.seed = seed
        self.max_bits = max_bits

    def bits(self, count: int) -> np.ndarray:
        if count > self.max_bits:
            raise ValueError(f"refusing {count} bits (cap {self.max_bits})")
        if count < 1:
            return np.zeros(0, dtype=np.uint8)
        # the first `count` binary digits of p/q < 1, as one integer below 2^count
        digits = (self.seed.numerator << count) // self.seed.denominator
        nbytes = (count + 7) // 8
        packed = np.frombuffer(digits.to_bytes(nbytes, "big"), dtype=np.uint8)
        return np.unpackbits(packed)[8 * nbytes - count :]


def default_bit_source(master_seed: int, bit_width: int = DEFAULT_SEED_BITS) -> SeedBitSource:
    (seed,) = _draw_seeds((Fraction(0), Fraction(1)), 1, master_seed, bit_width)
    return SeedBitSource(seed)


@dataclass(frozen=True)
class GammaStream:
    """Triangular redistribution of one bit stream into i.i.d. uniforms."""

    bit_source: object
    bits_per_uniform: int = 32

    def __post_init__(self):
        if self.bits_per_uniform < 1:
            raise ValueError("bits_per_uniform must be positive")

    def _index_grid(self, count: int) -> np.ndarray:
        """gamma_index(i, j) over i <= count, j <= bits_per_uniform, in its closed form."""
        i, j = np.ogrid[1 : count + 1, 1 : self.bits_per_uniform + 1]
        return (i + j - 1) * (i + j) // 2 - (i - 1)

    def index_table(self, count: int) -> list[list[int]]:
        return self._index_grid(count).tolist()

    def uniforms(self, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError("count must be nonnegative")
        if count == 0:
            return np.zeros(0)
        needed = gamma_index(count, self.bits_per_uniform)
        bits = np.asarray(self.bit_source.bits(needed), dtype=np.uint8)  # an array or a list
        table = self._index_grid(count) - 1
        # digit by digit over all uniforms at once: every uniform sees the
        # same sequence of float additions as a per-uniform loop would
        out = np.zeros(count)
        for j in range(self.bits_per_uniform):
            out += bits[table[:, j]] * 0.5 ** (j + 1)
        return out


def gamma_stream(bit_source, count: int, bits_per_uniform: int = 32) -> np.ndarray:
    """First `count` uniforms of the triangular redistribution."""
    return GammaStream(bit_source, bits_per_uniform).uniforms(count)
