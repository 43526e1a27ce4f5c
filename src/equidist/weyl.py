"""Exponential-sum diagnostics: W_N(m) = (1/N) sum_k e(m . beta_k).

Equidistribution of a sequence in [0,1)^d is equivalent to W_N(m) -> 0
for every nonzero integer multi-index m, so the per-m trajectories over a
growing checkpoint grid are the package's primary evidence object.  A
trajectory pinned at magnitude 1 certifies the opposite: the phases
m . beta_k are constant, and m is a degenerate direction for the family.

Numerical contract.  A phase is a uint64 u standing for u / 2^64 mod 1, and
e(phase) has one kernel (`_unit_circle`).  Each coordinate x has one phase word
floor(2^64 frac(x)), less than a unit of 2^-64 below it: exact samples (UnitSample,
rationals, what `criterion_scan` and the Monte-Carlo engine read) from their ratio
in integers, float rows as floor(x 2^64).  `_unit_words` defines the exact words,
w = floor(2^64 r / q) for r / q in [0, 1), and is the tests' oracle for the fast
path `_words_at` takes for the samples of a seed with an odd q: there
r 2^64 = w q + R with 0 <= R < q, so w q = -R (mod 2^64) and w = -R q^-1 mod 2^64,
exactly, as 0 <= w < 2^64; the walk gives R directly with the multiplier 2^64 p mod q.
koksma's mantissas over 2^64 are their own words.  The phase of m . x_k,
the wraparound sum of m_j times the words, is thus within ||m||_1 units of the exact
one, in [-sum_{m_j > 0} m_j, sum_{m_j < 0} |m_j|]: an identity M x_k = x_{k+1} gives
phases within M units of 0, e() with a real part of exactly 1.0, and |W_N| = 1.
e() is within 2.3e-16 per part (2.2e-16 measured against a 200-bit reference,
where cos/sin of a rounded float phase were off by up to 1.0e-15).  Sums run over
segments (between checkpoints, at most 2^13 terms) combined by Neumaier accumulation;
`weyl_sum` sums a segment pairwise.  `criterion_scan` forms terms from factors
e(m_j x_kj), within d 2.3e-16 + (d - 1) 2^-52 per part.  A one-factor m sums its factor
row pairwise, bit for bit the word path; any other m's segment sums come from a matrix
product in the BLAS library's order (it may vary with its build and thread count), each
part of n terms within 2n 2^-53 per unit of term magnitude, so W_N moves by at most
2^-39 per part (2.2e-16 measured against per-m pairwise sums on the benchmark's scans).
Any m with |W_N| >= 1 - 1e-9 is summed again from its words: degenerate series stay
bit-exact and flagged sets move only within that error of the threshold.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import StreamLengthError
from .generators import (
    GeneratorSpec,
    UnitSample,
    WindowConfig,
    _indices_at,
    _ratios_at,
    _read_windows,
    _samples_at,
    _scalars_at,
)

CHECKPOINT_RATIO = 1.5
CHECKPOINT_FIRST_EXPONENT = 8
MAGNITUDE_SLACK = 1e-12


def checkpoint_grid(n_max: int) -> list[int]:
    """Grid {ceil(CHECKPOINT_RATIO^j) : j >= CHECKPOINT_FIRST_EXPONENT}, closed at n_max."""
    if (n_max := operator.index(n_max)) < 1:  # a numpy integer too, and the grid holds ints
        raise ValueError("n_max must be at least 1")
    grid, j = {n_max}, CHECKPOINT_FIRST_EXPONENT
    while (n := math.ceil(CHECKPOINT_RATIO**j)) <= n_max:
        grid.add(n)
        j += 1
    return sorted(grid)


@dataclass(frozen=True)
class MultiIndex:
    """Nonzero integer frequency vector m with weight r(m) = prod max(1,|m_i|)."""

    components: tuple[int, ...]

    def __post_init__(self):
        comps = tuple(int(c) for c in self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("multi-index needs at least one component")
        if all(c == 0 for c in comps):
            raise ValueError("multi-index must be nonzero")

    @property
    def d(self) -> int:
        return len(self.components)

    @property
    def weight(self) -> int:
        return math.prod(max(1, abs(c)) for c in self.components)

    @property
    def canonical(self) -> bool:
        return next((c > 0 for c in self.components if c), False)

    def __neg__(self) -> "MultiIndex":
        return MultiIndex(tuple(-c for c in self.components))

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.components) + ")"


def as_multi_index(m) -> MultiIndex:
    return m if isinstance(m, MultiIndex) else MultiIndex(tuple(m))


def _lattice(d: int, radius: int):
    if d < 1 or radius < 1:
        raise ValueError("d and radius must be positive")
    return itertools.product(range(-radius, radius + 1), repeat=d)


def multi_indices(d: int, radius: int) -> list[MultiIndex]:
    """All nonzero m with sup-norm at most radius, lexicographic order."""
    return [MultiIndex(comps) for comps in _lattice(d, radius) if any(comps)]


def canonical_half(d: int, radius: int) -> list[MultiIndex]:
    """One m per {m, -m} pair, the first nonzero component positive: m above zero."""
    zero = (0,) * d
    return [MultiIndex(comps) for comps in _lattice(d, radius) if comps > zero]


@dataclass(frozen=True)
class WeylSeries:
    """W_N(m) along a checkpoint grid."""

    m: MultiIndex
    checkpoints: tuple[int, ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        if len(self.checkpoints) != len(self.values):
            raise ValueError("checkpoints and values must align")
        worst = max((abs(v) for v in self.values), default=0.0)
        if worst > 1 + MAGNITUDE_SLACK:
            raise ValueError(f"|W_N| = {worst} exceeds 1 beyond rounding slack")

    @property
    def magnitudes(self) -> list[float]:
        return [abs(v) for v in self.values]

    @property
    def final_magnitude(self) -> float:
        return abs(self.values[-1])

    def conjugate(self) -> "WeylSeries":
        """W_N(-m), built without the check: |conj v| equals |v| exactly."""
        out = object.__new__(WeylSeries)
        values = tuple(v.conjugate() for v in self.values)
        out.__dict__.update(m=-self.m, checkpoints=self.checkpoints, values=values)
        return out


def _running_sums(parts: np.ndarray) -> np.ndarray:
    """Running total + compensation down each column of a float (S, C) array, by Neumaier."""
    total, comp, out = np.zeros(parts.shape[1]), np.zeros(parts.shape[1]), np.empty_like(parts)
    for i, x in enumerate(parts):
        t = total + x
        comp += np.where(np.abs(total) >= np.abs(x), (total - t) + x, (x - t) + total)
        out[i], total = t + comp, t
    return out


def _checkpoints(checkpoints) -> tuple[int, ...]:
    """A checkpoint list as ints, each entry taken by `operator.index` (a numpy integer
    passes, a float raises TypeError), nonempty, positive and strictly increasing."""
    cps = tuple(map(operator.index, checkpoints))
    if not cps or cps[0] < 1 or any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be nonempty, strictly increasing and positive")
    return cps


# -- the phase kernel: uint64 phases u, read as u / 2^64 mod 1 ----------------

_CHUNK = 1 << 13  # terms per kernel pass, so its temporaries stay small
_SPLIT, _HALF = np.uint64(48), np.uint64(1 << 47)  # 2^16 table points, 2^48 units apart
_MAGIC, _MAGIC_BITS = 1.5 * 2**52, np.uint64(0x4338000000000000)  # float _MAGIC + s = bits + s


@functools.cache
def _circle_table() -> np.ndarray:
    """e(i / 2^16) from math.cos/sin on the first octant and exact symmetries."""
    n, q, k = 1 << 16, 1 << 14, 1 << 13
    out = np.empty(n, dtype=complex)
    angles = (np.arange(k + 1) * (2 * math.pi / n)).tolist()
    out.real[: k + 1], out.imag[: k + 1] = list(map(math.cos, angles)), list(map(math.sin, angles))
    out.real[k + 1 : q], out.imag[k + 1 : q] = out.imag[k - 1 : 0 : -1], out.real[k - 1 : 0 : -1]
    out.real[q : 2 * q], out.imag[q : 2 * q] = -out.imag[:q], out.real[:q]
    out[2 * q :] = -out[: 2 * q]
    return out


def _unit_circle(u: np.ndarray) -> np.ndarray:
    """e(u / 2^64) for uint64 phases u, each part within 2.3e-16: u = i 2^48 + s,
    |s| <= 2^47, splits at the nearest table point T_i, and e = T_i (1 + c + i s')
    with theta = 2 pi s / 2^64, c = -theta^2 / 2 and s' = theta (1 - theta^2 / 6),
    cos theta - 1 and sin theta to 3e-19.  Phase 0 gives 1 + 0j, and one within
    2^-30 of an integer a real part of exactly 1.0."""
    i = (u + _HALF) >> _SPLIT
    theta = ((u - (i << _SPLIT) + _MAGIC_BITS).view(np.float64) - _MAGIC) * (2 * math.pi / 2**64)
    t2, z = theta * theta, _circle_table().take(i.view(np.intp))
    w = np.empty(len(u), dtype=complex)
    w.real, w.imag = t2 * -0.5, theta * (1.0 - t2 / 6.0)
    w *= z
    w += z
    return w


def _term_chunks(columns: list, n: int):
    """(start, e(u_k / 2^64) of the chunk) for k < n, u_k = sum c w[k] mod 2^64 over `columns`."""
    for a in range(0, n, _CHUNK):
        u = np.zeros(min(_CHUNK, n - a), dtype=np.uint64)
        for c, w in columns:
            (np.add if c > 0 else np.subtract)(u, w[a : a + len(u)] * np.uint64(abs(c)), out=u)
        yield a, _unit_circle(u)


def _unit_words(nums, dens) -> np.ndarray:
    """The phase words floor(2^64 frac(n / q)) of the ratios n / q, n any integer: the
    definition, read by `_phase_columns` (mixed denominators) and by `_words_at` for an
    even q but 2^64; `_words_at`'s division-free words are tested against it bit for bit."""
    return np.fromiter(((n % q << 64) // q for n, q in zip(nums, dens)), dtype=np.uint64)


_WORD_MASK = (1 << 64) - 1


def _neg_inverse(q: int) -> int:
    """-q^-1 mod 2^64 for an odd q, by Newton's steps x <- x (2 - q x) on q's low word:
    x = q is q^-1 to 3 bits (q^2 = 1 mod 8) and each step doubles that, to 96 in 5."""
    q &= _WORD_MASK
    x = q
    for _ in range(5):
        x = x * (2 - q * x) & _WORD_MASK
    return -x & _WORD_MASK


class PhaseTable(tuple):
    """Phase words of points: self[j][k] = floor(2^64 frac(x_kj))."""


def _phase_columns(points, m: MultiIndex) -> tuple[list, int]:
    """The (weight, words) pairs `_term_chunks` sums for m, and the point count, of a
    `PhaseTable`, a float (N, d) array in [0, 1), or a list of points read through each
    coordinate's exact ratio (`UnitSample.ratio`, or a number's, floats too)."""
    if isinstance(points, np.ndarray):
        if points.ndim != 2 or points.shape[1] != m.d:
            raise ValueError("expected a (N, d) float array")
        if points.size and not (points.min() >= 0.0 and points.max() < 1.0):
            raise ValueError("float points must lie in [0, 1)")
        points = PhaseTable(np.ldexp(points, 64).astype(np.uint64).T)
    elif not isinstance(points, PhaseTable):
        points = list(points)
        if any(len(vec) != m.d for vec in points):
            raise ValueError("point dimension does not match multi-index")
        ratios = [s.ratio if isinstance(s, UnitSample) else Fraction(s).as_integer_ratio()
                  for vec in points for s in vec]
        words = _unit_words([n for n, _ in ratios], [q for _, q in ratios])
        points = PhaseTable(words.reshape(-1, m.d).T)
    if m.d != len(points):
        raise ValueError(f"m = {m} does not match the table's dimension {len(points)}")
    return [(c, w) for c, w in zip(m.components, points) if c], len(points[0])


def unit_terms(points, m) -> np.ndarray:
    """e(m . x_k) for every point (see `_phase_columns`)."""
    columns, n = _phase_columns(points, as_multi_index(m))
    return np.concatenate([np.empty(0, complex)] + [t for _, t in _term_chunks(columns, n)])


def _segments(a: int, n: int, cps) -> list[tuple[int, slice]]:
    """(end, slice into the chunk) of each run of chunk terms a..a + n - 1 cut at `cps`."""
    cuts = [a, *(c for c in cps if a < c < a + n), a + n]
    return [(hi, slice(lo - a, hi - a)) for lo, hi in zip(cuts, cuts[1:])]


def _checkpoint_values(ends: list, sums: np.ndarray, cps: tuple) -> np.ndarray:
    """W_N at the checkpoints per column of `sums`, the in-order segment sums ending at `ends`."""
    at = [i for i, e in enumerate(ends) if e in cps]
    running = _running_sums(np.ascontiguousarray(sums, dtype=complex).view(np.float64))
    return (running[at] / np.array(ends)[at, None]).view(complex)


def weyl_sum(points, m, checkpoints=None) -> WeylSeries:
    """W_N(m) at the checkpoints (`_checkpoints`; N alone by default, one beyond N raises
    StreamLengthError) for a phase table, float rows or exact points; a non-canonical m
    is computed on -m and conjugated, so W_N(-m) == conj(W_N(m))."""
    m = as_multi_index(m)
    if not m.canonical:
        return weyl_sum(points, -m, checkpoints).conjugate()
    columns, n = _phase_columns(points, m)
    cps = (n,) if checkpoints is None else _checkpoints(checkpoints)
    if cps[-1] > n:
        raise StreamLengthError(f"checkpoint {cps[-1]} beyond {n} points")
    ends, sums = zip(*((e, np.sum(t[s])) for a, t in _term_chunks(columns, cps[-1])
                       for e, s in _segments(a, len(t), cps)))
    values = _checkpoint_values(ends, np.array(sums)[:, None], cps)
    return WeylSeries(m, cps, tuple(values[:, 0].tolist()))


@dataclass(frozen=True)
class ScanResult:
    """Per-m Weyl series over a common checkpoint grid."""

    series: dict
    checkpoints: tuple[int, ...]

    @property
    def worst_m(self) -> MultiIndex:
        return max(self.series, key=lambda m: self.series[m].final_magnitude)

    @property
    def worst_final_magnitude(self) -> float:
        return self.series[self.worst_m].final_magnitude

    def flagged(self, threshold: float) -> list[MultiIndex]:
        return sorted(
            (m for m, s in self.series.items() if s.final_magnitude >= threshold),
            key=lambda m: m.components,
        )


def scan_points(spec: GeneratorSpec, seed, cfg: WindowConfig, count: int) -> np.ndarray:
    """Float window matrix (count, d); the samples cross into floats in `_scalars_at`."""
    return np.column_stack(_read_windows(_scalars_at, spec, seed, cfg, count))


def _words_at(spec: GeneratorSpec, seed, positions) -> np.ndarray:
    """The phase words `_unit_words` of the exact samples at 1-based stream positions: for
    an odd q, -R q^-1 mod 2^64 in wrapping uint64 arithmetic on the low words of the
    R = 2^64 r mod q the walk gives with the multiplier 2^64 p mod q (module docstring).
    Ratios over 2^64, koksma's mantissas, are their own words."""
    q = seed.denominator
    if spec.exact and q & 1:
        rems = _samples_at(spec, seed, _indices_at(spec, positions), (seed.numerator << 64) % q)
        low = np.fromiter((r & _WORD_MASK for r in rems), dtype=np.uint64, count=len(rems))
        return low * np.uint64(_neg_inverse(q))
    nums, q = _ratios_at(spec, seed, positions)
    if q == 1 << 64:
        return np.array(nums, dtype=np.uint64)
    return _unit_words(nums, [q] * len(nums))


def criterion_scan(
    spec: GeneratorSpec,
    seed,
    cfg: WindowConfig,
    m_radius: int,
    n_max: int,
) -> ScanResult:
    """Weyl series on checkpoint_grid(n_max) for each nonzero m, sup-norm <= m_radius.

    The phase words are built once per seed.  Per chunk, d * m_radius e() calls fill the
    factor rows f[j, c] = e(c x_kj) (c < 0 at the wrapped index, a conjugate).  Per
    segment, one-factor m sum their own row, and one matrix product sums every other m:
    the leading coordinates' row products (c_0 >= 0) against the last coordinate's rows.
    """
    cps = tuple(checkpoint_grid(n_max))
    table = PhaseTable(_read_windows(_words_at, spec, seed, cfg, n_max))
    d, r, half = cfg.d, m_radius, canonical_half(cfg.d, m_radius)
    support = [[(j, c) for j, c in enumerate(m.components) if c] for m in half]
    multi = [i for i, nz in enumerate(support) if len(nz) > 1]
    single = [i for i, nz in enumerate(support) if len(nz) == 1]
    at_multi = tuple(np.array([half[i].components for i in multi], dtype=np.intp).reshape(-1, d).T)
    at_single = tuple(np.array([support[i][0] for i in single]).T)
    grid = (r + 1,) + (2 * r + 1,) * (d - 1)  # the product's rows (c_0 = 0..r) and columns
    ends, sums = [], []
    for a in range(0, n_max, _CHUNK):
        n = min(_CHUNK, n_max - a)
        f = np.empty((d, 2 * r + 1, n), dtype=complex)
        f[:, 0] = 1
        for j, c in itertools.product(range(d), range(1, r + 1)):
            f[j, c] = _unit_circle(table[j][a : a + n] * np.uint64(c))
        np.conj(f[:, r:0:-1], out=f[:, r + 1 :])
        lead = f[0, : r + 1]
        for j in range(1, d - 1):  # one block of rows per row of the lead so far
            lead = (lead[:, None] * f[j]).reshape(-1, n)
        for e, s in _segments(a, n, cps):
            ends.append(e)
            sums.append(row := np.empty(len(half), dtype=complex))
            row[single] = f[:, : r + 1, s].sum(axis=2)[at_single]
            if multi:
                row[multi] = (lead[:, s] @ f[-1, :, s].T).reshape(grid)[at_multi]
        del f, lead  # so no two chunks' factors are live at once (peak RSS)
    values = _checkpoint_values(ends, sums, cps)
    redo = np.abs(values).max(axis=0) >= 1 - 1e-9  # far above product error: a constant phase
    series: dict[MultiIndex, WeylSeries] = {}
    for i, m in enumerate(half):
        s = weyl_sum(table, m, cps) if redo[i] else WeylSeries(m, cps, tuple(values[:, i].tolist()))
        mirror = s.conjugate()
        series[m], series[mirror.m] = s, mirror
    return ScanResult(series=series, checkpoints=cps)


def degenerate_m_weyl(p: int) -> MultiIndex:
    """Kernel direction for polynomial streams k^p under (p+1)-wide windows.

    m_j = (-1)^j C(p, j), j = 0..p: the p-th forward difference of k^p is
    constant, sum_j (-1)^j C(p, j) (k+j)^p = (-1)^p p!, so every phase
    m . beta_k equals (-1)^p p! t and |W_N| = 1 identically.  Constancy in
    k is p linear conditions of rank p on p+1 unknowns, so the kernel is
    one-dimensional and this coprime vector with first entry positive is
    its only such generator: the window dimension p+1 is degenerate.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    return MultiIndex(tuple((-1) ** j * math.comb(p, j) for j in range(p + 1)))


def degenerate_m_multiplicative(base: int) -> MultiIndex:
    """m = (M, -1): phases M*x_k - x_{k+1} vanish identically for M^k t."""
    if base < 2:
        raise ValueError("base must be at least 2")
    return MultiIndex((base, -1))
