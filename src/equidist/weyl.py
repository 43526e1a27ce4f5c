"""Exponential-sum diagnostics: W_N(m) = (1/N) sum_k e(m . beta_k).

Equidistribution of a sequence in [0,1)^d is equivalent to W_N(m) -> 0
for every nonzero integer multi-index m, so the per-m trajectories over a
growing checkpoint grid are the package's primary evidence object.  A
trajectory pinned at magnitude 1 certifies the opposite: the phases
m . beta_k are constant, and m is a degenerate direction for the family.

Numerical contract.  Exact points (UnitSample vectors or rational tuples)
are ratios of integers n_j / q_j per coordinate (`UnitSample.ratio`: a
residue over q, or a koksma mantissa over 2^64).  The phase m . beta_k is
reduced mod 1 as one integer over L = lcm(q_j) and rounded to float once
by `generators.unit_float`, which clamps below 1 the ratios that round up
to 1.0.  Float points, which is what `criterion_scan` and the stochastic
module consume, carry one rounding per scalar sample, made by the same
`unit_float` in `generators._scalars_at`; their phases are reduced once as
m . x mod 1 in double precision (`_float_phases`), which puts each phase
within a small multiple of sum_j |m_j| * 2^-53 of the exact one.  Both
paths then share one e(phase) kernel (`_unit_phasors`) and compensated
accumulation, so the cosine and sine are the only other lossy step.
Magnitudes never exceed 1 by more than a few ulps, independent of N.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import StreamLengthError
from .generators import (
    GeneratorSpec,
    UnitSample,
    WindowConfig,
    _scalars_at,
    unit_float,
    windows_array,
)

CHECKPOINT_RATIO = 1.5
CHECKPOINT_FIRST_EXPONENT = 8
MAGNITUDE_SLACK = 1e-12


def checkpoint_grid(n_max: int) -> list[int]:
    """Grid {ceil(CHECKPOINT_RATIO^j) : j >= CHECKPOINT_FIRST_EXPONENT}, closed at n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    grid = set()
    j = CHECKPOINT_FIRST_EXPONENT
    while True:
        n = math.ceil(CHECKPOINT_RATIO**j)
        if n > n_max:
            break
        grid.add(n)
        j += 1
    grid.add(n_max)
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
        out = 1
        for c in self.components:
            out *= max(1, abs(c))
        return out

    @property
    def canonical(self) -> bool:
        for c in self.components:
            if c:
                return c > 0
        return False

    def __neg__(self) -> "MultiIndex":
        return MultiIndex(tuple(-c for c in self.components))

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.components) + ")"


def as_multi_index(m) -> MultiIndex:
    return m if isinstance(m, MultiIndex) else MultiIndex(tuple(m))


def multi_indices(d: int, radius: int) -> list[MultiIndex]:
    """All nonzero m with sup-norm at most radius, lexicographic order."""
    if d < 1 or radius < 1:
        raise ValueError("d and radius must be positive")
    out = []
    for comps in itertools.product(range(-radius, radius + 1), repeat=d):
        if any(comps):
            out.append(MultiIndex(comps))
    return out


def canonical_half(d: int, radius: int) -> list[MultiIndex]:
    """One representative per {m, -m} pair: first nonzero component positive."""
    return [m for m in multi_indices(d, radius) if m.canonical]


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
        return WeylSeries(
            -self.m, self.checkpoints, tuple(v.conjugate() for v in self.values)
        )


def _neumaier(values) -> float:
    total = 0.0
    comp = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    return total + comp


def _checkpoints_for(n: int, checkpoints) -> tuple[int, ...]:
    if checkpoints is None:
        cps = (n,)
    else:
        cps = tuple(int(c) for c in checkpoints)
    if not cps:
        raise ValueError("need at least one checkpoint")
    if any(b <= a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be strictly increasing")
    if cps[0] < 1:
        raise ValueError("checkpoints start at 1")
    if cps[-1] > n:
        raise StreamLengthError(f"checkpoint {cps[-1]} beyond {n} points")
    return cps


def _float_phases(pts: np.ndarray, m: MultiIndex) -> np.ndarray:
    """Phases m . x mod 1 of the rows of a float (N, d) point matrix.

    The dot product is summed left to right from the rounded products
    m_j * x_j, so the bits do not depend on the memory layout of `pts`
    (a BLAS matrix-vector product may fuse or reorder the terms).
    """
    acc = 0.0
    for j, c in enumerate(m.components):
        acc = acc + c * pts[:, j]
    return np.mod(acc, 1.0)


def _unit_phasors(phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of e(phase) = exp(2 pi i phase)."""
    angles = 2.0 * np.pi * phases
    return np.cos(angles), np.sin(angles)


def _series_from_phases(m, phases: np.ndarray, cps) -> WeylSeries:
    """Compensated prefix means of e(phase) at the checkpoints.

    Pairwise segment sums combined by Neumaier accumulation keep the error
    of every W_N at O(eps) independent of N.
    """
    re, im = _unit_phasors(phases)
    bounds = [0, *cps]
    seg_re = [float(np.sum(re[a:b])) for a, b in zip(bounds, bounds[1:])]
    seg_im = [float(np.sum(im[a:b])) for a, b in zip(bounds, bounds[1:])]
    values = []
    for i, n in enumerate(cps):
        values.append(
            complex(_neumaier(seg_re[: i + 1]) / n, _neumaier(seg_im[: i + 1]) / n)
        )
    return WeylSeries(m, cps, tuple(values))


def _exact_phases(points, m: MultiIndex) -> np.ndarray:
    """Phases m . beta_k mod 1, one integer reduction over lcm(q_j), one rounding each."""
    comps = m.components
    out = np.empty(len(points), dtype=float)
    for i, vec in enumerate(points):
        if len(vec) != len(comps):
            raise ValueError("point dimension does not match multi-index")
        ratios = [
            s.ratio if isinstance(s, UnitSample) else Fraction(s).as_integer_ratio() for s in vec
        ]
        lcm = math.lcm(*(q for _, q in ratios))
        dot = sum(c * n * (lcm // q) for c, (n, q) in zip(comps, ratios))
        out[i] = unit_float(dot % lcm, lcm)
    return out


def weyl_sum(points, m, checkpoints=None) -> WeylSeries:
    """W_N(m) at the checkpoints for exact or float point sequences.

    Exact points (UnitSample vectors or rational tuples, mixed ones too) go
    through the exact phase reduction; all-float input reduces in doubles.
    The sum for a non-canonical m is computed on -m and conjugated, so
    W_N(-m) == conj(W_N(m)) holds bit-exactly by construction.
    """
    m = as_multi_index(m)
    if not m.canonical:
        return weyl_sum(points, -m, checkpoints).conjugate()
    if isinstance(points, np.ndarray):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != m.d:
            raise ValueError("expected a (N, d) float array")
        cps = _checkpoints_for(pts.shape[0], checkpoints)
        return _series_from_phases(m, _float_phases(pts, m), cps)
    points = list(points)
    if points and all(isinstance(x, float) for vec in points for x in vec):
        return weyl_sum(np.array(points, dtype=float), m, checkpoints)
    cps = _checkpoints_for(len(points), checkpoints)
    phases = _exact_phases(points[: cps[-1]], m)
    return _series_from_phases(m, phases, cps)


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
    """Float window matrix (count, d) for a family/seed/window triple.

    The scalar samples cross into floats in `_scalars_at`, one rounding
    each.  sliding_bc windows one seed's stream with `windows_array`;
    interleaved_a stacks one column per seed, column j holding the
    samples at indices j, j + d, j + 2d, ...
    """
    if cfg.construction == "interleaved_a":
        seeds = list(seed) if isinstance(seed, (list, tuple)) else [seed]
        if len(seeds) != cfg.d:
            raise ValueError(f"interleaved_a needs {cfg.d} seeds, got {len(seeds)}")
        if spec.permutation is not None:
            raise ValueError("interleaving a permuted stream is not defined")
        columns = [
            _scalars_at(spec, s, range(j, cfg.d * count + 1, cfg.d))
            for j, s in enumerate(seeds, start=1)
        ]
        return np.column_stack(columns)
    if isinstance(seed, (list, tuple)):
        raise ValueError("sliding_bc takes a single seed")
    positions = range(1, cfg.stream_length(count) + 1)
    values = _scalars_at(spec, seed, positions)
    return windows_array(values, cfg, count)


def criterion_scan(
    spec: GeneratorSpec,
    seed,
    cfg: WindowConfig,
    m_radius: int,
    n_max: int,
) -> ScanResult:
    """Weyl series on checkpoint_grid(n_max) for each nonzero m, sup-norm <= m_radius.

    Computes the canonical half of the lattice and fills the mirror image
    by conjugation, halving the work without touching the contract.
    """
    cps = tuple(checkpoint_grid(n_max))
    points = scan_points(spec, seed, cfg, n_max)
    series: dict[MultiIndex, WeylSeries] = {}
    for m in canonical_half(cfg.d, m_radius):
        s = weyl_sum(points, m, cps)
        series[m] = s
        series[-m] = s.conjugate()
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
