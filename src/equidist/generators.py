"""Parametric sequence families and window constructions on the unit cube.

A generator family maps an index k and a seed t to x_k(t); the unit-cube
sample is beta_k = x_k(t) mod 1.  The integer-coefficient families reduce
exactly: beta_k = (c_k * p mod q) / q for t = p/q.  The power family t^k
has none; it jumps the exact seed by t^gap on the fixed-point carrier.
Self-powers recur too: k^k = (s^j j^j)^s for k = s j with s the least
prime factor, so only prime k pay a full modular power pow(k, k, q).

Every family is read through one indexed reader, `_samples_at`: it takes
generator indices in any order, repeats allowed, and returns the samples
in the caller's order, exact residues for the integer families and
`FixedPointReal` values of frac(t^k) for koksma.  `residue_stream`,
`beta_stream` and the float crossing `_scalars_at` are views over it.

Every sample is a ratio of integers in [0, 1) (`UnitSample.ratio`, `_ratios_at`):
residue / q, or koksma's mantissa / 2^64, which the power stream keeps below
2^64 by construction.  Weyl phases, in `criterion_scan` and the Monte-Carlo
engine alike, are the words w = floor(2^64 r / q) of the ratios, defined in
integers by `weyl._unit_words`, the tests' oracle.  `weyl._words_at` builds
them without a division.  For an odd q, r 2^64 = w q + R with 0 <= R < q, so
w = -R q^-1 mod 2^64 exactly (w < 2^64); every exact family is linear in p,
so the walk run with the multiplier p' = 2^64 p mod q (`_samples_at`'s
`multiplier`) gives each R.  koksma's ratios over 2^64 and an even q, only in
a hand-built seed, take `_unit_words`.  Floats come only from `unit_float`,
one correct rounding clamped below 1, so a mantissa of 2^64 - 1 is
1 - 2^-53, not 1.0.

Multidimensional points come from two constructions over scalar streams,
interleaved blocks over d independent seeds or windows over one stream
(any shift h >= 1 and offset o), at the stream positions of their one
definition, `WindowConfig.positions`; `_read_windows` reads them.
"""

from __future__ import annotations

import csv
import itertools
import math
import numbers
import operator
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .arithmetic import (
    POWER_STREAM_FRAC_BITS,
    RationalSeed,
    _as_interval,
    fixed_point_power_stream,
    FixedPointReal,
)
from .errors import StreamLengthError

FAMILIES = (
    "weyl_power",
    "multiplicative",
    "factorial",
    "self_power",
    "linear_integer",
    "koksma",
)

CONSTRUCTIONS = ("interleaved_a", "sliding_bc")

_UNIT_INTERVAL = (Fraction(0), Fraction(1))  # the seed interval of the integer families


@dataclass(frozen=True)
class ArithmeticIndices:
    """Index/coefficient descriptor a_i = start + (i-1)*stride."""

    start: int = 1
    stride: int = 1

    def __post_init__(self):
        if operator.index(self.start) < 1 or operator.index(self.stride) < 1:
            raise ValueError("start and stride must be positive")

    def at(self, i: int) -> int:
        return self.start + (i - 1) * self.stride


def _descriptor_at(desc, i: int) -> int:
    if i < 1:
        raise ValueError(f"descriptor positions start at 1, got {i}")
    if isinstance(desc, ArithmeticIndices):
        return desc.at(i)
    if i > len(desc):
        raise StreamLengthError(
            f"descriptor has {len(desc)} entries, index {i} requested"
        )
    return desc[i - 1]


@dataclass(frozen=True)
class GeneratorSpec:
    """One sequence family with its parameters and an optional reindexing.

    `permutation` rewires the output stream to beta_{a_1}, beta_{a_2}, ...; built once,
    a spec is checked once: integers by `operator.index`, an interval as two exact
    rationals lo < hi, listed entries positive and a permutation's pairwise distinct
    over the whole tuple, and every spec hashes.
    """

    family: str
    power: int | None = None
    base: int | None = None
    coefficients: tuple | ArithmeticIndices | None = None
    interval: tuple[Fraction, Fraction] | None = None
    permutation: tuple | ArithmeticIndices | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for name in ("power", "base"):
            if (value := getattr(self, name)) is not None:  # Python ints: numpy ones wrap
                object.__setattr__(self, name, operator.index(value))
        if (iv := self.interval) is not None:  # exact bounds: a float raises TypeError
            object.__setattr__(self, "interval", iv := _as_interval(iv))
        for name, rule in (("coefficients", "positive"), ("permutation", "positive, distinct")):
            if (desc := getattr(self, name)) is not None and not isinstance(desc, ArithmeticIndices):
                object.__setattr__(self, name, desc := tuple(map(operator.index, desc)))
                if min(desc, default=1) < 1 or name == "permutation" and len(set(desc)) < len(desc):
                    raise ValueError(f"{name} entries must be {rule}")
        if self.family == "weyl_power" and (self.power is None or self.power < 1):
            raise ValueError("weyl_power needs a positive exponent")
        if self.family == "multiplicative" and (self.base is None or self.base < 2):
            raise ValueError("multiplicative needs an integer base >= 2")
        if self.family == "linear_integer" and self.coefficients is None:
            raise ValueError("linear_integer needs a coefficient descriptor")
        if self.family == "koksma" and (iv is None or iv[0] < 1):
            raise ValueError("koksma needs an interval (1, a) with a > 1")

    # -- constructors ----------------------------------------------------

    @classmethod
    def weyl(cls, power: int) -> "GeneratorSpec":
        return cls("weyl_power", power=power)

    @classmethod
    def multiplicative(cls, base: int) -> "GeneratorSpec":
        return cls("multiplicative", base=base)

    @classmethod
    def factorial(cls) -> "GeneratorSpec":
        return cls("factorial")

    @classmethod
    def self_power(cls) -> "GeneratorSpec":
        return cls("self_power")

    @classmethod
    def linear(cls, coefficients) -> "GeneratorSpec":
        return cls("linear_integer", coefficients=coefficients)

    @classmethod
    def koksma(cls, hi: Fraction | int = 2) -> "GeneratorSpec":
        return cls("koksma", interval=(Fraction(1), Fraction(hi)))

    def permuted(self, indices) -> "GeneratorSpec":
        return replace(self, permutation=indices)

    @property
    def exact(self) -> bool:
        """Integer-coefficient family: samples are exact residues c_k * p mod q."""
        return self.family != "koksma"

    def seed_interval(self) -> tuple[Fraction, Fraction]:
        return _UNIT_INTERVAL if self.exact else self.interval  # a key of _draw_seeds


@dataclass(frozen=True)
class WindowConfig:
    """Window layout: dimension d, shift h, offset o, construction name."""

    d: int = 1
    h: int = 1
    o: int = 0
    construction: str = "sliding_bc"

    def __post_init__(self):
        if operator.index(self.d) < 1:
            raise ValueError("d must be at least 1")
        if operator.index(self.h) < 1:
            raise ValueError("h must be at least 1")
        if operator.index(self.o) < 0:
            raise ValueError("offset must be nonnegative")
        if self.construction not in CONSTRUCTIONS:
            raise ValueError(f"unknown construction {self.construction!r}")
        if self.construction == "interleaved_a" and (self.h, self.o) != (1, 0):
            raise ValueError("interleaved_a has no shift or offset: needs h = 1 and o = 0")

    def positions(self, ks) -> list:
        """The one definition of the layout: entry j lists the 1-based stream position
        coordinate j + 1 of each window k in `ks` reads, (k - 1) s + o + j + 1 with s = h
        (sliding_bc) or s = d (interleaved_a, a generator index of seed j + 1).  `ks` is
        a count, windows 1..count, giving ranges, or window indices k >= 1."""
        step = self.d if self.construction == "interleaved_a" else self.h
        if isinstance(ks, numbers.Integral):
            if ks < 0:
                raise ValueError("count must be nonnegative")
            return [range(self.o + j, self.o + j + ks * step, step) for j in range(1, self.d + 1)]
        if min(ks := list(map(operator.index, ks)), default=1) < 1:
            raise ValueError("window indices start at 1")
        return [[(k - 1) * step + self.o + j for k in ks] for j in range(1, self.d + 1)]

    def stream_length(self, count: int) -> int:
        """The last position the first `count` windows read, 0 for none; the last
        coordinate's is the largest, for interleaved_a that of the last seed."""
        last = self.positions(count)[-1]
        return last[-1] if last else 0


@dataclass(frozen=True)
class UnitSample:
    """One point of [0, 1): exact residue/denominator or fixed-point carrier.

    k is the generator index the sample came from (not the output position;
    the two differ under a permutation wrapper).
    """

    k: int
    residue: int | None = None
    denominator: int | None = None
    fixed: FixedPointReal | None = None

    def __post_init__(self):
        has_exact = self.residue is not None or self.denominator is not None
        if has_exact == (self.fixed is not None):
            raise ValueError("exactly one carrier (residue/denominator or fixed)")
        if has_exact:
            if self.residue is None or self.denominator is None:
                raise ValueError("residue and denominator go together")
            if not 0 <= self.residue < self.denominator:
                raise ValueError("residue out of range")
        elif not 0 <= self.fixed.mantissa < 1 << self.fixed.frac_bits:  # `ratio` is in [0, 1)
            raise ValueError("fixed-point sample outside [0, 1)")

    @property
    def exact(self) -> bool:
        return self.residue is not None

    @property
    def ratio(self) -> tuple[int, int]:
        """The sample as (numerator, denominator): (residue, q) or koksma's
        (mantissa, 2^frac_bits)."""
        if self.exact:
            return self.residue, self.denominator
        return self.fixed.mantissa, 1 << self.fixed.frac_bits

    @property
    def value(self) -> Fraction:
        return Fraction(*self.ratio)

    def as_float(self) -> float:
        return unit_float(*self.ratio)


def unit_float(numerator: int, denominator: int) -> float:
    """Correctly rounded float of numerator/denominator, clamped into [0, 1).

    Integer true division rounds to nearest; the clamp only fires when the
    ratio sits within half an ulp of 1.  This is the single lossy step
    between exact residues and the float analysis paths; everything
    upstream is exact integer arithmetic.
    """
    out = numerator / denominator
    if out >= 1.0:
        out = math.nextafter(1.0, 0.0)
    return out


# -- scalar streams ------------------------------------------------------


def _samples_at(spec: GeneratorSpec, seed: RationalSeed, indices, multiplier=None) -> list:
    """Samples beta_k at generator indices, in the caller's order.

    Indices k >= 1 may repeat and come in any order.  Integer-coefficient
    families give exact residues c_k * p mod q (beta_k = residue / q); koksma
    gives frac(t^k) as a `FixedPointReal` of POWER_STREAM_FRAC_BITS bits, its
    mantissa below 2^64 the numerator over 2^64.  An integer family walks c_k * a mod q
    with a = `multiplier` in place of p when one is given (0 <= a < q); the seed
    p / q is still the one checked against the family interval.

    Every family walks the sorted distinct indices once.  Factorial multiplies
    through each gap, multiplicative by base^gap mod q, koksma jumps the exact
    seed by t^gap (`fixed_point_power_stream`), and self_power reads a table
    of k^k mod q (`_self_powers`): one pow(k, k, q) per prime k, a few short
    products per composite.  Weyl and linear families are direct, the linear
    coefficients as checked when the spec was built.
    """
    lo, hi = spec.seed_interval()
    q, p = seed.denominator, seed.numerator
    if not lo.numerator * q < p * lo.denominator or not p * hi.denominator < hi.numerator * q:
        raise ValueError(f"seed {seed} outside the family interval ({lo}, {hi})")
    walk = indices if _ascending(indices) else sorted(set(indices))
    if walk and walk[0] < 1:
        raise ValueError(f"generator indices start at 1, got {walk[0]}")
    if multiplier is not None:
        p = multiplier
    fam = spec.family
    out, acc, k = [], p % q, 0
    if fam == "weyl_power" and spec.power == 1:
        out = [k * p % q for k in walk]
    elif fam == "weyl_power":
        out = [pow(k, spec.power, q) * p % q for k in walk]
    elif fam == "linear_integer":
        out = [_descriptor_at(spec.coefficients, k) % q * p % q for k in walk]
    elif fam == "self_power":
        out = _self_powers(walk, q)
        for i, v in enumerate(out):
            out[i] = v * p % q
    elif fam == "koksma":
        out = list(fixed_point_power_stream(seed.value, walk, hi))
    elif fam == "factorial":
        for target in walk:
            while k < target:
                k += 1
                acc = acc * k % q
            out.append(acc)
    else:
        gap = step = None
        for target in walk:
            if target - k != gap:
                gap = target - k
                step = pow(spec.base, gap, q)
            acc = acc * step % q
            k = target
            out.append(acc)
    if walk is indices:
        return out
    at = dict(zip(walk, out))
    return [at[k] for k in indices]


def _self_powers(walk, q: int) -> list[int]:
    """k^k mod q at strictly ascending indices k >= 1, from a table to `top`.

    Prime k costs one pow(k, k, q); composite k = s j, s its least prime
    factor, is (s^j j^j)^s with j^j from the table and s^j a running power
    per prime s, stepped by s^gap.  `top` is the last index k at walk
    position i with k <= 2i, so the table's at most ceil(top / 2) primes
    never outnumber the reads it serves; an index above it costs one pow.
    """
    top = max((k for i, k in enumerate(walk, 1) if k <= 2 * i), default=0)
    root = math.isqrt(top)
    lpf = np.zeros(top + 1, dtype=np.int64)
    for s in range(root, 1, -1):  # the smallest divisor written last wins
        lpf[s * s :: s] = s
    table = lpf.tolist()  # entry k: least prime factor (0 if none), then k^k mod q
    reach, power = [0] * (root + 1), [1] * (root + 1)  # per prime s: j, s^j mod q
    for k in range(1, top + 1):
        s = table[k]
        if s:
            j = k // s
            power[s] = power[s] * pow(s, j - reach[s], q) % q
            reach[s] = j
            table[k] = pow(power[s] * table[j] % q, s, q)
        else:
            table[k] = pow(k, k, q)
    return [table[k] if k <= top else pow(k, k, q) for k in walk]


def _ascending(values) -> bool:
    """Strictly increasing, so already sorted and free of repeats; a range with a
    positive step is, at once."""
    if isinstance(values, range) and values.step > 0:
        return True
    return all(map(operator.lt, values, itertools.islice(values, 1, None)))


def residue_stream(
    spec: GeneratorSpec, seed: RationalSeed, count: int
) -> tuple[list[int], int]:
    """Exact residues of the first `count` outputs plus the denominator.

    The residues are `_ratios_at` the stream's positions, so a permutation
    wrapper evaluates the inner family at the rewired indices.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if not spec.exact:
        raise ValueError("koksma has no exact residue path; use beta_stream")
    return _ratios_at(spec, seed, range(1, count + 1))


def _indices_at(spec: GeneratorSpec, positions) -> list[int] | range:
    """Generator indices at 1-based output positions (permutation applied).

    Without a permutation the indices are the positions (a range stays one); the spec's
    own check makes distinct positions read distinct positive indices.
    """
    if spec.permutation is None:
        return positions if isinstance(positions, range) else list(positions)
    return [_descriptor_at(spec.permutation, i) for i in positions]


def beta_stream(spec: GeneratorSpec, seed: RationalSeed, count: int) -> list[UnitSample]:
    """First `count` unit-cube samples beta_k = x_k(t) mod 1.

    Integer-coefficient families return exact residue samples.  The koksma
    family returns fixed-point samples of POWER_STREAM_FRAC_BITS bits
    carrying their own error bound; its index budget is capped by
    DEFAULT_MAX_POWER_STEPS and DEFAULT_MAX_WORK_BITS (see
    `fixed_point_power_stream`).
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    return _unit_samples_at(spec, seed, range(1, count + 1))


def _unit_samples_at(spec: GeneratorSpec, seed: RationalSeed, positions) -> list[UnitSample]:
    """The samples at 1-based stream positions as `UnitSample`s, each carrying the
    generator index `_indices_at` puts there."""
    indices = _indices_at(spec, positions)
    samples = _samples_at(spec, seed, indices)
    if spec.exact:
        q = seed.denominator
        return [UnitSample(k=k, residue=r, denominator=q) for k, r in zip(indices, samples)]
    return [UnitSample(k=k, fixed=s) for k, s in zip(indices, samples)]


# -- window constructions ------------------------------------------------


def _read_windows(read, spec: GeneratorSpec | None, seed, cfg: WindowConfig, ks) -> list:
    """Coordinate j of the windows `ks` (`WindowConfig.positions`) as read(spec, seed,
    positions) returns it in their order (an array when `ks` lists windows), from the one
    seed of sliding_bc or from seed j of interleaved_a (see `_read_seed`)."""
    positions = cfg.positions(ks)
    if cfg.construction == "sliding_bc":
        if isinstance(seed, (list, tuple)):
            raise ValueError("sliding_bc takes a single seed")
        return _read_seed(read, spec, seed, positions)
    seeds = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    if len(seeds) != cfg.d:
        raise ValueError(f"interleaved_a needs {cfg.d} seeds, got {len(seeds)}")
    if spec.permutation is not None:
        raise ValueError("interleaving a permuted stream is not defined")
    return [_read_seed(read, spec, s, [c])[0] for s, c in zip(seeds, positions)]


def _read_seed(read, spec: GeneratorSpec | None, seed, columns: list) -> list:
    """The coordinates one seed serves.  Ranges (a window count) read once the sparsest
    ascending progression holding them all and come back as strided views of it; lists
    (window indices) pass their positions window by window, repeats included, and
    `_samples_at` reads each distinct one once, ascending."""
    if not isinstance(columns[0], range):
        values = read(spec, seed, [p for window in zip(*columns) for p in window])
        return list(values.reshape(-1, len(columns)).T)
    lo, hi = columns[0].start, max((c[-1] for c in columns if c), default=0)
    g = math.gcd(columns[0].step, *(c.start - lo for c in columns))
    span = read(spec, seed, range(lo, hi + 1, g))
    return [span[(c.start - lo) // g :: c.step // g][: len(c)] for c in columns]


def interleaved_vectors(spec: GeneratorSpec, seeds, count: int) -> list[tuple[UnitSample, ...]]:
    """d-dimensional points from d seeds of one family, interleaved blocks:
    each coordinate runs the family at its own seed while the index sweeps
    through all the integers block by block.  d is the seed count.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    cfg = WindowConfig(d=len(seeds), construction="interleaved_a")
    return list(zip(*_read_windows(_unit_samples_at, spec, seeds, cfg, count)))


# -- float consumption ---------------------------------------------------


def residues_to_floats(residues, denominator: int) -> np.ndarray:
    # streamed into the array, with no list of Python floats in between
    return np.fromiter((unit_float(r, denominator) for r in residues), dtype=float)


def _ratios_at(spec: GeneratorSpec, seed: RationalSeed, positions) -> tuple[list[int], int]:
    """Samples at 1-based stream positions, in any order, as numerators over one
    denominator: residues over q, or koksma's mantissas over 2^POWER_STREAM_FRAC_BITS."""
    samples = _samples_at(spec, seed, _indices_at(spec, positions))
    if spec.exact:
        return samples, seed.denominator
    return [s.mantissa for s in samples], 1 << POWER_STREAM_FRAC_BITS


def _scalars_at(spec: GeneratorSpec, seed: RationalSeed, positions) -> np.ndarray:
    """Float samples at 1-based stream positions: the one place samples cross
    into floats, one `unit_float` rounding of each ratio `_ratios_at` reads."""
    return residues_to_floats(*_ratios_at(spec, seed, positions))


def stream_floats(stream) -> np.ndarray:
    return np.array([s.as_float() for s in stream], dtype=float)


def windows_array(values: np.ndarray, cfg: WindowConfig, count: int | None = None) -> np.ndarray:
    """Float window matrix (count, d) over a float stream, by default all it holds."""
    if cfg.construction != "sliding_bc":
        raise ValueError("windows_array applies to the sliding_bc construction")
    values = np.asarray(values, dtype=float)
    available = max(0, (values.size - cfg.stream_length(1)) // cfg.h + 1)
    if count is None:
        count = available
    elif count > available:
        raise StreamLengthError(
            f"stream of {values.size} supports {available} windows, {count} requested"
        )
    read = lambda _spec, _seed, at: values[at.start - 1 : at.stop - 1 : at.step]  # noqa: E731
    return np.column_stack(_read_windows(read, None, None, cfg, count))


# -- stream files --------------------------------------------------------


def export_stream_csv(path, stream) -> None:
    """Stream snapshot: k,residue,denominator for exact samples, k,value else."""
    stream = list(stream)
    exact = all(s.exact for s in stream)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if exact:
            writer.writerow(["k", "residue", "denominator"])
            for s in stream:
                writer.writerow([s.k, s.residue, s.denominator])
        else:
            writer.writerow(["k", "value"])
            for s in stream:
                writer.writerow([s.k, repr(s.as_float())])

