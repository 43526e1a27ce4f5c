"""Exact rational seeds and error-tracked fixed-point kernels.

Every analysis in this package starts from a seed t = p/q held exactly.
Integer-coefficient sequences (k*t, M^k*t, k!*t, k^k*t, a_k*t) are then
computed as residues c_k*p mod q, so the unit-interval samples are exact
rationals at any reachable index.  The denominator is a freshly drawn
B-bit odd prime (default B = 256).  Primality matters: composite or
small-factor denominators collapse generators whose coefficients pick up
those factors (k! mod 2^B is eventually 0, killing the factorial family),
while a prime q keeps every coefficient not divisible by q invertible.

Width adequacy heuristic: a B-bit prime behaves like a generic irrational
for any statistic that cannot resolve structure finer than 1/q.  Weyl sums
probe phases m * c_k * p / q; with B = 256, index budgets N <= 1e6 and
|m| <= 1e3 the reachable phase set is ~2^-200 dense relative to q, so no
test in this package can distinguish the rational orbit from an irrational
one.  Raise bit_width if either scale grows by orders of magnitude.

Primality carries two error contracts.  Below 2^64 the test is
deterministic.  Above it, a denominator n supplied by a caller gets 48
Miller-Rabin rounds, worst case 4^-48 = 2^-96 for any composite n.  The
sampler's candidates are uniform random odd B-bit integers, so for them the
Damgard-Landrock-Pomerance average-case bound (Math. Comp. 61, 1993) holds:
the chance that the draw-until-pass loop returns a composite after t rounds
is p_{B,t} < B^(3/2) 2^t t^(-1/2) 4^(2 - sqrt(t B)) for B >= 21 and
3 <= t <= B/9.  The sampler runs the fewest rounds t with p_{B,t} <= 2^-96
(`_dlp_rounds`): at B = 256 that is t = 16, bound 2^-98 (t = 15 gives only
2^-94.9).  Widths where no such t exists keep 48 rounds.  Rounds draw their
bases from an rng keyed on n, so the first t bases are those of the 48-round
test and a different prime is drawn only if a composite passes them.  Each
proved prime is remembered, so the seed built from it is not proved again.

Power sequences t^k are carried in fixed point as int pairs (mantissa, err_ulps): the value
mantissa 2^-f within err_ulps units of 2^-f, the error propagated, never reset.  One helper,
`_round_shift`, rounds a pair to fewer bits (`_round_mul`'s products, `fixed_point_pow` and
every koksma sample).  The koksma stream steps the seed between indices read by m <-
round(m p^g / (q^g 2^(W_k - W_(k+g)))) on W_k = ceil((K - k) log2 hi) + 1 + guard bits, what
later reads need: error at most 4 per step, one W_0-bit product and one division each.  A
`FixedPointReal` is built only where the public API hands one out (`fixed_point_pow`,
`generators.UnitSample.fixed`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import IntervalWidthError, PrecisionBudgetError

DEFAULT_SEED_BITS = 256
# Working-precision ceiling for fixed-point power evaluation.  Covers the
# default power-stream cap below (20_000 steps of a base < 2) with margin.
DEFAULT_MAX_WORK_BITS = 24_576
POWER_STREAM_GUARD_BITS = 96
DEFAULT_MAX_POWER_STEPS = 20_000
# Fractional bits of every koksma sample the power stream yields.
POWER_STREAM_FRAC_BITS = 64

_SMALL_PRIMES = [2, 3]
for _c in range(5, 2000, 2):
    if all(_c % _p for _p in _SMALL_PRIMES):
        _SMALL_PRIMES.append(_c)
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_SMALL_PRIME_PRODUCT = math.prod(_SMALL_PRIMES)
# The primes up to 47, whose product fits one 64-bit word: n % it is cheap to test first.
_WORD_PRODUCT = math.prod(_SMALL_PRIMES[:15])

# Sinclair's bases, exact below 2^64: each taken mod n, one 0 mod n skipped (Forisek-Jancina 2015).
_MR_BASES_64 = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_MR_ERROR_BITS = 96
_MR_ROUNDS_LARGE = _MR_ERROR_BITS // 2  # worst case 4^-48 = 2^-96

# Proved primes, oldest first; composites are never stored.
_PROVEN_CAP = 256
_proven: dict[int, None] = {}


def _dlp_rounds(bits: int) -> int:
    """Fewest Miller-Rabin rounds for a random odd `bits`-bit candidate.

    The smallest t in 3..bits/9 whose Damgard-Landrock-Pomerance bound
    log2 p = 1.5 log2 bits + t - 0.5 log2 t + 2 (2 - sqrt(t bits)) is at
    most -96; the theorem needs bits >= 21.  Falls back to the worst-case
    48 rounds where no t qualifies.
    """
    if bits >= 21:
        for t in range(3, bits // 9 + 1):
            log2_p = (
                1.5 * math.log2(bits) + t - 0.5 * math.log2(t) + 2 * (2 - math.sqrt(t * bits))
            )
            if log2_p <= -_MR_ERROR_BITS:
                return t
    return _MR_ROUNDS_LARGE


def _miller_rabin_round(n: int, d: int, r: int, a: int) -> bool:
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_probable_prime(n: int, *, rounds: int = _MR_ROUNDS_LARGE) -> bool:
    """Primality test: deterministic below 2^64, `rounds` Miller-Rabin above.

    The default 48 rounds bound the error by 4^-48 = 2^-96 for any n,
    adversarial or not.  `SeedSampler` passes the fewer rounds of
    `_dlp_rounds`, valid only for uniform random odd candidates, where the
    average-case bound keeps the error of a drawn prime below 2^-96.
    Every prime verdict above the trial-division range is remembered (at
    most `_PROVEN_CAP`), and a remembered n is prime without another round.
    """
    if n in _proven:
        return True
    if n <= _SMALL_PRIMES[-1]:
        return n in _SMALL_PRIME_SET
    if math.gcd(n % _WORD_PRODUCT, _WORD_PRODUCT) != 1 or math.gcd(n, _SMALL_PRIME_PRODUCT) != 1:
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if n < 1 << 64:
        witnesses = (a % n for a in _MR_BASES_64 if a % n)
    else:
        # Bases drawn lazily from an rng keyed on n itself, so the verdict is a
        # pure function of n and the first t bases are the same for any rounds.
        local = random.Random(n)
        witnesses = (local.randrange(2, n - 1) for _ in range(rounds))
    if not all(_miller_rabin_round(n, d, r, a) for a in witnesses):
        return False
    if len(_proven) >= _PROVEN_CAP:
        _proven.pop(next(iter(_proven)))
    _proven[n] = None
    return True


def order_at_most(base: int, q: int, bound: int) -> int | None:
    """Smallest o in [1, bound] with base^o = 1 (mod q), base coprime to q; else None.
    Baby-step giant-step: the first base^(i s) = base^j, j < s, gives o = i s - j."""
    step, baby, x = math.isqrt(bound) + 1, {}, 1
    for j in range(step):
        if j and x == 1:
            return j
        baby[x], x = j, x * base % q
    giant = 1
    for i in range(1, bound // step + 2):
        giant = giant * x % q
        if giant in baby:
            return i * step - baby[giant] if i * step - baby[giant] <= bound else None
    return None


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected exact rational bound, got {type(x).__name__}")


def _as_interval(interval) -> tuple[Fraction, Fraction]:
    """An open interval (lo, hi): exactly two exact bounds, lo < hi."""
    if len(bounds := tuple(map(_as_fraction, interval))) != 2:
        raise ValueError(f"interval takes two bounds, got {len(bounds)}")
    if bounds[0] >= bounds[1]:
        raise IntervalWidthError("empty interval ({}, {})".format(*bounds))
    return bounds


@dataclass(frozen=True)
class RationalSeed:
    """Exact seed p/q inside an open interval, default (0, 1).

    `prime_denominator` records whether q is required to be prime.  The
    sampler always draws odd primes; direct construction may opt out for
    carriers where the denominator is structurally harmless (the power
    family never reduces mod q).
    """

    numerator: int
    denominator: int
    interval: tuple[Fraction, Fraction] = (Fraction(0), Fraction(1))
    prime_denominator: bool = True

    def __post_init__(self):
        lo, hi = _as_interval(self.interval)
        object.__setattr__(self, "interval", (lo, hi))
        if self.denominator < 2:
            raise ValueError("denominator must be at least 2")
        if self.numerator < 1:
            raise ValueError("numerator must be positive")
        if math.gcd(self.numerator, self.denominator) != 1:
            raise ValueError(
                f"{self.numerator}/{self.denominator} is not in lowest terms"
            )
        if not lo < self.value < hi:
            raise ValueError(
                f"{self.numerator}/{self.denominator} outside open interval ({lo}, {hi})"
            )
        if self.prime_denominator and not is_probable_prime(self.denominator):
            raise ValueError(f"denominator {self.denominator} is not prime")

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def __str__(self) -> str:
        return f"{self.numerator}/{self.denominator}"


class SeedSampler:
    """Reproducible source of random rational seeds.

    Identical (rng seed, bit_width) yields the identical seed sequence.
    Statistics and commands take several seeds as the first draws of one
    sampler (`stochastic._draw_seeds`).
    """

    def __init__(self, rng_seed: int, bit_width: int = DEFAULT_SEED_BITS):
        if bit_width < 4:
            raise ValueError("bit_width must be at least 4")
        self.bit_width = bit_width
        self._rng = random.Random(rng_seed)

    def _random_prime(self) -> int:
        b = self.bit_width
        rounds = _dlp_rounds(b)
        while True:
            cand = self._rng.getrandbits(b) | (1 << (b - 1)) | 1
            if is_probable_prime(cand, rounds=rounds):
                return cand

    def sample(self, interval=(Fraction(0), Fraction(1))) -> RationalSeed:
        lo, hi = _as_interval(interval)
        q = self._random_prime()
        # Strict interior: lo < p/q < hi.
        p_min = lo.numerator * q // lo.denominator + 1
        p_max = -((-hi.numerator * q) // hi.denominator) - 1
        if p_min > p_max or p_max < 1:
            raise IntervalWidthError(
                f"interval ({lo}, {hi}) admits no numerator for q={q}"
            )
        p_min = max(p_min, 1)
        multiples = p_max // q - (p_min - 1) // q
        if multiples == p_max - p_min + 1:
            raise IntervalWidthError(
                f"interval ({lo}, {hi}) admits no numerator coprime to q={q}"
            )
        while True:
            p = self._rng.randrange(p_min, p_max + 1)
            if p % q != 0:
                return RationalSeed(p, q, (lo, hi))


def _round_div(a: int, b: int) -> tuple[int, bool]:
    """Round-to-nearest a/b for b > 0, ties up: floor(a/b + 1/2); flags inexactness."""
    q, r = divmod(a, b)
    if r == 0:
        return q, False
    return (q + 1, True) if 2 * r >= b else (q, True)


def _round_shift(x: int, err: int, s: int) -> tuple[int, int]:
    """x ulps with err ulps of error, rounded to s bits fewer: floor(x / 2^s + 1/2), as
    `_round_div(x, 2^s)` for either sign, and ceil(err / 2^s) + [inexact].  s = 0 keeps both."""
    return (x + (1 << s >> 1)) >> s, -(-err >> s) + (x & ((1 << s) - 1) != 0)


def _round_mul(a: int, ea: int, b: int, eb: int, f: int) -> tuple[int, int]:
    """The product of two f-bit pairs (a, ea) and (b, eb), rounded back to f bits by
    `_round_shift`, carrying |a| eb + |b| ea + ea eb, the error the operands bring."""
    return _round_shift(a * b, abs(a) * eb + abs(b) * ea + ea * eb, f)


@dataclass(frozen=True)
class FixedPointReal:
    """Value mantissa * 2^-frac_bits within err_ulps units of 2^-frac_bits of the quantity
    it stands for; a zero bound certifies the dyadic value is exact.  The package computes
    on (mantissa, err_ulps) int pairs and builds one only to hand it out."""

    mantissa: int
    frac_bits: int
    err_ulps: int = 0

    def __post_init__(self):
        if self.frac_bits < 0:
            raise ValueError("frac_bits must be nonnegative")
        if self.err_ulps < 0:
            raise ValueError("err_ulps must be nonnegative")

    def to_float(self) -> float:
        return self.mantissa / (1 << self.frac_bits)

    def frac(self) -> "FixedPointReal":
        """Fractional part of the represented value, its error bound kept mod 1 only:
        within err_ulps of an integer the true and represented fractional parts can
        land on opposite sides of it (`fixed_point_power_stream` settles those)."""
        return FixedPointReal(
            self.mantissa % (1 << self.frac_bits), self.frac_bits, self.err_ulps
        )


def fixed_point_pow(t, k: int) -> FixedPointReal:
    """t^k for an exact rational t > 1, to POWER_STREAM_FRAC_BITS bits with error.

    t is quantized once (`_round_div`) at W = POWER_STREAM_FRAC_BITS + k*lg + 32 fractional
    bits (lg an integer bound on log2 t), raised by square-and-multiply on int pairs
    (`_round_mul`) and rounded once to the output width (`_round_shift`), so the rounding
    accumulated over the chain stays below one output ulp.  Raises PrecisionBudgetError
    when W would exceed DEFAULT_MAX_WORK_BITS.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    t = _as_fraction(t)
    if t <= 1:
        raise ValueError("base must exceed 1")
    # num < 2^nb and den >= 2^(db-1), so t < 2^(nb-db+1)
    lg = max(1, t.numerator.bit_length() - t.denominator.bit_length() + 1)
    work = POWER_STREAM_FRAC_BITS + k * lg + 32
    if work > DEFAULT_MAX_WORK_BITS:
        raise PrecisionBudgetError(
            f"k={k} at ~{lg} integer bits per power needs {work} working bits, "
            f"cap is {DEFAULT_MAX_WORK_BITS}"
        )
    base, inexact = _round_div(t.numerator << work, t.denominator)
    base_err = int(inexact)
    m, err = base, base_err
    for bit in bin(k)[3:]:
        m, err = _round_mul(m, err, m, err, work)
        if bit == "1":
            m, err = _round_mul(m, err, base, base_err, work)
    m, err = _round_shift(m, err, work - POWER_STREAM_FRAC_BITS)
    return FixedPointReal(m, POWER_STREAM_FRAC_BITS, err)


def fixed_point_power_stream(t: Fraction, indices, hi: Fraction):
    """Yield frac(t^k) at strictly ascending indices k >= 1 as int pairs (mantissa, err_ulps):
    frac(t^k) 2^POWER_STREAM_FRAC_BITS within err_ulps of the mantissa.

    The exact seed t = p/q is stepped on a carrier that shrinks to what the reads left need:
    m ~ t^k 2^W_k, W_k = ceil((K - k) log2 hi) + 1 + POWER_STREAM_GUARD_BITS (K the last
    index, hi the interval's sup), m = 2^W_0 at k = 0.  A gap g is one step m' = round(m p^g /
    (q^g 2^D)), D = W_k - W_(k+g) >= 0, p^g and q^g reused while g repeats.  It scales the
    error m - t^k 2^W_k by t^g / 2^D, so its bound err steps to ceil(err p^g / (q^g 2^D)) +
    [inexact]; over steps k..k' those factors multiply to at most 2 (t/hi)^(k'-k) <= 2, so
    err_k <= 4 steps < 2^17 while W_k - 64 >= 33.  A sample, m mod 2^W_k and err rounded to 64
    bits by `_round_shift`, carries 1-2 ulps, unless m mod 2^W_k lies within err of an
    integer: then it is settled exactly from (p^k mod q^k) / q^k.  Either rounding may reach
    2^64, yielded as 2^64 - 1 with one ulp more: every mantissa is below 2^64, within err_ulps
    of frac(t^k) 2^64 as integers.  A step costs one ~W_0-bit m times a g-word power and one
    division by q^g 2^D; err stays one word.  A dyadic t is exact only while q^k divides
    2^W_k.  W_0 and the settle grow with K log2 hi, hence the caps on K and on W_0.
    """
    t, hi = _as_fraction(t), _as_fraction(hi)
    if not 1 < t < hi:
        raise ValueError(f"seed {t} outside (1, {hi})")
    indices = list(indices)
    steps = list(zip([0] + indices, indices))
    if any(k >= target for k, target in steps):
        raise ValueError("indices must be strictly ascending and positive")
    last = indices[-1] if indices else 0
    if last > DEFAULT_MAX_POWER_STEPS:
        raise PrecisionBudgetError(f"index {last} exceeds the step cap {DEFAULT_MAX_POWER_STEPS}")
    lg_hi = math.log2(hi.numerator) - math.log2(hi.denominator)
    work = math.ceil(last * lg_hi) + 1 + POWER_STREAM_GUARD_BITS
    if work > DEFAULT_MAX_WORK_BITS:
        raise PrecisionBudgetError(
            f"index {last} in (1, {hi}) needs {work} working bits, cap is {DEFAULT_MAX_WORK_BITS}"
        )
    p, q, m, err, gap = t.numerator, t.denominator, 1 << work, 0, None
    for k, target in steps:
        if target - k != gap:
            gap = target - k
            p_gap, q_gap = p**gap, q**gap
        width = math.ceil((last - target) * lg_hi) + 1 + POWER_STREAM_GUARD_BITS
        den, work, one = q_gap << (work - width), width, 1 << width
        m, inexact = _round_div(m * p_gap, den)
        err = -(-err * p_gap // den) + inexact
        if err < (wrapped := m & (one - 1)) < one - err:
            frac, ulps = _round_shift(wrapped, err, work - POWER_STREAM_FRAC_BITS)
        else:  # frac(t^k) within err of an integer: settle it exactly
            q_k = q**target
            frac, ulps = _round_div((p**target % q_k) << POWER_STREAM_FRAC_BITS, q_k)
        up = frac == 1 << POWER_STREAM_FRAC_BITS  # rounded up to 1: clamp below it
        yield frac - up, ulps + up
