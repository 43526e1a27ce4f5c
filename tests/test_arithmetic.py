"""Exact arithmetic kernel: primes, seeds, factorials mod q, fixed point."""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equidist import arithmetic
from equidist.arithmetic import (
    DEFAULT_MAX_POWER_STEPS,
    DEFAULT_MAX_WORK_BITS,
    POWER_STREAM_GUARD_BITS,
    FixedPointReal,
    RationalSeed,
    SeedSampler,
    _dlp_rounds,
    _round_div,
    fixed_point_pow,
    fixed_point_power_stream,
    is_probable_prime,
    order_at_most,
)
from equidist.errors import IntervalWidthError, PrecisionBudgetError
from equidist.generators import GeneratorSpec, _samples_at


def _strong_probable_prime(n: int, a: int) -> bool:
    # independent of the library's implementation on purpose; n odd
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(r - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _reference_miller_rabin(n: int, rounds: int = 40) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if n % p == 0:
            return n == p
    rng = random.Random(0xC0FFEE)
    return all(_strong_probable_prime(n, rng.randrange(2, n - 1)) for _ in range(rounds))


# the deterministic bases below 2^64 before Sinclair's seven: the twelve primes up to 37
PRIMES_TO_37 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class TestPrimality:
    def test_small_values(self):
        known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 251}
        for n in range(2, 260):
            assert is_probable_prime(n) == (n in known or all(n % p for p in range(2, n)))

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_probable_prime(n)

    def test_mersenne_prime(self):
        assert is_probable_prime(2**61 - 1)
        assert not is_probable_prime(2**67 - 1)  # 193707721 * 761838257287

    # Sinclair's bases 9780504 and 1795265022 are 0 mod these primes, and are skipped
    @pytest.mark.parametrize("n", [407521, 299210837])
    def test_prime_dividing_a_base(self, n):
        assert any(a % n == 0 for a in arithmetic._MR_BASES_64)
        assert is_probable_prime(n)

    # strong pseudoprimes to the bases 2..11, 2..17 and 2..23, every factor past trial division
    @pytest.mark.parametrize(
        "factors",
        [(6763, 10627, 29947), (10670053, 32010157), (149491, 747451, 34233211)],
        ids=["2152302898747", "341550071728321", "3825123056546413051"],
    )
    def test_strong_pseudoprimes_rejected(self, factors):
        n = math.prod(factors)
        assert min(factors) > arithmetic._SMALL_PRIMES[-1]
        assert all(_strong_probable_prime(n, a) for a in PRIMES_TO_37[:5])
        assert not is_probable_prime(n)

    def test_64_bit_verdicts_match_the_twelve_prime_bases(self):
        rng = random.Random(64)
        odd = [rng.getrandbits(rng.randrange(12, 65)) | 1 for _ in range(3000)]
        primes = []
        while len(primes) < 60:
            if _reference_miller_rabin(cand := rng.getrandbits(32) | (1 << 31) | 1):
                primes.append(cand)
        semiprimes = [a * b for a, b in zip(primes[::2], primes[1::2])]  # past trial division
        for n in odd + semiprimes:
            if n > PRIMES_TO_37[-1]:
                want = all(_strong_probable_prime(n, a) for a in PRIMES_TO_37)
                assert is_probable_prime(n) == want, n

    def test_large_agreement_with_reference(self):
        rng = random.Random(31337)
        for _ in range(40):
            n = rng.getrandbits(80) | 1
            assert is_probable_prime(n) == _reference_miller_rabin(n)


def _dlp_log2_bound(k: int, t: int) -> float:
    # Damgard-Landrock-Pomerance: p_{k,t} < k^(3/2) 2^t t^(-1/2) 4^(2 - sqrt(tk))
    return 1.5 * math.log2(k) + t - 0.5 * math.log2(t) + 2 * (2 - math.sqrt(t * k))


@pytest.fixture
def count_rounds(monkeypatch):
    """Empty prime memo and a counter of Miller-Rabin rounds run."""
    monkeypatch.setattr(arithmetic, "_proven", {})
    calls = []
    real = arithmetic._miller_rabin_round

    def counted(n, d, r, a):
        calls.append(n)
        return real(n, d, r, a)

    monkeypatch.setattr(arithmetic, "_miller_rabin_round", counted)
    return calls


class TestRoundCount:
    def test_256_bits_take_16_rounds(self):
        assert _dlp_log2_bound(256, 16) == pytest.approx(-98)
        assert _dlp_log2_bound(256, 15) > -96
        want = min(t for t in range(3, 256 // 9 + 1) if _dlp_log2_bound(256, t) <= -96)
        assert _dlp_rounds(256) == want == 16

    @pytest.mark.parametrize("bits", [200, 384, 512, 1024])
    def test_smallest_qualifying_round_count(self, bits):
        t = _dlp_rounds(bits)
        assert 3 <= t <= bits // 9
        assert _dlp_log2_bound(bits, t) <= -96
        assert t == 3 or _dlp_log2_bound(bits, t - 1) > -96

    @pytest.mark.parametrize("bits", [4, 20, 64, 128, 192])
    def test_falls_back_to_48_rounds(self, bits):
        # below 21 bits the theorem does not apply; up to 192 bits no t <= k/9 reaches 2^-96
        assert all(_dlp_log2_bound(bits, t) > -96 for t in range(3, bits // 9 + 1))
        assert _dlp_rounds(bits) == 48

    def test_supplied_prime_gets_48_rounds(self, count_rounds):
        q = 2**89 - 1
        assert is_probable_prime(q)
        assert count_rounds == [q] * 48

    def test_drawn_prime_is_not_proved_again(self, count_rounds):
        seed = SeedSampler(7).sample()
        assert count_rounds.count(seed.denominator) == 16
        del count_rounds[:]
        assert RationalSeed(seed.numerator, seed.denominator) == seed
        assert count_rounds == []

    def test_drawn_64_bit_prime_is_not_proved_again(self, count_rounds):
        # below 2^64 the deterministic test runs its 7 bases once per drawn prime
        seed = SeedSampler(7, bit_width=64).sample()
        assert count_rounds.count(seed.denominator) == 7
        del count_rounds[:]
        assert RationalSeed(seed.numerator, seed.denominator) == seed
        assert count_rounds == []

    def test_composite_of_two_large_primes_rejected(self):
        sampler = SeedSampler(9, bit_width=128)
        q1, q2 = sampler._random_prime(), sampler._random_prime()
        with pytest.raises(ValueError, match="not prime"):
            RationalSeed(1, q1 * q2)

    @pytest.mark.parametrize("master", range(1, 17))
    def test_draws_match_48_round_reference(self, master):
        rng = random.Random(master)
        while True:
            cand = rng.getrandbits(256) | (1 << 255) | 1
            if _reference_miller_rabin(cand, rounds=48):
                break
        assert SeedSampler(master).sample().denominator == cand

    def test_prime_memo_stays_at_cap(self, monkeypatch):
        monkeypatch.setattr(arithmetic, "_proven", {})
        monkeypatch.setattr(arithmetic, "_PROVEN_CAP", 4)
        sampler = SeedSampler(3, bit_width=96)
        drawn = [sampler.sample().denominator for _ in range(10)]
        assert list(arithmetic._proven) == drawn[-4:]

    def test_word_prefilter_tests_a_subset_of_the_trial_primes(self):
        word = arithmetic._WORD_PRODUCT
        assert word < 2**64 and arithmetic._SMALL_PRIME_PRODUCT % word == 0
        assert word == math.prod(p for p in range(2, 48) if all(p % q for q in range(2, p)))
        rng = random.Random(5)
        for _ in range(200):
            n = rng.getrandbits(64) | 1
            assert is_probable_prime(n) == _reference_miller_rabin(n)
            assert not is_probable_prime(n * rng.choice((3, 47, 53, 1999)))

    def test_trial_division_matches_sieve(self):
        limit = 20_000
        sieve = [False, False] + [True] * (limit - 2)
        for i in range(2, int(limit**0.5) + 1):
            if sieve[i]:
                sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
        assert [is_probable_prime(n) for n in range(limit)] == sieve


class TestFactorialMod:
    """k! mod q, read through the factorial family at the seed 1/q."""

    @staticmethod
    def _factorials(q: int, ks) -> list[int]:
        seed = RationalSeed(1, q, prime_denominator=False)
        return _samples_at(GeneratorSpec.factorial(), seed, list(ks))

    def test_example(self):
        assert self._factorials(7, [5]) == [1]

    def test_recurrence_consistency(self):
        # the walk carries 4! into 5!, in either read order
        assert self._factorials(7, [4, 5]) == [24 % 7, 1]
        assert self._factorials(7, [5, 4]) == [1, 3]

    def test_brute_force_oracle(self):
        rng = random.Random(5)
        moduli = [rng.randrange(2, 2**20) for _ in range(20)]
        for q in moduli:
            assert self._factorials(q, range(1, 13)) == [
                math.factorial(k) % q for k in range(1, 13)
            ]

    def test_nonzero_below_denominator(self):
        q = 2**31 - 1  # Mersenne prime
        assert all(self._factorials(q, range(1, 200)))


class TestRationalSeed:
    def test_validation(self):
        with pytest.raises(ValueError):
            RationalSeed(2, 4, prime_denominator=False)  # not reduced
        with pytest.raises(ValueError):
            RationalSeed(1, 1, prime_denominator=False)  # q too small
        with pytest.raises(ValueError):
            RationalSeed(3, 2, prime_denominator=False)  # outside (0,1)
        with pytest.raises(ValueError):
            RationalSeed(1, 9, prime_denominator=True)  # 9 not prime

    def test_interval_membership_is_strict(self):
        lo, hi = Fraction(1), Fraction(2)
        RationalSeed(3, 2, interval=(lo, hi), prime_denominator=True)
        with pytest.raises(ValueError):
            RationalSeed(2, 2, interval=(lo, hi), prime_denominator=False)

    def test_str(self):
        assert str(RationalSeed(1, 3, prime_denominator=True)) == "1/3"


class TestSeedSampler:
    def test_reproducible(self):
        a = SeedSampler(11, bit_width=64)
        b = SeedSampler(11, bit_width=64)
        for _ in range(5):
            assert a.sample() == b.sample()

    def test_pinned_draw_verified_independently(self):
        """Re-derive the pinned draw's guarantees without library calls."""
        seed = SeedSampler(1, bit_width=8).sample()
        q, p = seed.denominator, seed.numerator
        assert q.bit_length() == 8 and q % 2 == 1
        assert _reference_miller_rabin(q)
        assert 0 < p < q and math.gcd(p, q) == 1

    def test_default_width_draw(self):
        seed = SeedSampler(3).sample()
        assert seed.denominator.bit_length() == 256
        assert _reference_miller_rabin(seed.denominator)
        assert Fraction(0) < seed.value < Fraction(1)

    def test_koksma_interval_range(self):
        seed = SeedSampler(5, bit_width=16).sample((Fraction(1), Fraction(2)))
        q, p = seed.denominator, seed.numerator
        assert q < p < 2 * q

    def test_interval_too_narrow(self):
        tiny = (Fraction(1, 10**200), Fraction(2, 10**200))
        with pytest.raises(IntervalWidthError):
            SeedSampler(1, bit_width=64).sample(tiny)

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_invariants_hold_for_any_rng_seed(self, rng_seed):
        seed = SeedSampler(rng_seed, bit_width=32).sample()
        assert is_probable_prime(seed.denominator)
        assert math.gcd(seed.numerator, seed.denominator) == 1


class TestFixedPointReal:
    def test_dyadic_exact(self):
        x = FixedPointReal.from_fraction(Fraction(5, 8), 10)
        assert (x.mantissa, x.frac_bits, x.err_ulps) == (640, 10, 0)

    def test_inexact_flagged(self):
        x = FixedPointReal.from_fraction(Fraction(1, 3), 10)
        assert x.err_ulps == 1
        assert abs(x.mantissa - Fraction(1, 3) * 2**10) <= x.err_ulps

    def test_mul_exact_dyadics(self):
        a = FixedPointReal.from_fraction(Fraction(3, 2), 8)
        b = FixedPointReal.from_fraction(Fraction(5, 4), 8)
        c = a.mul(b)
        assert (c.mantissa, c.err_ulps) == (15 * 2**5, 0)

    def test_mul_requires_same_width(self):
        a = FixedPointReal.from_fraction(Fraction(1, 2), 8)
        b = FixedPointReal.from_fraction(Fraction(1, 2), 9)
        with pytest.raises(ValueError):
            a.mul(b)

    def test_frac_wraps_mantissa(self):
        x = FixedPointReal.from_fraction(Fraction(27, 8), 16)
        assert x.frac().mantissa == 3 * 2**13

    # x / 2^shift and its floor(x / 2^shift + 1/2): ties go up for either sign
    @pytest.mark.parametrize(
        "x, shift, rounded",
        [(-3, 1, -1), (3, 1, 2), (-1, 1, 0), (1, 1, 1), (-12, 3, -1), (-4, 3, 0), (4, 3, 1)],
    )
    def test_rescale_ties_round_up(self, x, shift, rounded):
        s = FixedPointReal(x, shift).rescale(0)
        assert _round_div(x, 1 << shift) == (rounded, True)
        assert (s.mantissa, s.err_ulps) == (rounded, 1)

    @given(st.integers(-(2**80), 2**80), st.integers(1, 70), st.integers(0, 2**40))
    @settings(max_examples=300, deadline=None)
    def test_rescale_shift_equals_round_div(self, x, shift, err):
        s = FixedPointReal(x, shift + 8, err).rescale(8)
        m, inexact = _round_div(x, 1 << shift)
        assert (s.mantissa, s.frac_bits, s.err_ulps) == (m, 8, -(-err >> shift) + inexact)

    @given(
        st.integers(-(2**90), 2**90),
        st.integers(-(2**90), 2**90),
        st.integers(0, 70),
        st.integers(0, 2**40),
        st.integers(0, 2**40),
    )
    @settings(max_examples=300, deadline=None)
    def test_mul_equals_round_div(self, x, y, f, ex, ey):
        c = FixedPointReal(x, f, ex).mul(FixedPointReal(y, f, ey))
        m, inexact = _round_div(x * y, 1 << f)
        carried = abs(x) * ey + abs(y) * ex + ex * ey
        assert (c.mantissa, c.frac_bits, c.err_ulps) == (m, f, -(-carried // (1 << f)) + inexact)

    # the same width and frac_bits 0 round nothing: values as before rounding shared one helper
    @pytest.mark.parametrize("x, err", [(0, 0), (5, 0), (-5, 3), (2**70 + 1, 2**33)])
    def test_zero_shift_keeps_values(self, x, err):
        a = FixedPointReal(x, 12, err)
        assert a.rescale(12) == a
        c = FixedPointReal(x, 0, err).mul(FixedPointReal(-7, 0, 2))
        assert (c.mantissa, c.frac_bits, c.err_ulps) == (-7 * x, 0, 2 * abs(x) + 7 * err + 2 * err)

    @given(
        st.fractions(min_value=0, max_value=4),
        st.fractions(min_value=0, max_value=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_mul_error_bound_honest(self, x, y):
        a = FixedPointReal.from_fraction(x, 48)
        b = FixedPointReal.from_fraction(y, 48)
        c = a.mul(b)
        assert abs(c.mantissa - x * y * 2**48) <= c.err_ulps


class TestFixedPointPow:
    def test_dyadic_examples_exact(self):
        r = fixed_point_pow(Fraction(3, 2), 3)
        assert r.frac_bits == 64
        assert (r.mantissa, r.err_ulps) == (27 * 2**61, 0)

    def test_sqrt2_like_base_to_64_bits(self):
        # approximately sqrt(2); the power reaches ~2^50 yet stays
        # accurate to 64 fractional bits because quantization happens at
        # working width
        t = Fraction(141421356, 10**8)
        r = fixed_point_pow(t, 100)
        assert abs(r.mantissa - t**100 * 2**64) <= 4
        assert r.err_ulps <= 4

    def test_error_bound_honest_random(self):
        rng = random.Random(99)
        for _ in range(1000):
            t = Fraction(rng.randrange(2**20, 2**24), rng.randrange(2**16, 2**20))
            k = rng.randrange(1, 51)
            if (t.numerator.bit_length() - t.denominator.bit_length() + 1) * k > 4000:
                continue
            r = fixed_point_pow(t, k)
            assert abs(r.mantissa - t**k * 2**r.frac_bits) <= r.err_ulps

    # SHA-256 of the (mantissa, err_ulps) pairs, recorded when `mul` rounded by `_round_div`:
    # six k in 2..1500 at each of four 256-bit seeds (the koksma_power benchmark's reads),
    # a 64-bit seed, and (3/2)^k
    def test_pinned_bytes(self):
        one, two = Fraction(1), Fraction(2)
        reads = [
            (SeedSampler(master).sample((one, two)).value,
             sorted(random.Random(f"fpp/{master}").sample(range(2, 1501), 6)))
            for master in range(4)
        ]
        reads.append((SeedSampler(5, 64).sample((one, two)).value, [1, 2, 3, 64, 700, 1500]))
        reads.append((Fraction(3, 2), [1, 2, 3, 63, 64, 65, 1000]))
        pairs = [(r.mantissa, r.err_ulps) for t, ks in reads for r in (fixed_point_pow(t, k) for k in ks)]
        digest = "5743a01ef7505eaec4defb3db70acfc258f7ac0c0d0125d6c443fc5d279f991d"
        assert hashlib.sha256(repr(pairs).encode()).hexdigest() == digest

    def test_budget_error(self):
        with pytest.raises(PrecisionBudgetError):
            fixed_point_pow(Fraction(3, 2), 10**6)

    def test_rejects_bases_at_most_one(self):
        with pytest.raises(ValueError):
            fixed_point_pow(Fraction(1), 3)
        with pytest.raises(ValueError):
            fixed_point_pow(Fraction(2, 3), 3)


# p^2 - 3 q^2 = 1: t = 3q/p has t^2 = 3 - 3/p^2, just below an integer, and
# its twin p/q has t^2 = 3 + 1/q^2, just above one.
PELL_P, PELL_Q = 5170128475599457, 2984975067132296


def _within_bound(s: FixedPointReal, t: Fraction, k: int) -> bool:
    """|s - (p^k mod q^k) / q^k| <= s.err_ulps ulps, in integers (no gcd)."""
    p, q_k = t.numerator, t.denominator**k
    return abs(s.mantissa * q_k - ((p**k % q_k) << s.frac_bits)) <= s.err_ulps * q_k


def _pinned_read(name):
    """A seed, indices and hi: dense at 256 bits, lemma-3-like sparse at 64, and hi = 5/2."""
    two, five_halves = Fraction(2), Fraction(5, 2)
    if name == "dense":
        return SeedSampler(7, 256).sample((Fraction(1), two)).value, range(1, 2001), two
    if name == "sparse":
        indices = sorted(random.Random(3).sample(range(1, 4097), 64))
        return SeedSampler(11, 64).sample((Fraction(1), two)).value, indices, two
    return SeedSampler(13, 64).sample((Fraction(1), five_halves)).value, range(1, 1201), five_halves


class TestPowerStream:
    def test_matches_exact_rational(self):
        t = Fraction(14, 9)
        for k, s in enumerate(fixed_point_power_stream(t, range(1, 51), Fraction(2)), start=1):
            exact = (t**k) % 1
            assert abs(s.mantissa - exact * 2**s.frac_bits) <= s.err_ulps
            assert s.err_ulps <= 4

    def test_koksma_cube_example(self):
        samples = list(fixed_point_power_stream(Fraction(3, 2), range(1, 4), Fraction(2)))
        assert samples[2].mantissa == 3 * 2**61
        assert samples[2].err_ulps == 0

    def test_step_cap(self):
        gen = fixed_point_power_stream(Fraction(3, 2), range(1, 30_001), Fraction(2))
        with pytest.raises(PrecisionBudgetError):
            next(gen)

    def test_working_bit_cap(self):
        # hi = 4 costs 2 working bits per index: the last index that fits
        # DEFAULT_MAX_WORK_BITS is far below the step cap
        fits = (DEFAULT_MAX_WORK_BITS - 1 - POWER_STREAM_GUARD_BITS) // 2
        assert fits == 12_239 < DEFAULT_MAX_POWER_STEPS
        dense = fixed_point_power_stream(Fraction(3, 2), range(1, fits + 1), Fraction(4))
        assert next(dense).frac_bits == 64
        for count in (fits + 1, 12_300):
            gen = fixed_point_power_stream(Fraction(3, 2), range(1, count + 1), Fraction(4))
            with pytest.raises(PrecisionBudgetError, match="working bits"):
                next(gen)

    def test_caps_keyed_on_largest_index(self):
        # a single sparse index costs the width of the dense stream up to it
        fits = 12_239
        (s,) = fixed_point_power_stream(Fraction(3, 2), [fits], Fraction(4))
        assert _within_bound(s, Fraction(3, 2), fits)
        with pytest.raises(PrecisionBudgetError, match="working bits"):
            next(fixed_point_power_stream(Fraction(3, 2), [fits + 1], Fraction(4)))

    def test_seed_outside_interval(self):
        gen = fixed_point_power_stream(Fraction(5, 2), range(1, 11), Fraction(2))
        with pytest.raises(ValueError):
            next(gen)

    @pytest.mark.parametrize("indices", [[2, 1], [1, 1], [0, 1], [3, 5, 4]])
    def test_rejects_indices_not_strictly_ascending_positive(self, indices):
        with pytest.raises(ValueError, match="ascending"):
            next(fixed_point_power_stream(Fraction(3, 2), indices, Fraction(2)))

    @pytest.mark.parametrize(
        "t", [Fraction(3 * PELL_Q, PELL_P), Fraction(PELL_P, PELL_Q)], ids=["below", "above"]
    )
    def test_wrap_hazard_settled_exactly(self, t):
        # t^2 lies within ~2^-103 of 3, far inside the working error; below
        # 3, a wrapped mantissa 0 would be ~2^64 ulps off frac(t^2)
        samples = list(fixed_point_power_stream(t, range(1, 5), Fraction(2)))
        for k, s in enumerate(samples, start=1):
            assert _within_bound(s, t, k)

    @pytest.mark.parametrize("last, ulps", [(4, 2), (10, 3)], ids=["settle", "rescale"])
    def test_rounded_up_mantissa_stays_below_one(self, last, ulps):
        # frac(t^2) = 1 - 3/p^2 rounds up to 2^64 at 64 bits: read to index 4 the exact
        # settle rounds it, read to index 10 the rescale does; 0 would be 2^64 ulps off.
        # The clamp adds one ulp to the rounding's 1 or 2
        t = Fraction(3 * PELL_Q, PELL_P)
        s = list(fixed_point_power_stream(t, range(1, last + 1), Fraction(2)))[1]
        assert (s.mantissa, s.err_ulps) == (2**64 - 1, ulps)
        assert _within_bound(s, t, 2)

    # SHA-256 of the (mantissa, err_ulps) pairs, recorded when the stream ran at one
    # fixed width: the shrinking carrier changes no byte of these reads
    @pytest.mark.parametrize(
        "name, digest",
        [
            ("dense", "8eb29bf1b4142e43a32c4194a3b9b280add5aa04abea20f8891295157626c4e8"),
            ("sparse", "fcc178759668d969180a55b86e1ce77a49a69fe4f1c31cbc9bad6651d982e8fe"),
            ("hi_5_2", "8fc88ac709dce152e96d1e0115a4c18bacb0198928f41e04e79c110295f9b16a"),
        ],
    )
    def test_pinned_bytes(self, name, digest):
        samples = fixed_point_power_stream(*_pinned_read(name))
        pairs = [(s.mantissa, s.err_ulps) for s in samples]
        assert hashlib.sha256(repr(pairs).encode()).hexdigest() == digest

    @given(st.integers(0, 2**32), st.sampled_from([16, 64, 256]))
    @settings(max_examples=20, deadline=None)
    def test_alternating_carrier_drops_keep_the_bound(self, rng_seed, bits):
        # log2(5/2) = 1.32: a unit step drops the carrier by 1 or 2 bits in turn
        hi, last = Fraction(5, 2), 300
        lg = math.log2(5) - 1
        assert {math.ceil((last - k) * lg) - math.ceil((last - k - 1) * lg) for k in range(last)} == {1, 2}
        t = SeedSampler(rng_seed, bits).sample((Fraction(1), hi)).value
        for k, s in enumerate(fixed_point_power_stream(t, range(1, last + 1), hi), start=1):
            assert _within_bound(s, t, k)
            assert s.err_ulps <= (3 if s.mantissa == 2**64 - 1 else 2)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_sparse_reads_equal_dense_and_exact(self, data):
        bits = data.draw(st.integers(16, 256))
        q = data.draw(st.integers(2 ** (bits - 1), 2**bits - 1))
        t = Fraction(data.draw(st.integers(q + 1, 2 * q - 1)), q)
        indices = sorted(data.draw(st.sets(st.integers(1, 3000), min_size=1, max_size=12)))
        dense = list(fixed_point_power_stream(t, range(1, indices[-1] + 1), Fraction(2)))
        sparse = list(fixed_point_power_stream(t, indices, Fraction(2)))
        assert sparse == [dense[k - 1] for k in indices]
        for k, s in zip(indices, sparse):
            assert _within_bound(s, t, k)
            assert s.mantissa < 2**64
        # the primitive wants strictly ascending indices; the reader sorts them
        shuffled = data.draw(st.permutations(indices + indices[:1]))
        with pytest.raises(ValueError):
            next(fixed_point_power_stream(t, shuffled, Fraction(2)))
        seed = RationalSeed(
            t.numerator, t.denominator, (Fraction(1), Fraction(2)), prime_denominator=False
        )
        assert _samples_at(GeneratorSpec.koksma(), seed, shuffled) == [dense[k - 1] for k in shuffled]


class TestOrderAtMost:
    @staticmethod
    def _stepped_order(base: int, q: int) -> int:
        x, o = base % q, 1
        while x != 1:
            x, o = x * base % q, o + 1
        return o

    def test_matches_stepping_for_primes_below_2000(self):
        primes = [q for q in range(3, 2000) if all(q % p for p in range(2, math.isqrt(q) + 1))]
        for q in primes:
            for base in (2, 3, q - 1):
                if base % q == 0:
                    continue
                order = self._stepped_order(base, q)
                for bound in {1, 2, order - 1, order, order + 1, q - 1, 3 * q}:
                    if bound < 1:
                        continue
                    want = order if order <= bound else None
                    assert order_at_most(base, q, bound) == want, (base, q, bound)

    def test_large_prime_beyond_bound(self):
        # a 61-bit Mersenne prime: ord(2) = 61, ord(3) is far beyond any small bound
        q = 2**61 - 1
        assert order_at_most(2, q, 10**6) == 61
        assert order_at_most(3, q, 10**6) is None


# documented raises that no other test reaches: (call, exception type, reason)
RAISES = {
    "as-fraction-float": (lambda: arithmetic._as_fraction(1.5), TypeError,
                          "exact rational bound, got float"),
    "seed-empty-interval": (lambda: RationalSeed(1, 3, interval=(Fraction(1, 2), Fraction(1, 2))),
                            IntervalWidthError, "empty interval"),
    "seed-one-bound": (lambda: RationalSeed(3, 2, interval=(1,), prime_denominator=False),
                       ValueError, "interval takes two bounds, got 1"),
    "seed-three-bounds": (lambda: RationalSeed(3, 2, interval=(1, 2, 0), prime_denominator=False),
                          ValueError, "interval takes two bounds, got 3"),
    "seed-numerator": (lambda: RationalSeed(-1, 3, interval=(Fraction(-1), Fraction(1))),
                       ValueError, "numerator must be positive"),
    "sample-empty-interval": (lambda: SeedSampler(1, 16).sample((Fraction(2), Fraction(1))),
                              IntervalWidthError, "empty interval"),
    "sample-one-bound": (lambda: SeedSampler(1, 64).sample((1,)), ValueError,
                         "interval takes two bounds, got 1"),
    "sample-three-bounds": (lambda: SeedSampler(1, 64).sample((1, 2, 0)), ValueError,
                            "interval takes two bounds, got 3"),
    # only p = q lies strictly inside (1 - 2^-20, 1 + 2^-20) for an 8-bit q
    "sample-no-coprime": (lambda: SeedSampler(1, 8).sample(
        (1 - Fraction(1, 2**20), 1 + Fraction(1, 2**20))), IntervalWidthError, "coprime"),
    "fixed-frac-bits": (lambda: FixedPointReal(1, -1), ValueError, "frac_bits must be nonnegative"),
    "fixed-err-ulps": (lambda: FixedPointReal(1, 4, -1), ValueError, "err_ulps must be nonnegative"),
    "pow-k-zero": (lambda: fixed_point_pow(Fraction(3, 2), 0), ValueError, "k must be at least 1"),
}


@pytest.mark.parametrize("call, error, reason", RAISES.values(), ids=RAISES.keys())
def test_documented_raises(call, error, reason):
    with pytest.raises(error, match=reason):
        call()
