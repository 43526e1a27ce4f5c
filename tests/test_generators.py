"""Generator families, window constructions, and stream plumbing."""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equidist import generators
from equidist.arithmetic import FixedPointReal, RationalSeed, SeedSampler
from equidist.errors import StreamLengthError
from equidist.generators import (
    ArithmeticIndices,
    GeneratorSpec,
    UnitSample,
    WindowConfig,
    beta_stream,
    export_stream_csv,
    interleaved_vectors,
    _samples_at,
    _scalars_at,
    _words_at,
    residue_stream,
    stream_floats,
    unit_float,
    windows_array,
)
from equidist.discrepancy import star_discrepancy_1d
from equidist.stochastic import _draw_seeds


def _values(stream):
    return [s.value for s in stream]


THIRD = RationalSeed(1, 3, prime_denominator=True)
FIFTH = RationalSeed(1, 5, prime_denominator=True)


class TestBetaStreams:
    def test_weyl_one_third(self):
        got = _values(beta_stream(GeneratorSpec.weyl(1), THIRD, 3))
        assert got == [Fraction(1, 3), Fraction(2, 3), Fraction(0)]

    def test_factorial_fifth(self):
        got = _values(beta_stream(GeneratorSpec.factorial(), FIFTH, 5))
        assert got == [
            Fraction(1, 5),
            Fraction(2, 5),
            Fraction(1, 5),
            Fraction(4, 5),
            Fraction(0),
        ]

    def test_multiplicative_third(self):
        got = _values(beta_stream(GeneratorSpec.multiplicative(2), THIRD, 4))
        assert got == [Fraction(2, 3), Fraction(1, 3)] * 2

    def test_koksma_cube(self):
        seed = RationalSeed(3, 2, interval=(Fraction(1), Fraction(2)))
        got = beta_stream(GeneratorSpec.koksma(2), seed, 3)
        assert got[2].as_float() == 0.375
        assert not got[2].exact

    def test_koksma_rational_agreement(self):
        t = Fraction(13, 9)
        seed = RationalSeed(13, 9, interval=(Fraction(1), Fraction(2)), prime_denominator=False)
        stream = beta_stream(GeneratorSpec.koksma(2), seed, 50)
        for k, s in enumerate(stream, start=1):
            exact = (t**k) % 1
            assert abs(s.value - exact) < Fraction(1, 2**60)

    def test_self_power(self):
        got = _values(beta_stream(GeneratorSpec.self_power(), FIFTH, 4))
        # k^k mod 5 for k=1..4: 1, 4, 27 mod 5 = 2, 256 mod 5 = 1
        assert got == [Fraction(1, 5), Fraction(4, 5), Fraction(2, 5), Fraction(1, 5)]

    def test_linear_arithmetic_descriptor(self):
        spec = GeneratorSpec.linear(ArithmeticIndices(start=2, stride=3))
        got = _values(beta_stream(spec, FIFTH, 4))
        # coefficients 2, 5, 8, 11
        assert got == [Fraction(2, 5), Fraction(0), Fraction(3, 5), Fraction(1, 5)]

    def test_modular_direct_agreement(self):
        """(c_k p mod q)/q must equal frac(c_k p / q) by full division."""
        seed = SeedSampler(17, bit_width=64).sample()
        p, q = seed.numerator, seed.denominator
        coeffs = {
            GeneratorSpec.weyl(3): lambda k: k**3,
            GeneratorSpec.multiplicative(5): lambda k: 5**k,
            GeneratorSpec.factorial(): lambda k: math.factorial(k),
            GeneratorSpec.self_power(): lambda k: k**k,
            GeneratorSpec.linear(ArithmeticIndices(3, 2)): lambda k: 3 + 2 * (k - 1),
        }
        for spec, c in coeffs.items():
            stream = beta_stream(spec, seed, 20)
            for k, s in enumerate(stream, start=1):
                assert s.value == Fraction(c(k) * p, q) % 1

    def test_permuted_stream(self):
        spec = GeneratorSpec.factorial().permuted([3, 1, 5])
        got = _values(beta_stream(spec, FIFTH, 3))
        base = _values(beta_stream(GeneratorSpec.factorial(), FIFTH, 5))
        assert got == [base[2], base[0], base[4]]

    def test_permutation_must_be_distinct(self):
        with pytest.raises(ValueError):
            beta_stream(GeneratorSpec.factorial().permuted([1, 2, 1]), FIFTH, 3)

    def test_permutation_must_be_positive(self):
        with pytest.raises(ValueError):
            beta_stream(GeneratorSpec.factorial().permuted([0, 1]), FIFTH, 2)

    @pytest.mark.parametrize(
        "perm", [[5, 6, 7], ArithmeticIndices(2, 3)], ids=["tuple", "arithmetic"]
    )
    @pytest.mark.parametrize("position", [0, -1])
    def test_position_below_one_rejected(self, perm, position):
        # a tuple would be read from its end, ArithmeticIndices below its start
        with pytest.raises(ValueError):
            generators._indices_at(GeneratorSpec.factorial().permuted(perm), [position])

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GeneratorSpec.weyl(0)
        with pytest.raises(ValueError):
            GeneratorSpec.multiplicative(1)
        with pytest.raises(ValueError):
            GeneratorSpec.koksma(1)

    def test_seed_outside_family_interval(self):
        with pytest.raises(ValueError):
            beta_stream(GeneratorSpec.koksma(2), THIRD, 3)

    @pytest.mark.parametrize(
        "spec, lo, hi",
        [
            (GeneratorSpec.factorial(), Fraction(0), Fraction(1)),
            (GeneratorSpec.weyl(1), Fraction(0), Fraction(1)),
            (GeneratorSpec.koksma(2), Fraction(1), Fraction(2)),
            (GeneratorSpec.koksma(Fraction(5, 3)), Fraction(1), Fraction(5, 3)),
        ],
        ids=["factorial", "weyl1", "koksma_2", "koksma_5_3"],
    )
    def test_seed_interval_edges(self, spec, lo, hi):
        # a ratio on an edge is rejected, the nearest numerator inside over the same q
        # is read; the edges are not RationalSeeds, so bare (numerator, denominator) pairs
        for q in (3, 7, 2**64 + 13):
            for edge, inside in ((lo, math.floor(lo * q) + 1), (hi, math.ceil(hi * q) - 1)):
                p = edge * q
                if p.denominator == 1:
                    on_edge = SimpleNamespace(numerator=int(p), denominator=q)
                    with pytest.raises(ValueError, match="outside the family interval"):
                        _samples_at(spec, on_edge, [1, 2])
                seed = RationalSeed(inside, q, interval=(lo, hi), prime_denominator=False)
                assert len(_samples_at(spec, seed, [1, 2])) == 2
        outside = SimpleNamespace(numerator=int(hi * 3) + 1, denominator=3)
        with pytest.raises(ValueError, match="outside the family interval"):
            _samples_at(spec, outside, [1])


class TestUnitSample:
    def test_exact_carrier(self):
        s = UnitSample(k=1, residue=2, denominator=5)
        assert s.exact and s.value == Fraction(2, 5)

    def test_residue_range(self):
        with pytest.raises(ValueError):
            UnitSample(k=1, residue=5, denominator=5)

    def test_exactly_one_carrier(self):
        with pytest.raises(ValueError):
            UnitSample(k=1)

    def test_unit_float_correct_rounding(self):
        q = (1 << 61) - 1
        for p in (1, 2, q // 3, q // 2, q - (1 << 20)):
            assert unit_float(p, q) == float(Fraction(p, q))

    def test_unit_float_clamps_below_one(self):
        # (q-1)/q rounds to 1.0 as a double; the clamp keeps it inside [0,1)
        q = (1 << 61) - 1
        assert float(Fraction(q - 1, q)) == 1.0
        assert unit_float(q - 1, q) == math.nextafter(1.0, 0.0)

    def test_koksma_crossing_clamps_below_one(self, monkeypatch):
        # a 64-bit mantissa of 2^64 - 1 rounds to 1.0 as a double
        top = FixedPointReal(2**64 - 1, 64)
        assert top.to_float() == 1.0
        below_one = math.nextafter(1.0, 0.0)
        sample = UnitSample(k=1, fixed=top)
        assert sample.as_float() == below_one
        assert sample.ratio == (2**64 - 1, 2**64)
        assert stream_floats([sample]).tolist() == [below_one]
        monkeypatch.setattr(generators, "_samples_at", lambda spec, seed, indices: [top])
        seed = RationalSeed(3, 2, interval=(Fraction(1), Fraction(2)))
        floats = _scalars_at(GeneratorSpec.koksma(), seed, [1])
        assert floats.tolist() == [below_one]
        assert star_discrepancy_1d(floats).value == below_one


    def test_koksma_sample_just_below_one_reads_below_one(self):
        # t = 3 q / p with p^2 - 3 q^2 = 1: frac(t^2) = 1 - 3/p^2 rounds up to 2^64 at
        # 64 bits and is clamped to 2^64 - 1; wrapped to 0 every view would be 1 off
        p, q = 5170128475599457, 2984975067132296
        seed = RationalSeed(3 * q, p, (Fraction(1), Fraction(2)), prime_denominator=False)
        spec, below_one = GeneratorSpec.koksma(), math.nextafter(1.0, 0.0)
        stream = beta_stream(spec, seed, 3)
        assert stream[1].value == Fraction(2**64 - 1, 2**64)
        assert stream[1].as_float() == below_one
        assert stream_floats(stream)[1] == below_one
        assert _scalars_at(spec, seed, [2]).tolist() == [below_one]
        assert _words_at(spec, seed, [2]).tolist() == [2**64 - 1]


class TestWindows:
    def test_disjoint_blocks(self):
        s = np.arange(1, 7, dtype=float)
        cfg = WindowConfig(d=2, h=2)
        assert windows_array(s, cfg).tolist() == [[1, 2], [3, 4], [5, 6]]

    def test_overlapping(self):
        cfg = WindowConfig(d=2, h=1)
        assert windows_array([1, 2, 3, 4], cfg).tolist() == [[1, 2], [2, 3], [3, 4]]

    def test_offset(self):
        cfg = WindowConfig(d=1, h=1, o=3)
        assert windows_array([1, 2, 3, 4, 5], cfg).tolist() == [[4], [5]]

    def test_stream_too_short(self):
        with pytest.raises(StreamLengthError):
            windows_array([1, 2, 3], WindowConfig(d=2, h=2), count=2)

    def test_stream_length_accounting(self):
        # the last position any window reads
        cfg = WindowConfig(d=3, h=2, o=1)
        assert cfg.stream_length(4) == 1 + 3 * 2 + 3
        assert cfg.stream_length(0) == 0
        # interleaved: seed 3 of window 4 reads generator index (4 - 1) 3 + 3
        assert WindowConfig(d=3, construction="interleaved_a").stream_length(4) == 12

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count must be nonnegative"):
            windows_array(np.arange(10) / 10, WindowConfig(d=1), -1)
        with pytest.raises(ValueError, match="count must be nonnegative"):
            WindowConfig(d=3).stream_length(-1)
        with pytest.raises(ValueError, match="count must be nonnegative"):
            interleaved_vectors(GeneratorSpec.weyl(1), [THIRD, FIFTH], -1)
        assert windows_array(np.arange(10) / 10, WindowConfig(d=2), 0).shape == (0, 2)

    def test_positions_are_the_layout(self):
        cfg = WindowConfig(d=2, h=3, o=1)
        assert [list(c) for c in cfg.positions(3)] == [[2, 5, 8], [3, 6, 9]]
        assert cfg.positions([3, 1, 3]) == [[8, 2, 8], [9, 3, 9]]
        inter = WindowConfig(d=2, construction="interleaved_a")
        assert [list(c) for c in inter.positions(3)] == [[1, 3, 5], [2, 4, 6]]
        with pytest.raises(ValueError, match="start at 1"):
            cfg.positions([2, 0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WindowConfig(d=0)
        with pytest.raises(ValueError):
            WindowConfig(h=0)
        with pytest.raises(ValueError):
            WindowConfig(o=-1)
        with pytest.raises(ValueError):
            WindowConfig(construction="nope")

    def test_interleaved_takes_no_shift_or_offset(self):
        # interleaved_a stacks one column per seed and never reads h or o
        for h, o in ((3, 5), (3, 0), (1, 5)):
            with pytest.raises(ValueError, match="interleaved_a"):
                WindowConfig(d=2, h=h, o=o, construction="interleaved_a")
        assert WindowConfig(d=2, construction="interleaved_a").h == 1


class TestInterleaved:
    def test_two_seed_example(self):
        vecs = interleaved_vectors(GeneratorSpec.weyl(1), [THIRD, FIFTH], 2)
        first = tuple(s.value for s in vecs[0])
        second = tuple(s.value for s in vecs[1])
        assert first == (Fraction(1, 3), Fraction(2, 5))
        assert second == (Fraction(0), Fraction(4, 5))

    def test_d_one_reduces_to_beta_stream(self):
        vecs = interleaved_vectors(GeneratorSpec.factorial(), [FIFTH], 5)
        assert [v[0].value for v in vecs] == _values(
            beta_stream(GeneratorSpec.factorial(), FIFTH, 5)
        )

    def test_seed_arity_error(self):
        with pytest.raises(ValueError, match="at least one seed"):
            interleaved_vectors(GeneratorSpec.weyl(1), [], 2)

    def test_rejects_permuted_spec(self):
        spec = GeneratorSpec.weyl(1).permuted([2, 1])
        with pytest.raises(ValueError):
            interleaved_vectors(spec, [THIRD, FIFTH], 2)


READER_SPECS = [
    GeneratorSpec.factorial(),
    GeneratorSpec.multiplicative(3),
    GeneratorSpec.koksma(),
    GeneratorSpec.linear([3, 1, 4, 1, 5, 9, 2, 6] * 20).permuted(range(160, 0, -1)),
]
READER_SEEDS = [
    _draw_seeds(spec.seed_interval(), 3, 41, 64) for spec in READER_SPECS
]


class TestWindowReader:
    @settings(max_examples=60, deadline=None)
    @given(
        family=st.integers(0, len(READER_SPECS) - 1),
        d=st.integers(1, 3),
        h=st.integers(1, 4),
        o=st.integers(0, 3),
        interleaved=st.booleans(),
        ks=st.lists(st.integers(1, 30), max_size=8),
        m=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    )
    def test_sparse_rows_are_dense_rows(self, family, d, h, o, interleaved, ks, m):
        from equidist.stochastic import _coefficient, _window_sums
        from equidist.weyl import MultiIndex

        spec, seeds = READER_SPECS[family], READER_SEEDS[family]
        if interleaved and spec.permutation is not None:
            spec = GeneratorSpec.factorial()
        if interleaved:
            cfg, seed = WindowConfig(d=d, construction="interleaved_a"), seeds[:d]
            layout = [[(k - 1) * d + j for k in ks] for j in range(1, d + 1)]
        else:
            cfg, seed = WindowConfig(d=d, h=h, o=o), seeds[0]
            layout = [[(k - 1) * h + o + j for k in ks] for j in range(1, d + 1)]
        assert cfg.positions(ks) == layout
        at = np.array(ks, dtype=int) - 1
        for read in (_words_at, generators._scalars_at):
            dense = generators._read_windows(read, spec, seed, cfg, max(ks, default=0))
            sparse = generators._read_windows(read, spec, seed, cfg, ks)
            for a, b in zip(sparse, dense):
                assert a.tobytes() == b[at].tobytes()
        if spec.exact and not interleaved and any(m[:d]):
            # w_k = sum_j m_j c_a, a the generator index at the position coordinate j reads
            w = _window_sums(spec, cfg, MultiIndex(m[:d]), ks)
            index = lambda p: generators._indices_at(spec, [p])[0]  # noqa: E731
            for i, k in enumerate(ks):
                assert w[k] == sum(c * _coefficient(spec, index(col[i])) for c, col in zip(m, layout))


class TestWindowingIsNotSimpleEquidistribution:
    def test_scaled_half_orbits_counterexample(self):
        """A simply equidistributed stream whose h=2 windows are not.

        Odd entries walk the golden-rotation orbit squeezed into [0, 1/2),
        even entries the same orbit shifted into [1/2, 1).  The union is
        uniform on [0, 1), but the d=1, h=2 window sees only the odd
        subsequence, which never leaves the lower half.
        """
        n = 2000
        phi = (5**0.5 - 1) / 2
        odd = (np.arange(1, n + 1) * phi % 1.0) / 2
        even = 0.5 + (np.arange(1, n + 1) * (2**0.5 - 1) % 1.0) / 2
        stream = np.empty(2 * n)
        stream[0::2] = odd
        stream[1::2] = even
        assert star_discrepancy_1d(stream).value < 0.05
        windowed = windows_array(stream, WindowConfig(d=1, h=2))
        assert star_discrepancy_1d(windowed[:, 0]).value > 0.45


class TestStreamSerialization:
    def test_exact_csv_round_trip(self, tmp_path):
        stream = beta_stream(GeneratorSpec.factorial(), FIFTH, 5)
        path = tmp_path / "stream.csv"
        export_stream_csv(path, stream)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,residue,denominator"
        assert lines[1] == "1,1,5"
        assert len(lines) == 6

    def test_float_csv_for_koksma(self, tmp_path):
        seed = RationalSeed(3, 2, interval=(Fraction(1), Fraction(2)))
        stream = beta_stream(GeneratorSpec.koksma(2), seed, 3)
        path = tmp_path / "stream.csv"
        export_stream_csv(path, stream)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "k,value"
        assert float(lines[3].split(",")[1]) == 0.375


class TestResidueStream:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_fast_recurrences_match_direct(self, rng_seed):
        seed = SeedSampler(rng_seed, bit_width=32).sample()
        p, q = seed.numerator, seed.denominator
        shuffled = list(range(1, 13))
        random.Random(rng_seed).shuffle(shuffled)
        layouts = (
            list(range(1, 13)),  # consecutive
            list(range(2, 40, 3)),  # stride d = 3, as one interleaved column
            shuffled,  # permuted
            [7, 3, 7, 1],  # unsorted, with a repeat
        )
        for spec, c in (
            (GeneratorSpec.factorial(), math.factorial),
            (GeneratorSpec.multiplicative(3), lambda k: 3**k),
            (GeneratorSpec.weyl(1), lambda k: k),
            (GeneratorSpec.weyl(3), lambda k: k**3),
            (GeneratorSpec.self_power(), lambda k: k**k),
        ):
            res, got_q = residue_stream(spec, seed, 12)
            assert got_q == q
            assert res == [c(k) * p % q for k in range(1, 13)]
            for indices in layouts:
                want = [c(k) * p % q for k in indices]
                assert _samples_at(spec, seed, indices) == want
            res, _ = residue_stream(spec.permuted(shuffled), seed, 12)
            assert res == [c(k) * p % q for k in shuffled]

    @pytest.mark.parametrize("bits", [16, 64, 256])
    def test_self_power_table_matches_direct_power(self, bits):
        seed = SeedSampler(31, bit_width=bits).sample()
        p, q = seed.numerator, seed.denominator
        rng = random.Random(bits)
        n = 2 * 9973 + 54  # the dense table reaches j = 9973 at k = 2 * 9973
        shuffled = [rng.randrange(1, 3000) for _ in range(400)]
        layouts = (
            range(1, n + 1),
            list(range(1, n + 1)),
            sorted(rng.sample(range(1, 40 * n), 300)),  # sparse: most sit above the table
            shuffled + shuffled[:40],  # unsorted, with repeats
            [1, 2, 3, 4, 9, 25, 49, 961, 9973, 2 * 9973],  # the table stops at 9
            list(range(1500, 3000)),  # the table runs past the read count, to 2999
            [2, 100],
            [10**7],
            [],
        )
        for indices in layouts:
            want = [pow(k, k, q) * p % q for k in indices]
            assert _samples_at(GeneratorSpec.self_power(), seed, indices) == want

    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec.weyl(1),
            GeneratorSpec.weyl(2),
            GeneratorSpec.multiplicative(2),
            GeneratorSpec.factorial(),
            GeneratorSpec.self_power(),
            GeneratorSpec.linear([3, 1, 4]),
            GeneratorSpec.koksma(),
        ],
        ids=["weyl1", "weyl2", "mult2", "factorial", "self_power", "linear", "koksma"],
    )
    def test_indices_below_one_rejected(self, spec):
        seed = SeedSampler(3, bit_width=64).sample(spec.seed_interval())
        for indices in ([0], [-1], [3, 0, 2], range(0, 3)):
            with pytest.raises(ValueError, match="start at 1"):
                _samples_at(spec, seed, indices)
        with pytest.raises(ValueError):
            _scalars_at(spec, seed, [2, 0])

    def test_koksma_reader_matches_stream(self):
        sampler = SeedSampler(29, bit_width=64)
        shuffled = list(range(1, 61))
        random.Random(3).shuffle(shuffled)
        layouts = (shuffled, [7, 3, 7, 1, 60, 3], list(range(60, 0, -2)) * 2, [])
        for spec in (
            GeneratorSpec.koksma(),
            GeneratorSpec.koksma(Fraction(3, 2)).permuted(ArithmeticIndices(2, 3)),
        ):
            seed = sampler.sample(spec.seed_interval())
            stream = beta_stream(spec, seed, 60)
            floats = stream_floats(stream)
            for positions in layouts:
                got = _scalars_at(spec, seed, positions)
                assert got.tobytes() == floats[np.array(positions, dtype=int) - 1].tobytes()
                indices = [stream[i - 1].k for i in positions]
                assert _samples_at(spec, seed, indices) == [stream[i - 1].fixed for i in positions]

    def test_floats_match_values(self):
        seed = SeedSampler(23, bit_width=64).sample()
        stream = beta_stream(GeneratorSpec.factorial(), seed, 50)
        floats = stream_floats(stream)
        for s, f in zip(stream, floats):
            assert f == s.as_float() == float(s.value)


NOT_AN_INT = "cannot be interpreted as an integer"

# inputs rejected when a spec or window layout is built, or a window index is laid out:
# (build, exception type, reason)
REJECTED_WHEN_BUILT = {
    "float-residues": (lambda: ArithmeticIndices(1.5, 1), TypeError, NOT_AN_INT),
    "float-stride": (lambda: ArithmeticIndices(1, 2.0), TypeError, NOT_AN_INT),
    "truncated-coefficients": (lambda: GeneratorSpec.linear([1.7, 2.2]), TypeError, NOT_AN_INT),
    "float-power": (lambda: GeneratorSpec.weyl(2.0), TypeError, NOT_AN_INT),
    "float-base": (lambda: GeneratorSpec.multiplicative(2.5), TypeError, NOT_AN_INT),
    "float-permutation": (lambda: GeneratorSpec.factorial().permuted([2.0, 1]), TypeError,
                          NOT_AN_INT),
    "zero-coefficients": (lambda: GeneratorSpec.linear((0,) * 200), ValueError,
                          "coefficients entries must be positive"),
    "negative-coefficient": (lambda: GeneratorSpec("linear_integer", coefficients=(3, -1)),
                             ValueError, "coefficients entries must be positive"),
    # a read of the first three positions never meets the repeat
    "permutation-repeat-beyond-prefix": (lambda: GeneratorSpec.factorial().permuted([3, 1, 2, 3]),
                                         ValueError, "permutation entries must be positive, distinct"),
    "permutation-zero": (lambda: GeneratorSpec.factorial().permuted([2, 0]), ValueError,
                         "permutation entries must be positive"),
    "float-window-d": (lambda: WindowConfig(d=1.5), TypeError, NOT_AN_INT),
    "float-window-h": (lambda: WindowConfig(h=2.0), TypeError, NOT_AN_INT),
    "float-window-o": (lambda: WindowConfig(o=0.5), TypeError, NOT_AN_INT),
    "float-window-index": (lambda: WindowConfig(d=2).positions([1.5]), TypeError, NOT_AN_INT),
    "float-interval": (lambda: GeneratorSpec("koksma", interval=(1.0, 2.5)), TypeError,
                       "expected exact rational bound, got float"),
    "one-bound-interval": (lambda: GeneratorSpec("koksma", interval=(1,)), ValueError,
                           "interval takes two bounds, got 1"),
}

KOKSMA_SEED = RationalSeed(3, 2, interval=(Fraction(1), Fraction(2)))

# documented raises that no other test reaches: (call, exception type, reason)
RAISES = {
    "arithmetic-start": (lambda: ArithmeticIndices(0, 1), ValueError,
                         "start and stride must be positive"),
    "descriptor-end": (lambda: residue_stream(GeneratorSpec.linear((1, 2, 3)), FIFTH, 4),
                       StreamLengthError, "descriptor has 3 entries, index 4 requested"),
    "unknown-family": (lambda: GeneratorSpec("fibonacci"), ValueError, "unknown family"),
    "linear-descriptor": (lambda: GeneratorSpec("linear_integer"), ValueError,
                          "needs a coefficient descriptor"),
    "koksma-no-interval": (lambda: GeneratorSpec("koksma"), ValueError,
                           r"koksma needs an interval \(1, a\) with a > 1"),
    "koksma-below-one": (lambda: GeneratorSpec("koksma", interval=(Fraction(1, 2), 2)), ValueError,
                         r"koksma needs an interval \(1, a\) with a > 1"),
    # a parameter the family never reads: (5, 7) would be stored, and factorial with
    # power=3 would differ from GeneratorSpec.factorial() though both give one stream
    "interval-off-koksma": (lambda: GeneratorSpec("factorial", interval=(5, 7)), ValueError,
                            "factorial takes no interval"),
    "power-off-weyl": (lambda: GeneratorSpec("factorial", power=3), ValueError,
                       "factorial takes no power"),
    "base-off-multiplicative": (lambda: GeneratorSpec("weyl_power", power=2, base=3), ValueError,
                                "weyl_power takes no base"),
    "coefficients-off-linear": (lambda: GeneratorSpec("koksma", interval=(1, 2), coefficients=(1,)),
                                ValueError, "koksma takes no coefficients"),
    "fixed-above-one": (lambda: UnitSample(k=1, fixed=FixedPointReal(2**64, 64)), ValueError,
                        r"fixed-point sample outside \[0, 1\)"),
    "residue-alone": (lambda: UnitSample(k=1, residue=1), ValueError, "go together"),
    "residue-count": (lambda: residue_stream(GeneratorSpec.factorial(), FIFTH, -1), ValueError,
                      "count must be nonnegative"),
    "residue-koksma": (lambda: residue_stream(GeneratorSpec.koksma(), KOKSMA_SEED, 3), ValueError,
                       "no exact residue path"),
    "beta-count": (lambda: beta_stream(GeneratorSpec.factorial(), FIFTH, -1), ValueError,
                   "count must be nonnegative"),
    "sliding-seed-list": (lambda: generators._read_windows(
        _scalars_at, GeneratorSpec.factorial(), [FIFTH, THIRD], WindowConfig(d=2), 3),
        ValueError, "sliding_bc takes a single seed"),
    "windows-array-interleaved": (lambda: windows_array(
        [0.5] * 4, WindowConfig(d=2, construction="interleaved_a")), ValueError,
        "applies to the sliding_bc construction"),
}


class TestSpecCheckedWhenBuilt:
    @pytest.mark.parametrize("build, error, reason", REJECTED_WHEN_BUILT.values(),
                             ids=REJECTED_WHEN_BUILT.keys())
    def test_rejected_when_built(self, build, error, reason):
        with pytest.raises(error, match=reason):
            build()

    @pytest.mark.parametrize("call, error, reason", RAISES.values(), ids=RAISES.keys())
    def test_documented_raises(self, call, error, reason):
        with pytest.raises(error, match=reason):
            call()

    def test_every_spec_hashes(self):
        pairs = [
            (GeneratorSpec("koksma", interval=[Fraction(1), Fraction(5, 2)]),
             GeneratorSpec.koksma(Fraction(5, 2))),
            (GeneratorSpec("linear_integer", coefficients=[3, 5]), GeneratorSpec.linear((3, 5))),
            (GeneratorSpec("factorial", permutation=np.array([2, 1])),
             GeneratorSpec.factorial().permuted((2, 1))),
        ]
        for listed, built in pairs:
            assert listed == built and hash(listed) == hash(built)

    def test_numpy_integers_become_ints(self):
        # a numpy power fails in pow(k, power, q); as an int the stream is the int spec's
        spec = GeneratorSpec.weyl(np.int64(2))
        assert type(spec.power) is int and spec == GeneratorSpec.weyl(2)
        assert residue_stream(spec, FIFTH, 4) == residue_stream(GeneratorSpec.weyl(2), FIFTH, 4)
        coefficients = GeneratorSpec.linear(np.array([3, 5])).coefficients
        assert coefficients == (3, 5) and {type(c) for c in coefficients} == {int}
