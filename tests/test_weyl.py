"""Weyl sums, multi-index lattices, checkpoints, degenerate certificates."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equidist.arithmetic import RationalSeed, SeedSampler
from equidist.generators import (
    GeneratorSpec,
    PhaseTable,
    UnitSample,
    WindowConfig,
    _neg_inverse,
    _read_windows,
    _unit_samples_at,
    _unit_words,
    _word_table,
    _words_at,
    beta_stream,
    interleaved_vectors,
    unit_float,
)
from equidist.stochastic import _draw_seeds
from equidist.weyl import (
    _CHUNK,
    MultiIndex,
    WeylSeries,
    _phase_columns,
    _running_sums,
    _term_chunks,
    canonical_half,
    checkpoint_grid,
    criterion_scan,
    degenerate_m_multiplicative,
    degenerate_m_weyl,
    multi_indices,
    scan_points,
    weyl_sum,
)


class TestCheckpointGrid:
    def test_small_n_is_single_checkpoint(self):
        assert checkpoint_grid(10) == [10]

    def test_first_checkpoint(self):
        grid = checkpoint_grid(10_000)
        assert grid[0] == 26  # ceil(1.5^8)
        assert grid[-1] == 10_000

    def test_strictly_increasing_and_geometric(self):
        grid = checkpoint_grid(10_000)
        assert all(b > a for a, b in zip(grid, grid[1:]))
        # consecutive ratios stay near 1.5 except the tail clamp
        for a, b in zip(grid[:-2], grid[1:-1]):
            assert 1.3 < b / a < 1.6

    def test_contains_exact_powers(self):
        grid = checkpoint_grid(100)
        assert grid == [26, 39, 58, 87, 100]

    def test_numpy_integer_gives_python_ints(self):
        grid = checkpoint_grid(np.int64(300))
        assert grid == checkpoint_grid(300)
        assert all(type(n) is int for n in grid)


class TestMultiIndex:
    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            MultiIndex((0, 0))

    def test_weight(self):
        assert MultiIndex((2, -3)).weight == 6
        assert MultiIndex((0, 1)).weight == 1

    def test_canonical_predicate(self):
        # canonical means the first nonzero component is positive
        assert not MultiIndex((0, -1, 2)).canonical
        assert MultiIndex((0, 1, -2)).canonical
        assert MultiIndex((1, -2)).canonical
        assert (-MultiIndex((0, -1, 2))).canonical

    def test_negation(self):
        assert (-MultiIndex((1, -2))).components == (-1, 2)

    def test_lattice_counts(self):
        assert len(multi_indices(2, 1)) == 8  # 3^2 - 1
        assert len(canonical_half(2, 1)) == 4
        full = {m.components for m in multi_indices(2, 2)}
        half = [m for m in canonical_half(2, 2)]
        assert len(full) == 24
        assert {m.components for m in half} | {(-m).components for m in half} == full

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_canonical_half_is_the_canonical_lattice_in_order(self, d, radius):
        assert canonical_half(d, radius) == [m for m in multi_indices(d, radius) if m.canonical]


def _fraction_phases(points, m) -> np.ndarray:
    """Reference reduction: the phase as a Fraction sum, floor-reduced, rounded once."""
    out = []
    for vec in points:
        total = Fraction(0)
        for c, s in zip(m, vec):
            if isinstance(s, UnitSample):
                s = Fraction(s.numerator, s.denominator)
            total += c * Fraction(s)
        total -= math.floor(total)
        out.append(unit_float(total.numerator, total.denominator))
    return np.array(out, dtype=float)


def _exact_phase_ratios(points, m: MultiIndex) -> list[tuple[int, int]]:
    """Phases m . beta_k mod 1 as exact ratios, one integer reduction over lcm(q_j)."""
    out = []
    for vec in points:
        ratios = [
            s.ratio if isinstance(s, UnitSample) else Fraction(s).as_integer_ratio() for s in vec
        ]
        lcm = math.lcm(*(q for _, q in ratios))
        dot = sum(c * n * (lcm // q) for c, (n, q) in zip(m.components, ratios))
        out.append((dot % lcm, lcm))
    return out


def _exact_phases(points, m: MultiIndex) -> np.ndarray:
    """Reference phases: the exact reduction rounded once by `unit_float`."""
    return np.array([unit_float(n, q) for n, q in _exact_phase_ratios(points, m)], dtype=float)


def _sliding_points(spec, n=300, d=3):
    seed = SeedSampler(2, bit_width=64).sample(spec.seed_interval())
    stream = beta_stream(spec, seed, n + d - 1)
    return [tuple(stream[k : k + d]) for k in range(n)]


def _interleaved_points(n=300):
    sampler = SeedSampler(11, bit_width=64)
    seeds = [sampler.sample() for _ in range(3)]
    assert len({s.denominator for s in seeds}) == 3
    return interleaved_vectors(GeneratorSpec.factorial(), seeds, n)


def _fraction_points(n=300):
    rng = random.Random(7)
    return [
        tuple(Fraction(rng.randrange(-50, 50), rng.randrange(1, 40)) for _ in range(3))
        for _ in range(n)
    ]


def _edge_points():
    top = UnitSample(k=1, numerator=2**64 - 1, denominator=2**64, err_ulps=0)
    third = UnitSample(k=2, numerator=1, denominator=3)
    return [(top, third, Fraction(1, 2)), (top, top, top), (third, 1, top)]


EXACT_POINTS = {
    "factorial": lambda: _sliding_points(GeneratorSpec.factorial()),
    "multiplicative3": lambda: _sliding_points(GeneratorSpec.multiplicative(3)),
    "weyl2": lambda: _sliding_points(GeneratorSpec.weyl(2)),
    "interleaved_mixed_q": _interleaved_points,
    "koksma": lambda: _sliding_points(GeneratorSpec.koksma()),
    "fraction_tuples": _fraction_points,
    "top_mantissa": _edge_points,
}


class TestWeylSum:
    def test_single_quarter_point(self):
        points = [(UnitSample(k=1, numerator=1, denominator=4),)]
        series = weyl_sum(points, (1,))
        assert series.checkpoints == (1,)
        assert abs(series.values[0] - 1j) < 1e-15

    def test_geometric_small_case(self):
        # t = 1/8, N = 4: sum of e(k/8) has closed form -1 + i(1 + sqrt 2)
        points = [(UnitSample(k=k, numerator=k % 8, denominator=8),) for k in range(1, 5)]
        got = weyl_sum(points, (1,)).values[0]
        want = complex(-1.0, 1.0 + math.sqrt(2)) / 4
        assert abs(got - want) < 1e-15

    def test_float_and_exact_paths_agree(self):
        seed = SeedSampler(2, bit_width=64).sample()
        spec = GeneratorSpec.factorial()
        cfg = WindowConfig(d=2, h=1)
        pts = scan_points(spec, seed, cfg, 200)
        from equidist.generators import beta_stream

        stream = beta_stream(spec, seed, cfg.stream_length(200))
        exact_pts = [(stream[k - 1], stream[k]) for k in range(1, 201)]
        for m in ((1, 0), (1, -2), (3, 1)):
            a = weyl_sum(pts, m).values[0]
            b = weyl_sum(exact_pts, m).values[0]
            assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("case", sorted(EXACT_POINTS))
    def test_exact_phases_match_fraction_reference(self, case):
        points = EXACT_POINTS[case]()
        for m in ((1, 0, 0), (1, -2, 3), (3, 1, -1), (0, 2, -5), (-1, 1, 1)):
            got = _exact_phases(points, MultiIndex(m))
            assert got.tobytes() == _fraction_phases(points, m).tobytes()
            assert np.all((got >= 0.0) & (got < 1.0))
            # each word is floor(2^64 x_j), under one unit below 2^64 x_j, so
            # u - 2^64 phase lies in [-sum(m_j > 0), sum(|m_j| : m_j < 0)] units of 2^-64
            m = MultiIndex(m)
            columns, n = _phase_columns(points, m)
            kernel = [sum(c * int(w[k]) for c, w in columns) % 2**64 for k in range(n)]
            pos = sum(c for c in m.components if c > 0)
            neg = sum(-c for c in m.components if c < 0)
            for u, (n, q) in zip(kernel, _exact_phase_ratios(points, m)):
                gap = (u - Fraction(n << 64, q) + 2**63) % 2**64 - 2**63
                assert -pos <= gap <= neg

    def test_mixed_float_and_exact_coordinates(self):
        # a float next to an exact sample takes the exact path in either order
        third = UnitSample(k=1, numerator=1, denominator=3)
        for point in ((0.1, third), (third, 0.1)):
            (phase,) = _fraction_phases([point], (1, 1))
            want = complex(math.cos(2 * math.pi * phase), math.sin(2 * math.pi * phase))
            assert abs(weyl_sum([point], (1, 1)).values[0] - want) < 1e-15

    def test_non_canonical_m_is_conjugate(self):
        xs = np.random.default_rng(5).random((64, 2))
        up = weyl_sum(xs, (1, -1))
        down = weyl_sum(xs, (-1, 1))
        assert down.values[0] == np.conj(up.values[0])

    def test_checkpoint_validation(self):
        xs = np.random.default_rng(5).random((16, 1))
        with pytest.raises(ValueError):
            weyl_sum(xs, (1,), checkpoints=[8, 4])
        with pytest.raises(ValueError):
            weyl_sum(xs, (1,), checkpoints=[32])
        for floats in ([4.5, 8.2], [4.0, 8.0], np.array([4.0, 8.0])):
            with pytest.raises(TypeError):  # not truncated to (4, 8)
                weyl_sum(xs, (1,), checkpoints=floats)
        series = weyl_sum(xs, (1,), checkpoints=np.array([4, 8]))
        assert series == weyl_sum(xs, (1,), checkpoints=[4, 8])
        assert all(type(n) is int for n in series.checkpoints)

    def test_magnitudes_bounded(self):
        xs = np.random.default_rng(7).random((100, 1))
        series = weyl_sum(xs, (3,), checkpoints=[10, 50, 100])
        assert all(v <= 1 + 1e-12 for v in series.magnitudes)

    @given(st.integers(min_value=2, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_series_cap_invariant(self, n):
        xs = np.random.default_rng(n).random((n, 1))
        series = weyl_sum(xs, (2,))
        assert series.final_magnitude <= 1 + 1e-12


PI_DIGITS = (
    "3.14159265358979323846264338327950288419716939937510582097494459230781640628620899862803"
)
PI_2_200 = math.floor(Fraction(PI_DIGITS) * 2**200)
E_BOUND = 2.3e-16  # per component, stated in weyl._unit_circle
REF_ERROR = 2.0**-53  # math.cos/sin of a correctly rounded angle, plus its low-order correction
# |W_N - reference| at N <= 300: the e() bound on both components, ||m||_1 2^-64 of
# phase, and the rounding of the pairwise segment sums and their division by N
W_BOUND = 1e-15


def _reference_e(phase: Fraction) -> tuple[float, float]:
    """cos and sin of 2 pi phase from math.cos/math.sin on an angle reduced exactly.

    The nearest quarter turn is split off in exact arithmetic, the rest is
    an angle |a| <= pi/4 held to 200 bits, and its low part corrects the
    rounded angle to first order.
    """
    quarter = round(4 * phase)
    rest = phase - Fraction(quarter, 4)
    a_fixed = 2 * rest.numerator * PI_2_200 // rest.denominator
    a_hi = a_fixed / 2**200
    a_lo = (a_fixed - int(math.ldexp(a_hi, 200))) / 2**200
    c = math.cos(a_hi) - math.sin(a_hi) * a_lo
    s = math.sin(a_hi) + math.cos(a_hi) * a_lo
    for _ in range(quarter % 4):
        c, s = -s, c
    return c, s


def _reference_weyl(points, m, checkpoints) -> list[complex]:
    """W_n(m) at each checkpoint from exact phases and reference cosines, summed by fsum."""
    pairs = [_reference_e(Fraction(a, q)) for a, q in _exact_phase_ratios(points, m)]
    return [
        complex(math.fsum(c for c, _ in pairs[:n]) / n, math.fsum(s for _, s in pairs[:n]) / n)
        for n in checkpoints
    ]


def _terms(columns, n):
    """All n kernel terms e(u_k / 2^64) of weighted uint64 columns, as (re, im)."""
    out = np.concatenate([terms for _, terms in _term_chunks(columns, n)] or [np.empty(0, complex)])
    return out.real, out.imag


def _windows(stream, cfg, count):
    return [
        tuple(stream[cfg.o + (k - 1) * cfg.h + j] for j in range(cfg.d)) for k in range(1, count + 1)
    ]


class TestPhaseKernel:
    def test_e_matches_reference_within_bound(self):
        rng = random.Random(17)
        us = [rng.getrandbits(64) for _ in range(100_000)]
        edges = [0, 1, 2**64 - 1, 2**47, 2**47 - 1, 2**47 + 1, 2**64 - 2**47]
        edges += [((k << 48) + e) % 2**64 for k in range(0, 2**16, 331) for e in (-1, 1)]
        us += edges
        re, im = _terms([(1, np.array(us, dtype=np.uint64))], len(us))
        want = np.array([_reference_e(Fraction(u, 2**64)) for u in us])
        err = np.maximum(np.abs(re - want[:, 0]), np.abs(im - want[:, 1]))
        assert err.max() <= E_BOUND + REF_ERROR

    def test_e_exact_points(self):
        us = np.array([0, 2**62, 2**63, 3 * 2**62], dtype=np.uint64)
        re, im = _terms([(1, us)], 4)
        assert list(zip(re.tolist(), im.tolist())) == [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
        # phases within 2^-30 of an integer, either sign, keep a real part of exactly 1
        tiny = np.array([1, 2**64 - 1, 2**33, 2**64 - 2**33, 2**20], dtype=np.uint64)
        re, im = _terms([(1, tiny)], len(tiny))
        assert np.all(re == 1.0)
        assert np.all(np.sign(im) == [1, -1, 1, -1, 1])

    def test_signed_columns_wrap(self):
        # each word column enters times its weight, mod 2^64; float rows become words once
        rng = np.random.default_rng(3)
        a, b = (rng.integers(0, 2**64, size=500, dtype=np.uint64) for _ in range(2))
        x = rng.random(500)
        words = np.ldexp(x, 64).astype(np.uint64)
        columns, _ = _phase_columns(x[:, None], MultiIndex((-3,)))
        assert np.array_equal(columns[0][1], words)
        got = _terms([(1, a), (-1, b), (2, b), (-3, words)], 500)
        want = _terms([(1, a + b - np.uint64(3) * words)], 500)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    def test_unit_words_is_the_exact_floor(self):
        rng = random.Random(5)
        ratios = [(1, 3), (2, 5), (5, 6), (2**64 - 1, 2**64), (0, 7), (-1, 3), (7, 7)]
        for bits in (8, 64, 65, 256, 300):
            for _ in range(40):
                q = rng.randrange(2, 2**bits)
                ratios.append((rng.randrange(-(q**2), q**2), q))
        words = _unit_words([n for n, _ in ratios], [q for _, q in ratios])
        assert words.dtype == np.uint64
        assert words.tolist() == [math.floor(Fraction(n, q) % 1 * 2**64) for n, q in ratios]

    def test_exact_multiple_of_one_turn_has_real_part_one(self):
        # 3 * (1/3) is an integer, and 3 floor(2^64 / 3) = 2^64 - 1: the phase is within
        # ||m||_1 units of 2^-64 of 0, so e() has a real part of exactly 1.0
        for x, m in ((Fraction(1, 3), 3), (Fraction(2, 5), 5), (Fraction(5, 6), 6)):
            value = weyl_sum([(x,)], (m,)).values[0]
            assert value.real == 1.0
            assert abs(value.imag) <= 2 * math.pi * m * 2.0**-64

    def test_float_row_just_below_one(self):
        x = 1 - 2.0**-53
        series = weyl_sum(np.array([[x]]), (1,))
        assert series.values[0] == complex(1.0, -2 * math.pi * 2.0**-53)
        # m x = 3 - 3 2^-53 has no float; the fixed-point phase is still exact
        got = weyl_sum(np.array([[x]]), (3,)).values[0]
        assert got.real == 1.0
        assert abs(got.imag + 6 * math.pi * 2.0**-53) < 1e-30

    def test_float_rows_outside_unit_interval_rejected(self):
        for bad in (1.0, -1e-300, float("nan")):
            with pytest.raises(ValueError):
                weyl_sum(np.array([[0.5], [bad]]), (1,))

    @pytest.mark.parametrize(
        "spec, cfg",
        [
            (GeneratorSpec.weyl(2), WindowConfig(d=2)),
            (GeneratorSpec.multiplicative(3), WindowConfig(d=2)),
            (GeneratorSpec.factorial(), WindowConfig(d=3)),
            (GeneratorSpec.self_power(), WindowConfig(d=2)),
            (GeneratorSpec.linear([3, 1, 4, 1, 5, 9, 2, 6] * 60), WindowConfig(d=2)),
            (GeneratorSpec.koksma(), WindowConfig(d=2)),
            (GeneratorSpec.factorial(), WindowConfig(d=2, h=2, o=1)),
            (GeneratorSpec.multiplicative(2).permuted(range(400, 0, -1)), WindowConfig(d=2)),
        ],
        ids=["weyl2", "mult3", "factorial", "self_power", "linear", "koksma", "h2_o1", "permuted"],
    )
    def test_criterion_scan_matches_fraction_reference(self, spec, cfg):
        n = 300
        seed = SeedSampler(23, bit_width=64).sample(spec.seed_interval())
        scan = criterion_scan(spec, seed, cfg, 2, n)
        points = _windows(beta_stream(spec, seed, cfg.stream_length(n)), cfg, n)
        for m in canonical_half(cfg.d, 2):
            want = _reference_weyl(points, m, scan.checkpoints)
            assert max(abs(a - b) for a, b in zip(scan.series[m].values, want)) <= W_BOUND

    @pytest.mark.parametrize(
        "spec, d",
        [(GeneratorSpec.factorial(), 2), (GeneratorSpec.self_power(), 3)],
        ids=["factorial", "self_power"],
    )
    def test_interleaved_scan_matches_fraction_reference(self, spec, d):
        n = 300
        seeds = _draw_seeds(spec.seed_interval(), d, 29, 64)
        cfg = WindowConfig(d=d, construction="interleaved_a")
        scan = criterion_scan(spec, seeds, cfg, 2, n)
        points = interleaved_vectors(spec, seeds, n)
        for m in canonical_half(d, 2):
            want = _reference_weyl(points, m, scan.checkpoints)
            assert max(abs(a - b) for a, b in zip(scan.series[m].values, want)) <= W_BOUND


WORD_SPECS = {
    "factorial": GeneratorSpec.factorial(),
    "mult3": GeneratorSpec.multiplicative(3),
    "weyl1": GeneratorSpec.weyl(1),
    "weyl2": GeneratorSpec.weyl(2),
    "self_power": GeneratorSpec.self_power(),
    "linear": GeneratorSpec.linear([3, 1, 4, 1, 5, 9, 2, 6] * 50),
    "permuted": GeneratorSpec.factorial().permuted(range(400, 0, -1)),
    "koksma": GeneratorSpec.koksma(),
}
COMPOSITE_Q = 3**41 * 5**3 * 11  # odd, composite, above 2^64


def _defining_words(spec, seed, positions) -> np.ndarray:
    """The oracle: `_unit_words`, the division floor(2^64 r / q), of the samples'
    numerators over their one denominator."""
    stream = _unit_samples_at(spec, seed, positions)
    return _unit_words(stream.numerators, [stream.denominator] * len(stream))


class TestDivisionFreeWords:
    @settings(max_examples=120, deadline=None)
    @given(
        name=st.sampled_from(sorted(WORD_SPECS)),
        kind=st.sampled_from([64, 256, "q = 2", "odd composite q"]),
        master=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_words_are_the_defining_floor(self, name, kind, master, data):
        spec = WORD_SPECS[name]
        lo, hi = spec.seed_interval()
        if kind in (64, 256):
            seed = SeedSampler(master, bit_width=kind).sample((lo, hi))
        else:
            q = 2 if kind == "q = 2" else COMPOSITE_Q
            inside = st.integers(int(lo * q) + 1, int(hi * q) - 1)
            p = data.draw(inside.filter(lambda p: math.gcd(p, q) == 1), label="p")
            seed = RationalSeed(p, q, interval=(lo, hi), prime_denominator=False)
        dense = data.draw(st.builds(range, st.integers(1, 40), st.integers(1, 400),
                                    st.integers(1, 5)), label="dense")
        listed = data.draw(st.lists(st.integers(1, 400), max_size=60), label="listed")
        for positions in (dense, listed):
            got = _words_at(spec, seed, positions)
            assert got.tobytes() == _defining_words(spec, seed, positions).tobytes()
        cfg = WindowConfig(d=2, h=2, o=1)
        count = data.draw(st.integers(0, 150), label="count")
        ks = data.draw(st.lists(st.integers(1, 150), max_size=40), label="ks")
        for windows in (count, ks):  # ranges and window lists, repeats in any order
            got = _word_table(spec, seed, cfg, windows)
            want = _read_windows(_defining_words, spec, seed, cfg, windows)
            assert [w.tobytes() for w in got] == [w.tobytes() for w in want]

    def test_neg_inverse(self):
        rng = random.Random(11)
        for q in [1, 3, 2**64 - 1, 2**64 + 1, COMPOSITE_Q] + [
            rng.getrandbits(bits) | 1 for bits in (8, 64, 256) for _ in range(30)
        ]:
            assert q * _neg_inverse(q) % 2**64 == 2**64 - 1


def _factor_bound(d: int) -> float:
    """Per part |W_N| gap between `criterion_scan` and the word path: its terms are within
    d E_BOUND + (d - 1) 2^-52 of e(m . x_k), the word path's within E_BOUND, and one
    more 2^-52 covers the two paths' segment sums."""
    return (d + 1) * E_BOUND + d * 2.0**-52


class TestFactorScan:
    # n_max = 2^13 - 1, 2^13, 2^13 + 1, 3 2^13 + 5 puts the last checkpoint on and next to a
    # chunk edge, where the segment sums are cut
    @pytest.mark.parametrize(
        "spec, cfg, radius, n",
        [
            (GeneratorSpec.factorial(), WindowConfig(d=3), 3, 3 * _CHUNK + 5),
            (GeneratorSpec.multiplicative(3), WindowConfig(d=2), 3, _CHUNK),
            (GeneratorSpec.weyl(2), WindowConfig(d=3), 2, _CHUNK + 1),
            (GeneratorSpec.self_power(), WindowConfig(d=1), 3, _CHUNK - 1),
            (GeneratorSpec.koksma(), WindowConfig(d=2), 1, _CHUNK + 1),
            (GeneratorSpec.factorial(), WindowConfig(d=2, h=2, o=1), 2, _CHUNK),
            (GeneratorSpec.multiplicative(2).permuted(range(_CHUNK + 1, 0, -1)),
             WindowConfig(d=2), 1, _CHUNK),
            (GeneratorSpec.factorial(), WindowConfig(d=3, construction="interleaved_a"), 2,
             _CHUNK + 1),
            # beyond the benchmark's d <= 3, R <= 3: a longer lead product, a wider factor
            # matrix, one- and two-term scans, and three interleaved chunks
            (GeneratorSpec.factorial(), WindowConfig(d=4), 1, _CHUNK + 3),
            (GeneratorSpec.factorial(), WindowConfig(d=2), 4, _CHUNK + 1),
            (GeneratorSpec.factorial(), WindowConfig(d=3), 2, 1),
            (GeneratorSpec.multiplicative(3), WindowConfig(d=2), 3, 2),
            (GeneratorSpec.factorial(), WindowConfig(d=3, construction="interleaved_a"), 3,
             2 * _CHUNK + 7),
        ],
        ids=["factorial", "mult3", "weyl2", "self_power", "koksma", "h2_o1", "permuted", "interleaved",
             "d4_r1", "d2_r4", "n_max_1", "n_max_2", "interleaved_d3_r3"],
    )
    def test_matches_word_path(self, spec, cfg, radius, n):
        sampler = SeedSampler(31, bit_width=64)
        if cfg.construction == "interleaved_a":
            seed = _draw_seeds(spec.seed_interval(), cfg.d, 31, 64)
        else:
            seed = sampler.sample(spec.seed_interval())
        scan = criterion_scan(spec, seed, cfg, radius, n)
        table = _word_table(spec, seed, cfg, n)
        for m in multi_indices(cfg.d, radius):
            got = np.array(scan.series[m].values)
            want = np.array(weyl_sum(table, m, scan.checkpoints).values)
            if sum(1 for c in m.components if c) == 1:  # no product: the word path's terms
                assert got.tobytes() == want.tobytes()
            err = np.maximum(np.abs(got.real - want.real), np.abs(got.imag - want.imag))
            assert err.max() <= _factor_bound(cfg.d)

    @pytest.mark.parametrize("p", [2, 3])
    def test_degenerate_series_is_the_word_sum(self, p):
        # factor products would round |W_N| away from the word path's constant phase
        spec, cfg = GeneratorSpec.weyl(p), WindowConfig(d=p + 1)
        seed = SeedSampler(37).sample()
        scan = criterion_scan(spec, seed, cfg, 3, 2000)
        table = _word_table(spec, seed, cfg, 2000)
        m = degenerate_m_weyl(p)
        for key in (m, -m):
            want = weyl_sum(table, key, scan.checkpoints).values
            assert np.array(scan.series[key].values).tobytes() == np.array(want).tobytes()
        assert scan.worst_m in (m, -m)


def _neumaier(values):
    """Scalar reference: running compensated sums, total + compensation after each value."""
    total = 0.0
    comp = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
        yield total + comp


class TestRunningSums:
    def test_matches_scalar_neumaier_bit_for_bit(self):
        rng = random.Random(5)
        columns = [
            [1e16, 1.0, -1e16],  # cancellation: the compensation carries the 1
            [1.0, 1e100, 1.0, -1e100],  # |x| > |total| on the second row
            [-0.0, 0.0, -0.0, -0.0],  # signed zeros
            [0.0, -0.0, 3.5, -3.5],
            [rng.uniform(-1, 1) * 10.0 ** rng.randint(-20, 20) for _ in range(40)],
            [rng.choice([1e16, -1e16, 1.0, -1.0, 1e-16]) for _ in range(40)],
        ]
        length = max(map(len, columns))
        parts = np.array([c + [0.0] * (length - len(c)) for c in columns]).T
        got = _running_sums(parts)
        for j in range(parts.shape[1]):
            want = np.array(list(_neumaier(parts[:, j].tolist())))
            assert got[:, j].tobytes() == want.tobytes()
        assert got[2, 0] == 1.0


class TestWeylSeries:
    def test_alignment_validation(self):
        with pytest.raises(ValueError):
            WeylSeries(MultiIndex((1,)), (1, 2), (0.5 + 0j,))

    def test_magnitude_cap_validation(self):
        with pytest.raises(ValueError):
            WeylSeries(MultiIndex((1,)), (1,), (1.5 + 0j,))

    def test_conjugate_round_trip(self):
        s = WeylSeries(MultiIndex((1, -1)), (1, 2), (0.5 + 0.25j, 0.1 - 0.2j))
        c = s.conjugate()
        assert c.m.components == (-1, 1)
        assert c.values == (0.5 - 0.25j, 0.1 + 0.2j)
        assert c.conjugate() == s


class TestCriterionScan:
    def test_conjugate_symmetry_bit_exact(self):
        seed = SeedSampler(3, bit_width=64).sample()
        scan = criterion_scan(
            GeneratorSpec.factorial(), seed, WindowConfig(d=2, h=1), 2, 500
        )
        for m, series in scan.series.items():
            mirror = scan.series[-m]
            assert mirror.values == tuple(np.conj(v) for v in series.values)

    def test_one_check_and_one_negation_per_canonical_m(self, monkeypatch):
        # a mirror series is the conjugate, |conj v| = |v| exactly, so it is not re-checked;
        # weyl(2) at d = 3 has the constant-phase m = (1, -2, 1), summed again from its words
        calls = {"check": 0, "neg": 0}

        def counted(name, fn):
            def wrapper(self, *args):
                calls[name] += 1
                return fn(self, *args)
            return wrapper

        monkeypatch.setattr(WeylSeries, "__post_init__", counted("check", WeylSeries.__post_init__))
        monkeypatch.setattr(MultiIndex, "__neg__", counted("neg", MultiIndex.__neg__))
        seed = SeedSampler(3, bit_width=64).sample()
        scan = criterion_scan(GeneratorSpec.weyl(2), seed, WindowConfig(d=3), 3, 300)
        half = len(canonical_half(3, 3))
        assert half == 171 and len(scan.series) == 2 * half
        assert calls == {"check": half, "neg": half}
        assert abs(scan.series[MultiIndex((-1, 2, -1))].final_magnitude - 1.0) < 1e-12

    def test_covers_full_lattice(self):
        seed = SeedSampler(3, bit_width=64).sample()
        scan = criterion_scan(
            GeneratorSpec.factorial(), seed, WindowConfig(d=2, h=1), 2, 200
        )
        assert {m.components for m in scan.series} == {
            m.components for m in multi_indices(2, 2)
        }

    def test_degenerate_pair_flagged(self):
        seed = SeedSampler(7).sample()
        scan = criterion_scan(
            GeneratorSpec.multiplicative(2), seed, WindowConfig(d=2, h=1), 2, 2000
        )
        assert scan.worst_final_magnitude == 1.0
        assert scan.worst_m.components in ((2, -1), (-2, 1))
        flagged = {m.components for m in scan.flagged(0.9)}
        assert flagged == {(2, -1), (-2, 1)}

    def test_series_order_is_canonical_half_then_mirror(self):
        seed = SeedSampler(3, bit_width=64).sample()
        scan = criterion_scan(GeneratorSpec.factorial(), seed, WindowConfig(d=3), 2, 300)
        want = [key for m in canonical_half(3, 2) for key in (m, -m)]
        assert list(scan.series) == want

    def test_worst_m_tie_goes_to_the_first_in_order(self):
        # (2, -1) and (-2, 1) both end at exactly 1.0; the canonical one comes first
        seed = SeedSampler(7).sample()
        scan = criterion_scan(GeneratorSpec.multiplicative(2), seed, WindowConfig(d=2), 2, 2000)
        tied = [m for m, s in scan.series.items() if s.final_magnitude == 1.0]
        assert tied == [MultiIndex((2, -1)), MultiIndex((-2, 1))]
        assert scan.worst_m == MultiIndex((2, -1))

    def test_interleaved_construction(self):
        seeds = [SeedSampler(11, bit_width=64).sample() for _ in range(2)]
        cfg = WindowConfig(d=2, construction="interleaved_a")
        scan = criterion_scan(GeneratorSpec.weyl(1), seeds, cfg, 1, 300)
        assert all(s.final_magnitude <= 1 + 1e-12 for s in scan.series.values())

    def test_interleaved_needs_d_seeds(self):
        seed = SeedSampler(11, bit_width=64).sample()
        cfg = WindowConfig(d=2, construction="interleaved_a")
        with pytest.raises(ValueError):
            scan_points(GeneratorSpec.weyl(1), [seed], cfg, 10)

    @pytest.mark.parametrize("construction", ["sliding_bc", "interleaved_a"])
    def test_scan_points_rejects_a_negative_count(self, construction):
        cfg = WindowConfig(d=2, construction=construction)
        seed = SeedSampler(11, bit_width=64).sample()
        seeds = [seed, seed] if construction == "interleaved_a" else seed
        assert scan_points(GeneratorSpec.weyl(1), seeds, cfg, 0).shape == (0, 2)
        with pytest.raises(ValueError, match="count must be nonnegative"):
            scan_points(GeneratorSpec.weyl(1), seeds, cfg, -1)


class TestDegenerateCertificates:
    def test_multiplicative_vector(self):
        assert degenerate_m_multiplicative(2).components == (2, -1)
        assert degenerate_m_multiplicative(7).components == (7, -1)

    def test_weyl_vectors_are_alternating_binomials(self):
        for p in range(1, 7):
            got = degenerate_m_weyl(p).components
            want = tuple((-1) ** j * math.comb(p, j) for j in range(p + 1))
            assert got == want

    def test_weyl_vector_makes_phase_constant(self):
        """The certified m turns k^p windows into the constant phase (-1)^p p!."""
        for p in range(1, 13):
            m = degenerate_m_weyl(p).components
            values = {
                sum(c * (k + j) ** p for j, c in enumerate(m)) for k in range(1, 13)
            }
            assert values == {(-1) ** p * math.factorial(p)}

    def test_degenerate_weyl_sum_is_unimodular(self):
        p = 3
        seed = SeedSampler(13).sample()
        scan = criterion_scan(
            GeneratorSpec.weyl(p), seed, WindowConfig(d=p + 1, h=1), 3, 500
        )
        series = scan.series[degenerate_m_weyl(p)]
        # the phase is a nonzero constant, so only float rounding remains
        assert all(abs(v - 1.0) < 1e-12 for v in series.magnitudes)

    def test_multiplicative_exact_magnitude_one(self):
        seed = SeedSampler(19).sample()
        scan = criterion_scan(
            GeneratorSpec.multiplicative(3), seed, WindowConfig(d=2, h=1), 3, 1000
        )
        series = scan.series[degenerate_m_multiplicative(3)]
        assert all(v == 1.0 for v in series.magnitudes)


# documented raises, and the integers taken by `operator.index`: (call, exception type, reason)
RAISES = {
    "grid-n-max": (lambda: checkpoint_grid(0), ValueError, "n_max must be at least 1"),
    "multi-index-empty": (lambda: MultiIndex(()), ValueError, "at least one component"),
    "multi-index-float": (lambda: MultiIndex((1.5, 2)), TypeError, "float"),
    "lattice": (lambda: multi_indices(0, 1), ValueError, "d and radius must be positive"),
    "array-rank": (lambda: weyl_sum(np.zeros(4), (1,)), ValueError, r"expected a \(N, d\)"),
    "array-width": (lambda: weyl_sum(np.zeros((4, 2)), (1,)), ValueError, r"expected a \(N, d\)"),
    "point-width": (lambda: weyl_sum([(0.25, 0.5)], (1,)), ValueError,
                    "point dimension does not match"),
    "table-width": (lambda: weyl_sum(PhaseTable([np.zeros(3, np.uint64)] * 2), (1,)),
                    ValueError, "does not match the table's dimension 2"),
    "degenerate-weyl": (lambda: degenerate_m_weyl(0), ValueError, "p must be at least 1"),
    "degenerate-multiplicative": (lambda: degenerate_m_multiplicative(1), ValueError,
                                  "base must be at least 2"),
}


@pytest.mark.parametrize("call, error, reason", RAISES.values(), ids=RAISES.keys())
def test_documented_raises(call, error, reason):
    with pytest.raises(error, match=reason):
        call()
