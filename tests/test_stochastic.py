"""Exact frequencies, Monte-Carlo moments, SLLN diagnostics, gamma baseline."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equidist import generators, stochastic, weyl
from equidist.arithmetic import RationalSeed, SeedSampler
from equidist.generators import ArithmeticIndices, GeneratorSpec, WindowConfig
from equidist.stochastic import (
    _window_sums,
    GammaStream,
    MomentTarget,
    SeedBitSource,
    c_of_m_scan,
    default_bit_source,
    del_criterion,
    exact_frequency,
    gamma_index,
    gamma_stream,
    lemma2_decay_fit,
    lemma3_check,
    mc_moment,
    wcud_check,
)
from equidist.weyl import (
    MultiIndex,
    degenerate_m_weyl,
    multi_indices,
    unit_terms,
)

FACTORIAL = GeneratorSpec.factorial()
MULT2 = GeneratorSpec.multiplicative(2)
D1 = WindowConfig(d=1, h=1)
D2 = WindowConfig(d=2, h=1)


class TestExactFrequency:
    def test_factorial_single_component(self):
        # 3! - 2! = 4
        assert exact_frequency(FACTORIAL, 3, 2, (1,)) == 4

    def test_weyl_square_pair(self):
        # (9 - 1) - (16 - 4) = -4
        assert exact_frequency(GeneratorSpec.weyl(2), 3, 1, (1, -1)) == -4

    def test_self_power(self):
        assert exact_frequency(GeneratorSpec.self_power(), 2, 1, (1,)) == 3

    def test_linear_is_stride_times_lag(self):
        spec = GeneratorSpec.linear(ArithmeticIndices(2, 3))
        for k, l in ((5, 1), (9, 2)):
            assert exact_frequency(spec, k, l, (1,)) == 3 * (k - l)

    def test_multiplicative_degenerate_vanishes_everywhere(self):
        for k in range(2, 30):
            for l in range(1, k):
                assert exact_frequency(MULT2, k, l, (2, -1)) == 0

    def test_permutation_reads_rewired_indices(self):
        # stream outputs 2 and 1 are beta_19 and beta_20
        spec = MULT2.permuted(range(20, 0, -1))
        assert exact_frequency(spec, 2, 1, (1,)) == 2**19 - 2**20

    def test_koksma_has_no_frequency(self):
        with pytest.raises(ValueError):
            exact_frequency(GeneratorSpec.koksma(), 2, 1, (1,))

    def test_index_validation(self):
        # the window layout's own check (`WindowConfig.positions`)
        with pytest.raises(ValueError, match="window indices start at 1"):
            exact_frequency(FACTORIAL, 1, 0, (1,))
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            exact_frequency(GeneratorSpec.weyl(1), 1.5, 1, (1,))

    def test_numpy_base_does_not_wrap(self):
        spec = GeneratorSpec.multiplicative(np.int64(3))
        assert exact_frequency(spec, 50, 1, (1,)) == 3**50 - 3

    @given(
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=30),
        st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_antisymmetric_in_k_l(self, k, l, comps):
        if all(c == 0 for c in comps):
            comps[0] = 1
        m = tuple(comps)
        assert exact_frequency(FACTORIAL, k, l, m) == -exact_frequency(FACTORIAL, l, k, m)
        assert exact_frequency(FACTORIAL, k, k, m) == 0


class TestCOfMScan:
    def test_factorial_identity_never_vanishes(self):
        scan = c_of_m_scan(FACTORIAL, (1,), max_lag=16)
        assert scan.c == 0
        assert scan.conclusive
        assert scan.zero_pairs == ()

    def test_self_power_identity(self):
        scan = c_of_m_scan(GeneratorSpec.self_power(), (1,), max_lag=8)
        assert scan.c == 0
        assert scan.conclusive

    def test_constructed_zero_pair(self):
        # -4 (2! - 1!) + (3! - 2!) = 0, and no other pair vanishes
        scan = c_of_m_scan(FACTORIAL, (-4, 1), max_lag=16)
        assert scan.c == 1
        assert scan.zero_pairs == ((2, 1),)
        assert scan.conclusive

    def test_zero_at_max_lag_is_inconclusive(self):
        scan = c_of_m_scan(FACTORIAL, (-4, 1), max_lag=1)
        assert scan.c == 1
        assert not scan.conclusive

    def test_probe_validation(self):
        with pytest.raises(ValueError):
            c_of_m_scan(FACTORIAL, (1,), max_lag=8, probe=8)

    @pytest.mark.parametrize(
        "spec",
        [
            FACTORIAL,
            MULT2,
            GeneratorSpec.weyl(2),
            GeneratorSpec.linear((1, 5, 1, 7, 9, 11, 13, 17) * 4),
            MULT2.permuted(range(40, 0, -1)),
        ],
    )
    @pytest.mark.parametrize("m", [(1,), (2, -1), (-4, 1), (1, 0, -1)])
    def test_matches_pairwise_exact_frequency(self, spec, m):
        scan = c_of_m_scan(spec, m, max_lag=6, probe=14)
        want = tuple(
            (l + g, l)
            for g in range(1, 7)
            for l in range(1, 15 - g)
            if exact_frequency(spec, l + g, l, m) == 0
        )
        assert scan.zero_pairs == want
        assert scan.c == max((k - l for k, l in want), default=0)


def _coefficient_at(spec, a: int) -> int:
    # integer coefficient c_a straight from its definition
    if spec.family == "factorial":
        return math.factorial(a)
    if spec.family == "multiplicative":
        return spec.base**a
    if spec.family == "weyl_power":
        return a**spec.power
    if spec.family == "self_power":
        return a**a
    desc = spec.coefficients
    return desc.start + (a - 1) * desc.stride


def _index_at(spec, position: int) -> int:
    perm = spec.permutation
    if perm is None:
        return position
    if isinstance(perm, ArithmeticIndices):
        return perm.start + (position - 1) * perm.stride
    return perm[position - 1]


class TestWindowSums:
    SHUFFLED = tuple(random.Random(7).sample(range(1, 41), 40))

    @pytest.mark.parametrize(
        "spec",
        [
            FACTORIAL.permuted(SHUFFLED),
            GeneratorSpec.multiplicative(3).permuted(ArithmeticIndices(2, 3)),
            GeneratorSpec.weyl(2).permuted(SHUFFLED),
            GeneratorSpec.self_power(),
            GeneratorSpec.linear(ArithmeticIndices(5, 2)).permuted(SHUFFLED),
        ],
    )
    @pytest.mark.parametrize(
        "cfg, m",
        [
            (WindowConfig(d=1), (1,)),
            (WindowConfig(d=2, h=2, o=1), (2, -1)),
            (WindowConfig(d=3, h=2, o=1), (1, -2, 1)),
        ],
    )
    def test_brute_force_oracle(self, spec, cfg, m):
        # w_k - w_l = sum_i m_i (c_a - c_b), a and b the generator indices at
        # stream positions (k-1)h + o + i and (l-1)h + o + i
        def window(k):
            return [_index_at(spec, (k - 1) * cfg.h + cfg.o + i) for i in range(1, cfg.d + 1)]

        ks = [1, 2, 5, 9, 13, 14]
        w = _window_sums(spec, cfg, MultiIndex(m), ks)
        assert sorted(w) == ks
        for k in ks:
            for l in ks:
                want = sum(
                    c * (_coefficient_at(spec, a) - _coefficient_at(spec, b))
                    for c, a, b in zip(m, window(k), window(l))
                )
                assert w[k] - w[l] == want
                if cfg.h == 1 and cfg.o == 0:
                    assert exact_frequency(spec, k, l, m) == want


class TestMomentTarget:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            MomentTarget("median", n=4)

    def test_required_fields(self):
        with pytest.raises(ValueError):
            MomentTarget("term_mean")
        with pytest.raises(ValueError):
            MomentTarget("pair_moment", k=3)
        with pytest.raises(ValueError):
            MomentTarget("abs_sum_sq_mean")

    @pytest.mark.parametrize(
        "kind, fields",
        [
            ("pair_moment", dict(k=-3, l=2)),
            ("pair_moment", dict(k=3, l=0)),
            ("pair_moment", dict(k=0.5, l=2)),
            ("term_mean", dict(k=True)),
            ("abs_sum_mean", dict(n=-4)),
            ("abs_sum_sq_mean", dict(n=2.0)),
            ("term_mean", dict(k=2, n=0)),
        ],
    )
    def test_indices_are_positive_ints(self, kind, fields):
        with pytest.raises(ValueError):
            MomentTarget(kind, **fields)

    @pytest.mark.parametrize("v", [np.int64(5), np.uint8(5), np.int32(5)])
    def test_numpy_integers_are_stored_as_int(self, v):
        target = MomentTarget("abs_sum_mean", n=v)
        assert target.n == 5 and type(target.n) is int
        pair = MomentTarget("pair_moment", k=v, l=np.int64(2))
        assert (pair.k, pair.l) == (5, 2) and type(pair.k) is type(pair.l) is int
        assert MomentTarget("term_mean", k=v) == MomentTarget("term_mean", k=5)

    @pytest.mark.parametrize("v", [5.0, True, np.True_, np.float64(5.0), np.int64(0)])
    def test_non_integers_and_bools_still_rejected(self, v):
        with pytest.raises(ValueError, match="positive int"):
            MomentTarget("abs_sum_mean", n=v)


class TestMcMoment:
    def test_term_mean_consistent_with_zero(self):
        est = mc_moment(
            FACTORIAL, D1, (1,), MomentTarget("term_mean", k=5), n_seeds=64
        )
        assert abs(est.value) <= 4 * est.stderr
        assert abs(est.value) <= 1 + 1e-12
        assert est.n_seeds == 64

    def test_pair_moment_consistent_with_zero(self):
        est = mc_moment(
            FACTORIAL, D1, (1,), MomentTarget("pair_moment", k=3, l=2), n_seeds=64
        )
        assert abs(est.value) <= 4 * est.stderr

    def test_orthogonal_sum_square_scales_like_n(self):
        target = MomentTarget("abs_sum_sq_mean", n=1024)
        est = mc_moment(FACTORIAL, D1, (1,), target, n_seeds=48, master_seed=1)
        assert 0.6 <= est.value / 1024 <= 1.6

    def test_kind_decides_the_column(self):
        # a term_mean target with an l set is still E Y_k
        kw = dict(n_seeds=4, master_seed=2, bit_width=64)
        est = mc_moment(FACTORIAL, D1, (1,), MomentTarget("term_mean", k=5, l=3), **kw)
        assert est.value == mc_moment(FACTORIAL, D1, (1,), MomentTarget("term_mean", k=5), **kw).value

    def test_needs_two_seeds(self):
        with pytest.raises(ValueError):
            mc_moment(FACTORIAL, D1, (1,), MomentTarget("term_mean", k=1), n_seeds=1)

    def test_reproducible_and_master_sensitive(self):
        target = MomentTarget("abs_sum_mean", n=32)
        a = mc_moment(FACTORIAL, D1, (1,), target, n_seeds=8, master_seed=5)
        b = mc_moment(FACTORIAL, D1, (1,), target, n_seeds=8, master_seed=5)
        c = mc_moment(FACTORIAL, D1, (1,), target, n_seeds=8, master_seed=6)
        assert a == b
        assert a.value != c.value


class TestWcud:
    def test_degenerate_pair_refuted(self):
        res8 = wcud_check(MULT2, D2, (2, -1), [10, 100, 400], n_seeds=8)
        res32 = wcud_check(MULT2, D2, (2, -1), [10, 100, 400], n_seeds=32)
        assert res8.verdicts["wcud"] == "refuted"
        # the phase is identically zero, so |S_n|/n is pinned at 1
        assert all(abs(v - 1.0) <= 1e-12 for v in res8.s_over_n)
        assert res8.s_over_n == res32.s_over_n

    def test_factorial_consistent(self):
        res = wcud_check(FACTORIAL, D1, (1,), 2000, n_seeds=32, master_seed=2)
        assert res.verdicts["wcud"] == "consistent"
        assert res.s_over_n[-1] < 0.1

    def test_int_matches_explicit_grid(self):
        from equidist.weyl import checkpoint_grid

        a = wcud_check(FACTORIAL, D1, (1,), 200, n_seeds=8, master_seed=1)
        b = wcud_check(
            FACTORIAL, D1, (1,), checkpoint_grid(200), n_seeds=8, master_seed=1
        )
        assert a == b

    def test_numpy_integer_n_max(self):
        a = wcud_check(FACTORIAL, D1, (1,), np.int64(200), n_seeds=8, master_seed=1)
        b = wcud_check(FACTORIAL, D1, (1,), 200, n_seeds=8, master_seed=1)
        assert a == b
        assert all(type(n) is int for n in a.checkpoints)

    def test_checkpoint_validation(self):
        with pytest.raises(ValueError):
            wcud_check(FACTORIAL, D1, (1,), [50, 50], n_seeds=8)
        with pytest.raises(ValueError):
            wcud_check(FACTORIAL, D1, (1,), [], n_seeds=8)
        with pytest.raises(ValueError):
            wcud_check(FACTORIAL, D1, (1,), [100], n_seeds=1)
        for floats in ([10.7, 20.2], [10.0, 20.0], np.array([10.0, 20.0])):
            with pytest.raises(TypeError):  # not truncated to (10, 20)
                wcud_check(FACTORIAL, D1, (1,), floats, n_seeds=8)
        a = wcud_check(FACTORIAL, D1, (1,), np.array([10, 20]), n_seeds=8)
        assert a == wcud_check(FACTORIAL, D1, (1,), [10, 20], n_seeds=8)
        assert all(type(n) is int for n in a.checkpoints)


class TestDelCriterion:
    def test_factorial_convergent_trend(self):
        res = del_criterion(FACTORIAL, D1, (1,), 6000, n_seeds=32, master_seed=3)
        assert res.verdicts["del_series"] == "convergent-trend"
        assert res.details["last_decade_ratio"] < 0.05
        # E|S_n|^2 ~ n means (|S_n|/n)^2 decays like 1/n
        assert 0.6 <= res.details["sq_decay_alpha"] <= 1.4

    def test_degenerate_divergent_trend(self):
        res = del_criterion(MULT2, D2, (2, -1), 3000, n_seeds=8, master_seed=3)
        assert res.verdicts["del_series"] == "divergent-trend"
        assert res.details["last_decade_ratio"] > 0.25
        assert abs(res.details["sq_decay_alpha"]) < 0.2

    @pytest.mark.parametrize("n_max, ratio", [(260_000, 0.2495), (300_000, 0.2457)])
    def test_zero_frequency_diverges_by_proof(self, n_max, ratio):
        # |S_n| = n exactly, so the series is the harmonic one: past n_max = 2.5 10^5 its
        # last decade holds under 25 percent of the total, yet it still diverges
        res = del_criterion(MULT2, D2, (2, -1), n_max, n_seeds=4)
        assert res.verdicts["del_series"] == "divergent-trend"
        assert res.details["last_decade_ratio"] == pytest.approx(ratio, abs=5e-5)

    def test_partial_sums_nondecreasing(self):
        res = del_criterion(FACTORIAL, D1, (1,), 500, n_seeds=8)
        sums = res.del_partial_sums
        assert all(b >= a for a, b in zip(sums, sums[1:]))
        assert res.checkpoints[0] == 26

    def test_needs_two_seeds(self):
        with pytest.raises(ValueError):
            del_criterion(FACTORIAL, D1, (1,), 300, n_seeds=1)

    def test_needs_two_checkpoints(self):
        # below the second checkpoint the decade ratio and the fit are vacuous
        with pytest.raises(ValueError, match="checkpoint"):
            del_criterion(FACTORIAL, D1, (1,), 26, n_seeds=4)
        res = del_criterion(FACTORIAL, D1, (1,), 27, n_seeds=4)
        assert res.checkpoints == (26, 27)

    def test_middle_decade_share_is_inconclusive(self, monkeypatch):
        # |S_n|^2 = n on every seed: the series sums n^-2 from n = 26, and its last
        # decade, n = 201..2000, holds 11.6 percent of it, between 5 and 25
        def crafted(spec, cfg, m, columns, n_seeds, *rest):
            return np.sqrt(np.broadcast_to(columns + 1.0, (n_seeds, len(columns))))

        monkeypatch.setattr(stochastic, "_seed_table", crafted)
        res = del_criterion(FACTORIAL, D1, (1,), 2000, n_seeds=4)
        assert res.verdicts["del_series"] == "inconclusive"
        share = sum(n**-2 for n in range(201, 2001)) / sum(n**-2 for n in range(26, 2001))
        assert res.details["last_decade_ratio"] == pytest.approx(share)


class TestLemma2:
    def test_degenerate_control_is_flat(self):
        fit = lemma2_decay_fit(
            MULT2, D2, (2, -1), [1, 2, 4], n_seeds=8, pair_sum=16
        )
        assert fit.estimates == (2.0, 2.0, 2.0)
        assert fit.stderrs == (0.0, 0.0, 0.0)
        assert not fit.inconclusive
        assert abs(fit.delta_hat) < 1e-10
        assert abs(fit.c_hat - 2.0) < 1e-9
        assert fit.fit_quality == 1.0

    def test_orthogonal_family_is_inconclusive(self):
        # every pair moment is exactly zero, so all lags drown in noise
        fit = lemma2_decay_fit(
            FACTORIAL, D1, (1,), [1, 2, 3], n_seeds=64, master_seed=0
        )
        assert fit.inconclusive
        assert fit.delta_hat is None

    def test_koksma_decay_exponent(self):
        fit = lemma2_decay_fit(
            GeneratorSpec.koksma(),
            D1,
            (1,),
            [1, 2, 3],
            n_seeds=8192,
            master_seed=1,
            pair_sum=24,
            bit_width=64,
        )
        assert not fit.inconclusive
        assert 0.5 <= fit.delta_hat <= 1.5
        assert abs(fit.delta_hat - 0.9906632402624802) < 1e-9
        assert fit.pairs == ((13, 12), (13, 11), (14, 11))

    def test_lag_validation(self):
        with pytest.raises(ValueError):
            lemma2_decay_fit(FACTORIAL, D1, (1,), [], n_seeds=8)
        with pytest.raises(ValueError):
            lemma2_decay_fit(FACTORIAL, D1, (1,), [0, 1], n_seeds=8)
        with pytest.raises(ValueError):
            lemma2_decay_fit(FACTORIAL, D1, (1,), [10], n_seeds=8, pair_sum=4)


class TestLemma3:
    def test_factorial_exact_pass(self):
        check = lemma3_check(FACTORIAL, D1, (1,), 1000, master_seed=4)
        assert check.exact
        assert check.verdict == "pass"
        assert check.empirical_max == 0.0
        assert check.estimates == (0.0,) * len(check.pairs)
        assert check.implied_budget == 1000 + 1000**1.5
        gap = math.isqrt(999) + 1
        assert all(min(l, k - l) >= gap for k, l in check.pairs)

    def test_degenerate_exact_fail(self):
        check = lemma3_check(MULT2, D2, (2, -1), 1000, master_seed=4)
        assert check.exact
        assert check.verdict == "fail"
        assert check.empirical_max == 2.0

    def test_koksma_monte_carlo_pass(self):
        # master seed 2 pinned: seed 1 hits a 4-sigma draw on one pair
        check = lemma3_check(
            GeneratorSpec.koksma(),
            D1,
            (1,),
            4096,
            n_seeds=64,
            master_seed=2,
            n_pairs=32,
            bit_width=64,
        )
        assert not check.exact
        assert check.verdict == "pass"
        assert check.c_hat == check.empirical_max * math.log(4096) ** 2

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            lemma3_check(FACTORIAL, D1, (1,), 3)

    @pytest.mark.parametrize(
        "moment, verdict",
        [(0.0, "pass"), (0.05, "inconclusive"), (0.125, "inconclusive"), (0.25, "fail")],
    )
    def test_verdict_follows_the_largest_excess(self, moment, verdict, monkeypatch):
        # every seed reads Re(Y_k conj Y_l) = moment, so each far pair's estimate is
        # 2 moment with stderr 0: an excess in (0, 0.25] is inconclusive
        def crafted(spec, cfg, m, columns, n_seeds, *rest):
            return np.full((n_seeds, len(columns)), complex(moment, 0.5))

        monkeypatch.setattr(stochastic, "_seed_table", crafted)
        check = lemma3_check(KOKSMA, D1, (1,), 100, n_seeds=4, n_pairs=8, bit_width=64)
        assert check.verdict == verdict
        assert check.empirical_max == 2 * moment

    @pytest.mark.parametrize("spec", [FACTORIAL, GeneratorSpec.koksma()], ids=["exact", "koksma"])
    def test_n_pairs_must_be_positive(self, spec):
        with pytest.raises(ValueError, match="n_pairs must be positive"):
            lemma3_check(spec, D1, (1,), 100, n_seeds=4, n_pairs=0, bit_width=64)

    def test_mc_needs_two_seeds(self):
        with pytest.raises(ValueError):
            lemma3_check(GeneratorSpec.koksma(), D1, (1,), 100, n_seeds=1)
        # n_seeds is reported before n_pairs and n
        with pytest.raises(ValueError, match="at least 2"):
            lemma3_check(GeneratorSpec.koksma(), D1, (1,), 3, n_seeds=1, n_pairs=0)

    def test_zero_coefficients_never_reach_the_certificate(self):
        # the sample reader and the exact audit take the same specs
        with pytest.raises(ValueError, match="coefficients entries must be positive"):
            lemma3_check(GeneratorSpec.linear((0,) * 200), D1, (1,), 100)

    def test_exact_path_reads_shifted_windows(self):
        from equidist.stochastic import _window_sums
        from equidist.weyl import MultiIndex

        # with h = 2, window 2 starts at position 3, where c_3 = c_1: the
        # frequency vanishes and the pair moment is identically 1
        spec = GeneratorSpec.linear((1, 5, 1, 7, 9, 11, 13, 17))
        cfg = WindowConfig(d=1, h=2)
        w = _window_sums(spec, cfg, MultiIndex((1,)), (2, 1))
        assert w[2] - w[1] == 0
        est = mc_moment(spec, cfg, (1,), MomentTarget("pair_moment", k=2, l=1), n_seeds=4)
        assert est.value == 1
        # the far pair (4, 2) of n = 4 reads positions 7 and 3 at h = 2
        spec = GeneratorSpec.linear((1, 5, 1, 7, 9, 11, 1, 17))
        check = lemma3_check(spec, cfg, (1,), 4)
        assert check.pairs == ((4, 2),)
        assert check.estimates == (2.0,)
        assert check.verdict == "fail"
        assert lemma3_check(spec, D1, (1,), 4).estimates == (0.0,)

    def test_exact_path_rejects_interleaved(self):
        cfg = WindowConfig(d=2, construction="interleaved_a")
        with pytest.raises(ValueError, match="interleaved_a"):
            lemma3_check(FACTORIAL, cfg, (1, 1), 100)

    @pytest.mark.parametrize("spec", [FACTORIAL, GeneratorSpec.koksma()], ids=["exact", "koksma"])
    def test_rejects_dimension_mismatch(self, spec):
        with pytest.raises(ValueError, match="d = 1, but the windows have d = 2"):
            lemma3_check(spec, D2, (1,), 100, n_seeds=4, bit_width=64)


KOKSMA = GeneratorSpec.koksma()

# every seed-averaged entry point, called as entry(cfg, **kwargs)
ENTRY_POINTS = {
    "mc_moment_pair": lambda cfg, **kw: mc_moment(
        FACTORIAL, cfg, (1,) * cfg.d, MomentTarget("pair_moment", k=7, l=3), **kw
    ),
    "mc_moment_abs_sum": lambda cfg, **kw: mc_moment(
        FACTORIAL, cfg, (1,) * cfg.d, MomentTarget("abs_sum_sq_mean", n=64), **kw
    ),
    "del_criterion": lambda cfg, **kw: del_criterion(FACTORIAL, cfg, (1,) * cfg.d, 300, **kw),
    "wcud_check": lambda cfg, **kw: wcud_check(FACTORIAL, cfg, (1,) * cfg.d, 200, **kw),
    "lemma2_decay_fit": lambda cfg, **kw: lemma2_decay_fit(
        FACTORIAL, cfg, (1,) * cfg.d, [1, 2, 3], **kw
    ),
    "lemma3_check": lambda cfg, **kw: lemma3_check(
        KOKSMA, cfg, (1,) * cfg.d, 100, n_pairs=4, bit_width=64, **kw
    ),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
class TestSeedEngine:
    def test_needs_two_seeds(self, entry):
        with pytest.raises(ValueError, match="at least 2"):
            entry(D1, n_seeds=1)

    @pytest.mark.parametrize("d", [1, 2])
    def test_rejects_interleaved(self, entry, d):
        cfg = WindowConfig(d=d, construction="interleaved_a")
        with pytest.raises(ValueError, match="interleaved_a"):
            entry(cfg, n_seeds=4)

    def test_no_sample_crosses_into_floats(self, entry, monkeypatch):
        # design rule 2: the engine sums phase words of the exact samples
        def refuse(numerator, denominator):
            raise AssertionError("a sample crossed into a float")

        monkeypatch.setattr(generators, "unit_float", refuse)
        monkeypatch.setattr(generators, "_unit_floats", refuse)
        entry(WindowConfig(d=2, h=1, o=1), n_seeds=4, master_seed=5)


def test_mc_statistic_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="d = 2, but the windows have d = 1"):
        wcud_check(FACTORIAL, D1, (1, -1), 200, n_seeds=4)


# zero-frequency directions: every window frequency w_k vanishes for any h, o
ZERO_FREQUENCY = [
    (GeneratorSpec.multiplicative(2), (2, -1)),
    (GeneratorSpec.multiplicative(3), (0, 3, -1)),
    (GeneratorSpec.multiplicative(5), (5, -1, 0)),
    (GeneratorSpec.weyl(1), (1, -2, 1)),
    (GeneratorSpec.weyl(1), (0, 1, -2, 1)),
    (GeneratorSpec.weyl(2), (1, -3, 3, -1)),
]
ZERO_IDS = [f"{s.family}{s.base or s.power}-{m}" for s, m in ZERO_FREQUENCY]


class _Drew(Exception):
    pass


def _refuse_draws(monkeypatch):
    def refuse(*args, **kwargs):
        raise _Drew

    stochastic._draw_seeds.cache_clear()
    monkeypatch.setattr(SeedSampler, "sample", refuse)
    return refuse


def _closed_form_zero(spec: GeneratorSpec, m: MultiIndex) -> bool:
    """Every window sum vanishes, by the families' closed forms: multiplicative
    w = M^(s+1) sum_j m_j M^(j-1), weyl_power w = sum_i C(p, i) s^(p-i) sum_j m_j j^i."""
    comps = m.components
    if spec.family == "multiplicative":
        return sum(c * spec.base**j for j, c in enumerate(comps)) == 0
    if spec.family == "weyl_power":
        return all(
            sum(c * j**i for j, c in enumerate(comps, start=1)) == 0
            for i in range(spec.power + 1)
        )
    return False


class TestZeroFrequency:
    @pytest.mark.parametrize(
        "spec",
        [MULT2, GeneratorSpec.multiplicative(3), GeneratorSpec.multiplicative(5),
         GeneratorSpec.weyl(1), GeneratorSpec.weyl(2), GeneratorSpec.weyl(3), FACTORIAL],
        ids=["mult2", "mult3", "mult5", "weyl1", "weyl2", "weyl3", "factorial"],
    )
    def test_window_sums_decide_as_the_closed_forms(self, spec):
        for d in range(1, 6):
            for m in multi_indices(d, 3 if d <= 3 else 2):
                assert stochastic._zero_frequency(spec, m) == _closed_form_zero(spec, m), m

    def test_decided_once_per_spec_and_m(self, monkeypatch):
        calls, window_sums = [], stochastic._window_sums

        def counted(*args):
            calls.append(args)
            return window_sums(*args)

        stochastic._zero_frequency.cache_clear()
        monkeypatch.setattr(stochastic, "_window_sums", counted)
        for _ in range(3):
            wcud_check(GeneratorSpec.multiplicative(2), D2, (2, -1), 100, n_seeds=4)
        assert len(calls) == 1
        assert stochastic._zero_frequency.cache_info().maxsize is not None


class TestZeroFrequencyRows:
    @pytest.mark.parametrize("bits", [8, 64, 256])
    @pytest.mark.parametrize("h, o", [(1, 0), (2, 1), (3, 0)])
    @pytest.mark.parametrize("spec, m", ZERO_FREQUENCY, ids=ZERO_IDS)
    def test_every_seed_row_is_the_certified_row(self, spec, m, h, o, bits):
        # the lemma behind the shortcut: phase words within ||m||_1 of a turn
        # give real parts of exactly 1.0, so |S_n| is the float n bit for bit
        cfg, m = WindowConfig(d=len(m), h=h, o=o), MultiIndex(m)
        assert stochastic._zero_frequency(spec, m)
        at = np.array([0, 1, 6, 63, 499])
        sampler = SeedSampler(17, bits)
        for _ in range(6):
            seed = sampler.sample(spec.seed_interval())
            (row,) = stochastic._prefix_rows(spec, cfg, m, at, [seed])
            assert row.dtype == np.float64
            assert row.tobytes() == (at + 1.0).tobytes()

    @pytest.mark.parametrize("spec, m", ZERO_FREQUENCY, ids=ZERO_IDS)
    def test_exact_table_draws_no_seed(self, spec, m, monkeypatch):
        _refuse_draws(monkeypatch)
        cfg, at = WindowConfig(d=len(m), h=2, o=1), np.array([0, 1, 6, 63, 499])
        table = stochastic._seed_table(spec, cfg, MultiIndex(m), at, 5, 3, 64)
        assert table.shape == (5, len(at))
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
        for row in table:
            assert row.tobytes() == (at + 1.0).tobytes()

    @pytest.mark.parametrize("spec, m", ZERO_FREQUENCY, ids=ZERO_IDS)
    def test_statistics_draw_no_seed(self, spec, m, monkeypatch):
        _refuse_draws(monkeypatch)
        cfg = WindowConfig(d=len(m), h=2, o=1)
        kw = dict(n_seeds=5, master_seed=3, bit_width=64)
        wcud = wcud_check(spec, cfg, m, 500, **kw)
        assert wcud.verdicts["wcud"] == "refuted"
        assert set(wcud.s_over_n) == {1.0} and set(wcud.s_over_n_stderr) == {0.0}
        diag = del_criterion(spec, cfg, m, 300, **kw)
        assert diag.verdicts["del_series"] == "divergent-trend"
        assert set(diag.s_over_n) == {1.0}
        for kind, value in (("abs_sum_mean", 40.0), ("abs_sum_sq_mean", 1600.0)):
            est = mc_moment(spec, cfg, m, MomentTarget(kind, n=40), **kw)
            assert (est.value, est.stderr, est.n_seeds) == (value, 0.0, 5)

    @pytest.mark.parametrize(
        "spec, m",
        [
            *((GeneratorSpec.weyl(p), degenerate_m_weyl(p).components) for p in (1, 2, 3)),
            (FACTORIAL, (1,)),
            (GeneratorSpec.self_power(), (1, -1)),
            (MULT2.permuted(ArithmeticIndices(3, 2)), (2, -1)),
        ],
        ids=["weyl1-kernel", "weyl2-kernel", "weyl3-kernel", "factorial", "self_power", "permuted"],
    )
    def test_other_inputs_still_draw(self, spec, m, monkeypatch):
        # degenerate_m_weyl(p) leaves the constant phase (-1)^p p! t, not zero
        assert not stochastic._zero_frequency(spec, MultiIndex(m))
        _refuse_draws(monkeypatch)
        cfg = WindowConfig(d=len(m))
        with pytest.raises(_Drew):
            wcud_check(spec, cfg, m, 100, n_seeds=4, master_seed=3, bit_width=64)
        with pytest.raises(_Drew):
            del_criterion(spec, cfg, m, 100, n_seeds=4, master_seed=3, bit_width=64)
        with pytest.raises(_Drew):
            mc_moment(spec, cfg, m, MomentTarget("abs_sum_mean", n=9), n_seeds=4, master_seed=3)

    @pytest.mark.parametrize(
        "cfg, kw, match",
        [
            (D2, dict(n_seeds=1), "at least 2"),
            (WindowConfig(d=2, construction="interleaved_a"), {}, "interleaved_a"),
            (D1, {}, "windows have d = 1"),
            (D2, dict(bit_width=3), "bit_width"),
        ],
        ids=["one-seed", "interleaved", "dimension", "bit-width"],
    )
    def test_validation_still_raises(self, cfg, kw, match):
        m, kw = (2, -1), {"n_seeds": 4, **kw}
        with pytest.raises(ValueError, match=match):
            wcud_check(MULT2, cfg, m, 100, **kw)
        with pytest.raises(ValueError, match=match):  # the exact branch draws no seed either
            lemma3_check(MULT2, cfg, m, 100, **kw)
        with pytest.raises(ValueError, match=match):
            del_criterion(MULT2, cfg, m, 100, **kw)
        with pytest.raises(ValueError, match=match):
            mc_moment(MULT2, cfg, m, MomentTarget("abs_sum_sq_mean", n=9), **kw)


class TestSeedMemo:
    def test_repeat_draws_are_the_same_tuple(self):
        args = ((Fraction(0), Fraction(1)), 4, 11, 64)
        first = stochastic._draw_seeds(*args)
        assert type(first) is tuple and len(first) == 4
        assert stochastic._draw_seeds(*args) is first

    def test_draws_are_the_sampler_sequence(self):
        interval = (Fraction(1), Fraction(2))
        sampler = SeedSampler(12, 64)
        want = tuple(sampler.sample(interval) for _ in range(5))
        assert stochastic._draw_seeds(interval, 5, 12, 64) == want

    def test_memo_stays_at_cap(self):
        cap = stochastic._draw_seeds.cache_info().maxsize
        for master in range(cap + 5):
            stochastic._draw_seeds((Fraction(0), Fraction(1)), 2, 1000 + master, 16)
        assert stochastic._draw_seeds.cache_info().currsize == cap


class TestGammaIndex:
    def test_first_column(self):
        assert [gamma_index(i, 1) for i in range(1, 5)] == [1, 2, 4, 7]

    def test_reference_values(self):
        assert gamma_index(1, 3) == 6
        assert gamma_index(2, 2) == 5
        assert gamma_index(3, 2) == 8
        assert gamma_index(4, 1) == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_index(0, 1)
        with pytest.raises(ValueError):
            gamma_index(1, 0)

    def test_injective_on_large_grid(self):
        seen = {gamma_index(i, j) for i in range(1, 301) for j in range(1, 301)}
        assert len(seen) == 300 * 300

    def test_antidiagonals_tile_initial_segment(self):
        # the first T_n indices are exactly the entries with i + j - 1 <= n
        n = 12
        block = {
            gamma_index(i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 2 - i)
        }
        assert block == set(range(1, n * (n + 1) // 2 + 1))


class TestTermPaths:
    @pytest.mark.parametrize("h", [1, 3])
    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec.multiplicative(3),
            GeneratorSpec.multiplicative(3).permuted(ArithmeticIndices(5, 2)),
            GeneratorSpec.koksma(),
        ],
        ids=["multiplicative", "permuted", "koksma"],
    )
    def test_sparse_windows_match_prefix_bit_for_bit(self, spec, h):
        # _window_rows reads only the windows it names; _prefix_rows reads the whole range
        seed = SeedSampler(6, bit_width=64).sample(spec.seed_interval())
        cfg = WindowConfig(d=3, h=h, o=1)
        m = MultiIndex((3, -2, 3))
        table = generators._word_table(spec, seed, cfg, 40)
        prefix = unit_terms(table, m)
        (row,) = stochastic._prefix_rows(spec, cfg, m, np.arange(40), [seed])
        assert row.tobytes() == np.abs(np.cumsum(prefix)).tobytes()
        ks = [40, 7, 1, 7, 23]
        got = stochastic._window_rows(spec, cfg, m, [(k,) for k in ks], [seed])
        assert got.shape == (1, len(ks))
        assert got[0].tolist() == [prefix[k - 1] for k in ks]


def _one_seed_row(spec, cfg, m, columns, seed) -> np.ndarray:
    # the engine's row before it batched seeds: one kernel pass for one seed, and each
    # pair the numpy scalar product Y_k * conj(Y_l)
    ks = sorted({k for column in columns for k in column})
    table = generators._word_table(spec, seed, cfg, ks)
    y = dict(zip(ks, unit_terms(table, m)))
    return np.array(
        [y[c[0]] * np.conj(y[c[1]]) if len(c) == 2 else y[c[0]] for c in columns],
        dtype=complex,
    )


def _one_seed_sums(spec, cfg, m, at, seed) -> np.ndarray:
    # |S_n| at the indices n - 1 in `at`, from one kernel pass over one seed's stream
    table = generators._word_table(spec, seed, cfg, int(at[-1]) + 1)
    return np.abs(np.cumsum(unit_terms(table, m)))[at]


class TestBatchedWindowRows:
    COLUMNS = [(17, 5), (9,), (5, 17), (9,), (30, 2), (5, 5), (1,), (17, 5)]

    @pytest.mark.parametrize(
        "spec, m, bits",
        [
            (FACTORIAL, (1,), 256),
            (FACTORIAL, (2, -1), 256),
            (FACTORIAL, (1, -3, 2), 64),
            (KOKSMA, (1,), 64),
            (KOKSMA, (3, -2), 64),
        ],
        ids=["factorial-d1", "factorial-d2", "factorial-d3", "koksma-d1", "koksma-d2"],
    )
    @pytest.mark.parametrize("h, o", [(1, 0), (2, 1)])
    def test_table_is_the_one_seed_rows_byte_for_byte(self, spec, m, bits, h, o):
        # term and pair columns, repeated windows and a repeated column
        cfg, m = WindowConfig(d=len(m), h=h, o=o), MultiIndex(m)
        seeds = stochastic._draw_seeds(spec.seed_interval(), 6, 5, bits)
        got = stochastic._window_rows(spec, cfg, m, self.COLUMNS, seeds)
        want = np.vstack([_one_seed_row(spec, cfg, m, self.COLUMNS, s) for s in seeds])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_kernel_chunks_cut_inside_rows(self, monkeypatch):
        # a chunk boundary inside a seed's words changes no bit
        monkeypatch.setattr(weyl, "_CHUNK", 5)
        cfg, m = WindowConfig(d=2), MultiIndex((2, -1))
        seeds = stochastic._draw_seeds(KOKSMA.seed_interval(), 7, 2, 64)
        got = stochastic._window_rows(KOKSMA, cfg, m, self.COLUMNS, seeds)
        want = np.vstack([_one_seed_row(KOKSMA, cfg, m, self.COLUMNS, s) for s in seeds])
        assert got.tobytes() == want.tobytes()

    def test_statistics_read_the_one_seed_rows(self):
        # each statistic's means and stderrs over the same rows, stacked by hand in C order
        cfg, m, kw = WindowConfig(d=1), MultiIndex((1,)), dict(n_seeds=9, master_seed=4, bit_width=64)
        seeds = stochastic._draw_seeds(KOKSMA.seed_interval(), 9, 4, 64)

        def pair_stats(pairs):
            rows = np.vstack([_one_seed_row(KOKSMA, cfg, m, list(pairs), s) for s in seeds])
            return stochastic._mean_stderr(2.0 * rows.real)

        def sum_rows(ns):
            at = np.array(ns) - 1
            return np.vstack([_one_seed_sums(KOKSMA, cfg, m, at, s) for s in seeds])

        fit = lemma2_decay_fit(KOKSMA, cfg, m, [1, 2, 5], **kw)
        far = lemma3_check(KOKSMA, cfg, m, 100, n_pairs=16, **kw)
        for result, (mean, stderr) in ((fit, pair_stats(fit.pairs)), (far, pair_stats(far.pairs))):
            assert np.array(result.estimates).tobytes() == mean.tobytes()
            assert np.array(result.stderrs).tobytes() == stderr.tobytes()
        diag = del_criterion(KOKSMA, cfg, m, 300, **kw)
        cps = np.array(diag.checkpoints, dtype=float)
        mean, stderr = stochastic._mean_stderr(sum_rows(diag.checkpoints))
        assert np.array(diag.s_over_n).tobytes() == (mean / cps).tobytes()
        assert np.array(diag.s_over_n_stderr).tobytes() == (stderr / cps).tobytes()
        ns = [10, 50, 300]
        wcud = wcud_check(KOKSMA, cfg, m, ns, **kw)
        mean, stderr = stochastic._mean_stderr(sum_rows(ns) / np.array(ns, dtype=float))
        assert np.array(wcud.s_over_n).tobytes() == mean.tobytes()
        assert np.array(wcud.s_over_n_stderr).tobytes() == stderr.tobytes()
        est = mc_moment(KOKSMA, cfg, m, MomentTarget("abs_sum_sq_mean", n=77), **kw)
        mean, stderr = stochastic._mean_stderr(sum_rows([77]) ** 2)
        assert np.array([est.value, est.stderr]).tobytes() == np.array([mean[0], stderr[0]]).tobytes()


class TestBitSources:
    def test_one_third_alternates(self):
        src = SeedBitSource(RationalSeed(1, 3, prime_denominator=True))
        got = src.bits(8)
        assert got.dtype == np.uint8 and np.array_equal(got, [0, 1, 0, 1, 0, 1, 0, 1])

    def test_matches_fraction_digits(self):
        seed = SeedSampler(21, bit_width=48).sample()
        got = SeedBitSource(seed).bits(64)
        x = Fraction(seed.numerator, seed.denominator)
        want = [int(x * 2**j) % 2 for j in range(1, 65)]
        assert np.array_equal(got, want)

    def test_matches_long_division(self):
        seed = SeedSampler(22, bit_width=256).sample()
        q, r = seed.denominator, seed.numerator
        want = []
        for _ in range(3000):
            r <<= 1
            want.append(r // q)
            r %= q
        assert np.array_equal(SeedBitSource(seed).bits(3000), want)

    def test_rejects_seed_outside_unit_interval(self):
        with pytest.raises(ValueError):
            SeedBitSource(RationalSeed(3, 2, prime_denominator=True))

    def test_refuses_past_cap(self):
        src = SeedBitSource(
            RationalSeed(1, 3, prime_denominator=True), max_bits=10
        )
        with pytest.raises(ValueError):
            src.bits(11)


class _ListBits:
    """A bit source reading a fixed list of bits."""

    def __init__(self, bits):
        self._bits = list(bits)

    def bits(self, count: int) -> list[int]:
        assert count <= len(self._bits)
        return self._bits[:count]


class TestGammaStream:
    def test_all_zero_bits(self):
        xs = gamma_stream(_ListBits([0] * 256), 4, bits_per_uniform=8)
        assert np.all(xs == 0.0)

    def test_all_one_bits(self):
        xs = gamma_stream(_ListBits([1] * 40), 1, bits_per_uniform=8)
        assert xs[0] == 255 / 256

    def test_single_bit_uniforms_read_first_column(self):
        # with one bit per uniform, uniform i is bit gamma_index(i, 1) / 2
        bits = [0] * 16
        for idx in (1, 4):  # bits feeding uniforms 1 and 3
            bits[idx - 1] = 1
        xs = gamma_stream(_ListBits(bits), 4, bits_per_uniform=1)
        assert list(xs) == [0.5, 0.0, 0.5, 0.0]

    @pytest.mark.parametrize("count", [0, 1, 7])
    @pytest.mark.parametrize("bits", [1, 32])
    def test_index_table_is_the_scalar_index(self, count, bits):
        got = GammaStream(None, bits_per_uniform=bits).index_table(count)
        want = [[gamma_index(i, j) for j in range(1, bits + 1)] for i in range(1, count + 1)]
        assert got == want
        assert all(type(v) is int for row in got for v in row)

    def test_index_table_rows_are_disjoint(self):
        table = GammaStream(None, bits_per_uniform=7).index_table(5)
        flat = [idx for row in table for idx in row]
        assert len(flat) == len(set(flat))

    @pytest.mark.parametrize("b", [1, 32, 60])
    def test_matches_sequential_sum(self, b):
        source = default_bit_source(9)
        count = 40
        bits = source.bits(gamma_index(count, b))
        want = []
        for i in range(1, count + 1):
            acc = 0.0
            for j in range(1, b + 1):
                acc += bits[gamma_index(i, j) - 1] * 0.5**j
            want.append(acc)
        assert GammaStream(source, b).uniforms(count).tolist() == want

    def test_uniforms_lie_in_unit_interval(self):
        xs = gamma_stream(default_bit_source(9), 64)
        assert np.all((0 <= xs) & (xs < 1))
        assert abs(float(xs.mean()) - 0.5) < 3 / math.sqrt(12 * 64)

    def test_deterministic_in_master_seed(self):
        a = gamma_stream(default_bit_source(9), 16)
        b = gamma_stream(default_bit_source(9), 16)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            GammaStream(None, bits_per_uniform=0)
        with pytest.raises(ValueError):
            gamma_stream(_ListBits([]), -1, bits_per_uniform=1)


# documented raises and empty reads that no other test reaches: (call, exception type,
# reason), or (call, None, the empty array the call returns)
RAISES = {
    "koksma-coefficients": (lambda: c_of_m_scan(GeneratorSpec.koksma(), (1,)), ValueError,
                            "koksma has no integer coefficient sequence"),
    "bit-source-interval": (lambda: SeedBitSource(RationalSeed(3, 2, interval=(1, 2))), ValueError,
                            r"bit source needs a seed in \(0, 1\)"),
    "float-lag": (lambda: lemma2_decay_fit(FACTORIAL, D1, (1,), [1.5, 2], n_seeds=8), TypeError,
                  "cannot be interpreted as an integer"),
    "bits-zero": (lambda: SeedBitSource(RationalSeed(1, 3)).bits(0), None,
                  np.zeros(0, dtype=np.uint8)),
    # a source of None: an empty read asks it for nothing
    "uniforms-zero": (lambda: GammaStream(None).uniforms(0), None, np.zeros(0)),
}


@pytest.mark.parametrize("call, error, reason", RAISES.values(), ids=RAISES.keys())
def test_documented_raises(call, error, reason):
    if error is None:
        got = call()
        assert (got.dtype, got.shape) == (reason.dtype, reason.shape)
        return
    with pytest.raises(error, match=reason):
        call()
