"""Exact 1-D discrepancies, the brute-force oracle, and the ETK bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equidist.arithmetic import SeedSampler
from equidist.discrepancy import (
    DiscrepancyResult,
    etk_bound,
    extreme_discrepancy_1d,
    star_discrepancy_1d,
    star_discrepancy_oracle,
)
from equidist.errors import CompletenessError
from equidist.generators import GeneratorSpec, WindowConfig
from equidist.weyl import MultiIndex, WeylSeries, criterion_scan, weyl_sum

unit_floats = st.floats(min_value=0.0, max_value=1.0, exclude_max=True, width=64)


class TestStar1d:
    def test_single_midpoint(self):
        assert star_discrepancy_1d([0.5]).value == 0.5

    def test_two_point_lattice(self):
        assert star_discrepancy_1d([0.25, 0.75]).value == 0.25

    def test_coincident_points(self):
        res = star_discrepancy_1d([0.0, 0.0])
        assert res.value == 1.0
        assert res.witness == (0.0, "closed")

    def test_lower_bound_half_over_n(self):
        # max(i/N - x_i, x_i - (i-1)/N) averages to 1/(2N) at best
        rng = np.random.default_rng(0)
        for n in (1, 2, 7, 33):
            xs = rng.random(n)
            assert star_discrepancy_1d(xs).value >= 1 / (2 * n) - 1e-15

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            star_discrepancy_1d([0.5, 1.0])
        with pytest.raises(ValueError):
            star_discrepancy_1d([])

    @given(st.lists(unit_floats, min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_permutation_invariant_and_bounded(self, xs):
        a = star_discrepancy_1d(xs).value
        b = star_discrepancy_1d(list(reversed(xs))).value
        assert a == b
        assert 0 <= a <= 1


class TestExtreme1d:
    def test_two_point_lattice(self):
        assert extreme_discrepancy_1d([0.25, 0.75]).value == 0.5

    def test_single_midpoint(self):
        # the empty interval just below 0.5 already misses by 1/N + spread
        assert extreme_discrepancy_1d([0.5]).value == 1.0

    @given(st.lists(unit_floats, min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_dominates_star(self, xs):
        assert (
            extreme_discrepancy_1d(xs).value >= star_discrepancy_1d(xs).value - 1e-15
        )


class TestOracle:
    def test_single_center_point_2d(self):
        res = star_discrepancy_oracle([(0.5, 0.5)])
        # closed box [0, 0.5]^2 holds the point with volume 1/4
        assert res.value == 0.75
        assert res.witness == ((0.5, 0.5), "closed")

    def test_tie_keeps_the_closed_box(self):
        # [0, 0.5] holds the point and [0, 0.5) does not: both miss by 1/2
        assert star_discrepancy_oracle([0.5]).witness == ((0.5,), "closed")

    def test_product_lattice_2d(self):
        pts = [(a, b) for a in (0.25, 0.75) for b in (0.25, 0.75)]
        assert star_discrepancy_oracle(pts).value == 0.4375

    def test_matches_closed_form_in_1d(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            xs = rng.random(rng.integers(1, 65))
            assert star_discrepancy_oracle(xs).value == star_discrepancy_1d(xs).value

    def test_size_caps(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            star_discrepancy_oracle(rng.random((65, 1)))
        with pytest.raises(ValueError):
            star_discrepancy_oracle(rng.random((4, 4)))

    def test_witness_box_reproduces_value(self):
        rng = np.random.default_rng(3)
        xs = rng.random((20, 2))
        res = star_discrepancy_oracle(xs)
        box, side = res.witness
        b = np.asarray(box)
        if side == "closed":
            count = int(np.sum(np.all(xs <= b, axis=1)))
        else:
            count = int(np.sum(np.all(xs < b, axis=1)))
        assert abs(abs(count / 20 - b.prod()) - res.value) < 1e-15


class TestEtkBound:
    def _scan(self, d=2, n_max=200, radius=2):
        seed = SeedSampler(4, bit_width=64).sample()
        return criterion_scan(
            GeneratorSpec.factorial(), seed, WindowConfig(d=d, h=d), radius, n_max
        )

    def test_single_point_hand_value(self):
        # W_1 = e(0.5) = -1 for the point 0.5 and m = 1: bound is
        # 1.5 * (2/2 + 1) = 3 before folding in the mirror m = -1 -> 4.5
        series = {
            MultiIndex((1,)): WeylSeries(MultiIndex((1,)), (1,), (-1 + 0j,)),
            MultiIndex((-1,)): WeylSeries(MultiIndex((-1,)), (1,), (-1 + 0j,)),
        }
        res = etk_bound(series, 1, 1)
        assert res.value == 4.5
        assert res.value >= star_discrepancy_1d([0.5]).value

    def test_dominates_oracle(self):
        scan = self._scan(d=2, n_max=32, radius=4)
        from equidist.generators import beta_stream, stream_floats, windows_array

        seed = SeedSampler(4, bit_width=64).sample()
        cfg = WindowConfig(d=2, h=2)
        stream = beta_stream(GeneratorSpec.factorial(), seed, cfg.stream_length(32))
        pts = windows_array(stream_floats(stream), cfg, 32)
        n = scan.checkpoints[-1]
        bound = etk_bound(scan, 4, n).value
        assert bound >= star_discrepancy_oracle(pts).value

    def test_missing_m_raises(self):
        scan = self._scan(radius=2)
        with pytest.raises(CompletenessError):
            etk_bound(scan, 3, scan.checkpoints[-1])

    def test_missing_checkpoint_raises(self):
        scan = self._scan(n_max=200)
        with pytest.raises(CompletenessError):
            etk_bound(scan, 2, 137)

    def test_empty_map_raises(self):
        with pytest.raises(CompletenessError):
            etk_bound({}, 1, 1)

    def test_radius_validation(self):
        scan = self._scan()
        with pytest.raises(ValueError):
            etk_bound(scan, 0, scan.checkpoints[-1])

    def test_bound_shrinks_with_n(self):
        scan = self._scan(d=1, n_max=3000, radius=3)
        values = [etk_bound(scan, 3, n).value for n in scan.checkpoints]
        assert values[-1] < values[0]


# the one float-point check, `weyl._float_points`, behind every discrepancy and the float rows
# of weyl_sum: the same ValueError for a NaN coordinate in each
NAN_CALLS = {
    "star-1d": lambda: star_discrepancy_1d([0.25, float("nan"), 0.75]),
    "extreme-1d": lambda: extreme_discrepancy_1d([0.25, float("nan"), 0.75]),
    "oracle": lambda: star_discrepancy_oracle([(0.25, 0.5), (float("nan"), 0.75)]),
    "weyl-sum": lambda: weyl_sum(np.array([[0.25, 0.5], [0.5, float("nan")]]), (1, 1)),
}


@pytest.mark.parametrize("call", NAN_CALLS.values(), ids=NAN_CALLS.keys())
def test_nan_coordinate_raises(call):
    with pytest.raises(ValueError, match=r"float points must lie in \[0, 1\)"):
        call()


class TestOneDimensionalShape:
    @pytest.mark.parametrize("fn", [star_discrepancy_1d, extreme_discrepancy_1d])
    def test_column_matches_flat(self, fn):
        xs = [0.1, 0.9, 0.5, 0.3]
        assert fn(np.array(xs)[:, None]) == fn(xs)

    @pytest.mark.parametrize("fn", [star_discrepancy_1d, extreme_discrepancy_1d])
    def test_rejects_points_of_two_coordinates(self, fn):
        # two 2-D points, not four numbers (flattened, they would give D*_N = 0.25)
        with pytest.raises(ValueError, match=r"got shape \(2, 2\)"):
            fn([[0.1, 0.9], [0.5, 0.3]])


class TestResultType:
    def test_nan_value_raises(self):
        with pytest.raises(ValueError, match=r"must be >= 0, got nan"):
            DiscrepancyResult("star_exact_1d", float("nan"))

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            DiscrepancyResult("bogus", 0.5)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            DiscrepancyResult("star_exact_1d", -0.1)
        with pytest.raises(ValueError):
            DiscrepancyResult("star_exact_1d", 1.2)
        # an ETK bound above 1 is vacuous but legal
        assert DiscrepancyResult("etk_upper_bound", 3.0).value == 3.0
