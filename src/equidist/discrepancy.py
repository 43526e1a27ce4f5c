"""Star and extreme discrepancy, exact in 1-D, by enumeration in small d.

The 1-D closed forms work on the order statistics.  The d-dimensional
oracle enumerates every corner candidate built from sample coordinates
plus 1.0 and evaluates both the open and the closed count at each, which
captures the supremum over anchored boxes from both sides including tied
coordinates; it is meant as ground truth for small instances, so its size
is capped.  All three check their points by `weyl._float_points`, the one
float check, which rejects a NaN.  The Erdos-Turan-Koksma inequality
turns any lattice of Weyl sums into an upper bound valid in every dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CompletenessError
from .weyl import WeylSeries, _float_points, multi_indices

ORACLE_MAX_POINTS = 64
ORACLE_MAX_DIM = 3

KINDS = ("star_exact_1d", "extreme_exact_1d", "star_oracle", "etk_upper_bound")


@dataclass(frozen=True)
class DiscrepancyResult:
    kind: str
    value: float
    witness: tuple | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if not self.value >= 0:  # a NaN too
            raise ValueError(f"discrepancy must be >= 0, got {self.value}")
        # A Weyl-sum upper bound may exceed 1 (then it is vacuously true);
        # actual discrepancies cannot.
        if self.kind != "etk_upper_bound" and self.value > 1:
            raise ValueError(f"{self.kind} value {self.value} exceeds 1")


def _sorted_1d(points) -> np.ndarray:
    """The sorted coordinates of 1-D points, shaped (N,) or (N, 1)."""
    xs = _float_points(points)
    if xs.shape[1:] not in ((), (1,)):
        raise ValueError(f"1-D discrepancy takes (N,) or (N, 1) points, got shape {xs.shape}")
    return np.sort(xs.ravel())


def star_discrepancy_1d(points) -> DiscrepancyResult:
    """Exact D*_N over anchored intervals [0, b), closed form on sorted data."""
    xs = _sorted_1d(points)
    n = xs.size
    i = np.arange(1, n + 1)
    over = i / n - xs  # closed count i at box touching x_(i)
    under = xs - (i - 1) / n  # open count i-1 just below x_(i)
    k_over = int(np.argmax(over))
    k_under = int(np.argmax(under))
    if over[k_over] >= under[k_under]:
        return DiscrepancyResult(
            "star_exact_1d", float(over[k_over]), (float(xs[k_over]), "closed")
        )
    return DiscrepancyResult(
        "star_exact_1d", float(under[k_under]), (float(xs[k_under]), "open")
    )


def extreme_discrepancy_1d(points) -> DiscrepancyResult:
    """Exact D_N over arbitrary subintervals [a, b)."""
    xs = _sorted_1d(points)
    n = xs.size
    diffs = np.arange(1, n + 1) / n - xs
    hi = int(np.argmax(diffs))
    lo = int(np.argmin(diffs))
    value = 1.0 / n + float(diffs[hi]) - float(diffs[lo])
    return DiscrepancyResult(
        "extreme_exact_1d", value, (float(xs[lo]), float(xs[hi]))
    )


def star_discrepancy_oracle(points) -> DiscrepancyResult:
    """Brute-force D*_N with a witness box, for d <= 3 and N <= 64.

    Candidate corners take each coordinate from the sample coordinates in
    that dimension plus 1.0; at every corner both |#{x < b}/N - vol| and
    |#{x <= b}/N - vol| are evaluated.  Counts are accumulated as exact
    small integers inside float matmuls, so the only rounding is the final
    count/N - volume arithmetic, matching the closed forms bit for bit in
    one dimension.
    """
    xs = _float_points(points)
    if xs.ndim == 1:
        xs = xs[:, None]
    n, d = xs.shape
    if n > ORACLE_MAX_POINTS or d > ORACLE_MAX_DIM:
        raise ValueError(
            f"oracle capped at {ORACLE_MAX_POINTS} points in dimension {ORACLE_MAX_DIM}, "
            f"got N={n}, d={d}"
        )
    coords = [np.concatenate([np.unique(xs[:, i]), [1.0]]) for i in range(d)]
    letters = "abc"[:d]
    expr = ",".join(f"{c}n" for c in letters) + "->" + letters
    vol = coords[0]
    for i in range(1, d):
        vol = np.multiply.outer(vol, coords[i])
    best = None  # (deviation, box, side); closed first, so a tie keeps the closed box
    for side, inside in (("closed", np.greater_equal), ("open", np.greater)):
        hits = [inside(coords[i][:, None], xs[None, :, i]).astype(float) for i in range(d)]
        dev = np.abs(np.einsum(expr, *hits) / n - vol)
        at = np.unravel_index(np.argmax(dev), dev.shape)
        if best is None or dev[at] > best[0]:
            best = (float(dev[at]), tuple(float(coords[i][at[i]]) for i in range(d)), side)
    return DiscrepancyResult("star_oracle", best[0], best[1:])


def etk_bound(series, radius: int, n: int) -> DiscrepancyResult:
    """Erdos-Turan-Koksma upper bound at checkpoint n from a Weyl lattice.

    (3/2)^d * (2/(H+1) + sum over all 0 < sup-norm(m) <= H of |W_n(m)|/r(m)).
    `series` maps MultiIndex -> WeylSeries and must cover the whole lattice
    with n on every grid; a conjugate-filled scan qualifies.
    """
    if hasattr(series, "series"):
        series = series.series
    if radius < 1:
        raise ValueError("radius must be at least 1")
    if not series:
        raise CompletenessError("empty Weyl series map")
    d = next(iter(series)).d
    total = 0.0
    for m in multi_indices(d, radius):
        s: WeylSeries = series.get(m)
        if s is None:
            raise CompletenessError(f"missing Weyl series for m={m}")
        try:
            idx = s.checkpoints.index(n)
        except ValueError:
            raise CompletenessError(
                f"series for m={m} lacks checkpoint {n}"
            ) from None
        total += abs(s.values[idx]) / m.weight
    value = (1.5**d) * (2.0 / (radius + 1) + total)
    return DiscrepancyResult("etk_upper_bound", value, None)
