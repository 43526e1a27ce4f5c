"""Star and extreme discrepancy, exact in 1-D, by enumeration in small d.

The 1-D closed forms work on the order statistics.  The d-dimensional
oracle enumerates every corner candidate built from sample coordinates
plus 1.0 and evaluates both the open and the closed count at each, which
captures the supremum over anchored boxes from both sides including tied
coordinates; it is meant as ground truth for small instances, so its size
is capped.  The Erdos-Turan-Koksma inequality turns any lattice of Weyl
sums into an upper bound valid in every dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CompletenessError
from .weyl import WeylSeries, multi_indices

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
        if self.value < 0:
            raise ValueError("discrepancy cannot be negative")
        # A Weyl-sum upper bound may exceed 1 (then it is vacuously true);
        # actual discrepancies cannot.
        if self.kind != "etk_upper_bound" and self.value > 1:
            raise ValueError(f"{self.kind} value {self.value} exceeds 1")


def _unit_values(points) -> np.ndarray:
    xs = np.asarray(points, dtype=float)
    if xs.size == 0:
        raise ValueError("need at least one point")
    if np.any(xs < 0) or np.any(xs >= 1):
        raise ValueError("points must lie in [0, 1)")
    return xs


def star_discrepancy_1d(points) -> DiscrepancyResult:
    """Exact D*_N over anchored intervals [0, b), closed form on sorted data."""
    xs = np.sort(_unit_values(points).ravel())
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
    xs = np.sort(_unit_values(points).ravel())
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
    xs = _unit_values(points)
    if xs.ndim == 1:
        xs = xs[:, None]
    n, d = xs.shape
    if n > ORACLE_MAX_POINTS or d > ORACLE_MAX_DIM:
        raise ValueError(
            f"oracle capped at {ORACLE_MAX_POINTS} points in dimension {ORACLE_MAX_DIM}, "
            f"got N={n}, d={d}"
        )
    coords = [np.concatenate([np.unique(xs[:, i]), [1.0]]) for i in range(d)]
    lt = [coords[i][:, None] > xs[None, :, i] for i in range(d)]
    le = [coords[i][:, None] >= xs[None, :, i] for i in range(d)]
    letters = "abc"[:d]
    expr = ",".join(f"{c}n" for c in letters) + "->" + letters
    open_counts = np.einsum(expr, *[x.astype(float) for x in lt])
    closed_counts = np.einsum(expr, *[x.astype(float) for x in le])
    vol = coords[0]
    for i in range(1, d):
        vol = np.multiply.outer(vol, coords[i])
    dev_open = np.abs(open_counts / n - vol)
    dev_closed = np.abs(closed_counts / n - vol)
    io = np.unravel_index(np.argmax(dev_open), dev_open.shape)
    ic = np.unravel_index(np.argmax(dev_closed), dev_closed.shape)
    if dev_closed[ic] >= dev_open[io]:
        box = tuple(float(coords[i][ic[i]]) for i in range(d))
        return DiscrepancyResult("star_oracle", float(dev_closed[ic]), (box, "closed"))
    box = tuple(float(coords[i][io[i]]) for i in range(d))
    return DiscrepancyResult("star_oracle", float(dev_open[io]), (box, "open"))


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
