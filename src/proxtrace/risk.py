"""Area risk scoring and the combinatorics behind risk curves.

The score for an area is a weighted mean over the individuals observed in
it.  Each observation carries a risk category (highest risk first) and a
distance from the scanner; with weights w and distances d the score is

    score = sum_i w[cat_i] * d_i / (w[0] * sum_i d_i)

which is a distance-weighted convex combination of the weight ratios
w[k] / w[0].  Consequences worth knowing: the score lives in
[w[-1]/w[0], 1], it equals 1 exactly when everyone observed is in the top
category, it is invariant to rescaling all distances by a common factor,
and farther observations carry *more* weight than nearer ones (the
distances appear as multipliers, not attenuators).  That last property is
kept as-is deliberately; see the README note on score behavior.

Also here: enumeration of category-count distributions (all ways to place
up to N individuals into K categories), and seed-deterministic curve and
surface generators that score every such distribution under randomized
placements.
"""

from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial
from pathlib import Path
from typing import Iterator, Literal, Sequence

import numpy as np

from .core import _FLOAT_MAX, _pool_map
from .errors import NoObservationsError, ScoreRangeError, ValidationError

# Distances are drawn at least this far from the scanner: a reporting
# device is never at distance zero from itself.
MIN_PLACEMENT_DISTANCE_M = 0.5

DEFAULT_AREA_RADIUS_M = 10.0
DEFAULT_PLACEMENT_REPEATS = 100

Placement = Literal["uniform", "equal"]


# =========================================================================
# Weights
# =========================================================================

@dataclass(frozen=True)
class WeightConfig:
    """Per-category weights, finite, strictly positive and strictly descending."""

    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.weights) < 1:
            raise ValidationError("at least one category weight is required")
        for w in self.weights:
            if not 0 < w <= _FLOAT_MAX:
                raise ValidationError("category weights must be finite and strictly positive")
        for hi, lo in zip(self.weights, self.weights[1:]):
            if not hi > lo:
                raise ValidationError("category weights must be strictly descending")

    @property
    def top(self) -> float:
        return self.weights[0]

    def __len__(self) -> int:
        return len(self.weights)

    def __getitem__(self, index: int) -> float:
        return self.weights[index]


# Standard four-category weighting, highest risk first.
DEFAULT_WEIGHTS = WeightConfig((0.7, 0.2, 0.09, 0.01))


# =========================================================================
# Scoring and classification
# =========================================================================

class RiskClass(Enum):
    """Five classification bands over the unit interval."""

    A = "Very Low"
    B = "Low"
    C = "Medium"
    D = "High"
    E = "Very High"

    @property
    def label(self) -> str:
        return self.value


@contextlib.contextmanager
def _in_float_range() -> Iterator[None]:
    """Turn an overflow or a 0/0 in the score formula, which every caller of
    _score runs under, into ValidationError, not a NaN or a clipped score."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise ValidationError(f"risk score leaves the float range ({exc})") from exc


@_in_float_range()
def score_from_arrays(
    categories: np.ndarray, distances: np.ndarray, weights: WeightConfig
) -> float:
    """Numeric kernel behind assess_area, usable on plain arrays."""
    categories = np.asarray(categories)
    if categories.size == 0:
        raise NoObservationsError("area score is undefined with zero observations")
    if int(categories.min()) < 0:
        raise ValidationError(f"category index {int(categories.min())} is negative")
    if int(categories.max()) >= len(weights):
        raise ValidationError(
            f"category index {int(categories.max())} has no weight (got {len(weights)} weights)"
        )
    w = np.asarray(weights.weights, dtype=float)
    return float(_score(w[categories], np.asarray(distances, dtype=float), weights))


def _score(w: np.ndarray, d: np.ndarray, weights: WeightConfig) -> np.ndarray:
    """The score formula over the last axis: observation weights w, distances d."""
    raw = (w * d).sum(axis=-1) / (weights.top * d.sum(axis=-1))
    # The value is provably inside [w_K/w_1, 1]; anything past an edge is
    # summation-order rounding, so pin it back rather than leak epsilon out.
    return np.clip(raw, weights.weights[-1] / weights.top, 1.0)


def assess_area(
    categories: Sequence[int] | np.ndarray,
    distances: Sequence[float] | np.ndarray,
    weights: WeightConfig = DEFAULT_WEIGHTS,
    *,
    radius: float = DEFAULT_AREA_RADIUS_M,
) -> float:
    """Score the individuals observed within one scan radius.

    Individual i has risk category categories[i] (an index into weights)
    and lies distances[i] metres from the scanner.  Raises
    NoObservationsError when nobody was observed, and ValidationError when
    the radius is not finite and positive or a distance lies outside
    (0, radius].
    """
    if not 0 < radius <= _FLOAT_MAX:
        raise ValidationError(f"area radius must be finite and strictly positive, got {radius}")
    d = np.asarray(distances, dtype=float)
    if d.size == 0:
        raise NoObservationsError("area score is undefined with zero observations")
    if len(categories) != d.size:
        raise ValidationError(f"got {len(categories)} categories for {d.size} distances")
    outside = ~((d > 0) & (d <= radius))
    if outside.any():
        raise ValidationError(f"distance {d[outside][0]} m outside the {radius} m radius")
    return score_from_arrays(categories, d, weights)


# Upper band edges, inclusive on the right: class A is [0, 0.2] and each
# later band is a half-open (lo, hi] interval.
_BAND_EDGES = ((0.2, "A"), (0.4, "B"), (0.6, "C"), (0.8, "D"), (1.0, "E"))


def classify(score: float) -> RiskClass:
    """Map a score in [0, 1] onto its band; anything outside is an error."""
    value = float(score)
    if math.isnan(value) or value < 0.0 or value > 1.0:
        raise ScoreRangeError(f"risk score {value!r} outside [0, 1] cannot be classified")
    for edge, name in _BAND_EDGES:
        if value <= edge:
            return RiskClass[name]
    raise ScoreRangeError(f"risk score {value!r} outside [0, 1] cannot be classified")


# =========================================================================
# Category-count distributions
# =========================================================================

@dataclass(frozen=True)
class CategoryDistribution:
    """How many observed individuals fall in each category; total may be zero."""

    cardinalities: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.cardinalities) < 1:
            raise ValidationError("a distribution needs at least one category")
        for n in self.cardinalities:
            if n < 0:
                raise ValidationError("category cardinalities must be non-negative")

    @property
    def total(self) -> int:
        return sum(self.cardinalities)


def _descending_vectors(remaining: int, slots: int) -> Iterator[tuple[int, ...]]:
    if slots == 1:
        for x in range(remaining, -1, -1):
            yield (x,)
        return
    for x in range(remaining, -1, -1):
        for rest in _descending_vectors(remaining - x, slots - 1):
            yield (x,) + rest


def _check_counts(n: int, k: int) -> None:
    if n < 0 or k < 1:
        raise ValidationError("need n >= 0 individuals and k >= 1 categories")


def enumerate_distributions(n: int, k: int) -> Iterator[CategoryDistribution]:
    """Yield every k-category distribution with total <= n.

    Order is lexicographically descending on the cardinality vector:
    (n, 0, ..., 0) comes first and the all-zero vector comes last.
    """
    _check_counts(n, k)
    for vec in _descending_vectors(n, k):
        yield CategoryDistribution(vec)


def count_distributions(n: int, k: int) -> int:
    """Number of k-category distributions with total <= n, i.e. C(n + k, k).

    The count includes the empty (all-zero) arrangement: for n=20, k=4 it
    is C(24, 4) = 10626.  A figure of 10627 is sometimes quoted for this
    quantity; the exact count of distinct cardinality vectors is C(n+k, k)
    and that is what the enumerator produces.
    """
    _check_counts(n, k)
    return math.comb(n + k, k)


# =========================================================================
# Curve and surface generation
# =========================================================================

@dataclass(frozen=True)
class CurvePoint:
    index: int  # 1-based position in enumeration order
    cardinalities: tuple[int, ...]
    mean_score: float


@dataclass(frozen=True)
class SurfaceCell:
    n_a: int
    n_b: int
    mean_score: float


# A sweep keeps every cell's key, counts and result as Python objects and
# builds one keyed generator (about 23 us) per cell: a curve of 10**5 cells
# took 6 s and 41 MB, so a million cells, about 100 times the largest sweep
# run here, is already a minute and 400 MB.
_MAX_SWEEP_CELLS = 10**6
# One cell's (repeats, total) draws are scored in one piece, beside their
# copy in the batch array and their product with the weights: 2**24 draws is
# 128 MiB an array, and 1600 times the 10 000 draws of a surface's largest cell.
_MAX_CELL_DRAWS = 2**24
# Cells of one total are scored this many draws at a time, so numpy's
# per-call cost is paid once a batch, not once a cell.  Measured on the
# n=20, k=4 curve: 2**12 batches two cells and gains little, 2**15 gains
# about a quarter with a 256 KiB batch, and 2**16 gains no more but adds
# 1 MB to peak memory.
_BATCH_DRAWS = 2**15


def _check_sweep(
    cells: int, largest_total: int, radius: float, placement: str, repeats: int, seed: int
) -> None:
    """Reject a sweep's placement arguments, and a sweep of more cells or more
    draws a cell than the caps, before any cell is enumerated or drawn."""
    if repeats < 1:
        raise ValidationError("placement repeats must be at least 1")
    if placement not in ("uniform", "equal"):
        raise ValidationError(f"unknown placement policy {placement!r}")
    if not MIN_PLACEMENT_DISTANCE_M <= radius <= _FLOAT_MAX:
        raise ValidationError(
            f"radius must be finite and at least {MIN_PLACEMENT_DISTANCE_M} m, got {radius}"
        )
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    if cells > _MAX_SWEEP_CELLS:
        raise ValidationError(f"a sweep of {cells} cells is over the cap of {_MAX_SWEEP_CELLS}")
    if repeats * largest_total > _MAX_CELL_DRAWS:
        raise ValidationError(
            f"a cell of {repeats} x {largest_total} draws is over the cap of {_MAX_CELL_DRAWS}"
        )


@_in_float_range()
def _mean_scores(
    weights: WeightConfig,
    radius: float,
    placement: Placement,
    repeats: int,
    seed: int,
    jobs: int,
    cells: list[tuple[tuple[int, ...], tuple[int, ...]]],
) -> list[float]:
    """Mean score over `repeats` placements of each (rng key, counts) cell.

    A cell's distances come from its own RNG, keyed on (seed, *key), so a
    cell scores the same in any chunk and any batch: with jobs > 1 the cells
    are split into `jobs` chunks, each scored by this function in a worker
    process.  Cells of one size (total count) are scored together in
    batches of at most _BATCH_DRAWS draws, one numpy pass a batch; building
    each cell's keyed generator is then what bounds the sweep's time.  Each
    (cell, repeat) row is still reduced alone along the last axis, so every
    mean equals the one the cell would get scored by itself.
    """
    if jobs > 1 and len(cells) >= 64:  # below that a pool costs more than it saves
        size = -(-len(cells) // jobs)
        chunks = [cells[start : start + size] for start in range(0, len(cells), size)]
        score = partial(_mean_scores, weights, radius, placement, repeats, seed, 1)
        return [mean for chunk in _pool_map(score, chunks, jobs) for mean in chunk]
    w = np.asarray(weights.weights, dtype=float)
    # Empty area: reported as zero risk by convention so curves and surfaces
    # stay total over the whole enumeration.
    means = [0.0] * len(cells)
    by_total: dict[int, list[int]] = {}
    for i, (_, counts) in enumerate(cells):
        if total := sum(counts):
            by_total.setdefault(total, []).append(i)
    for total, members in by_total.items():
        size = max(1, _BATCH_DRAWS // (repeats * total))
        for start in range(0, len(members), size):
            batch = members[start : start + size]
            counts = [c for i in batch for c in cells[i][1]]
            rows = np.repeat(np.tile(w, len(batch)), counts).reshape(len(batch), 1, total)
            if placement == "equal":
                d = np.full((len(batch), repeats, total), radius / 2.0)
            else:
                d = np.empty((len(batch), repeats, total))
                for row, i in enumerate(batch):
                    key = np.random.SeedSequence(entropy=seed, spawn_key=cells[i][0])
                    d[row] = np.random.default_rng(key).uniform(
                        MIN_PLACEMENT_DISTANCE_M, radius, size=(repeats, total)
                    )
            for i, mean in zip(batch, _score(rows, d, weights).mean(axis=-1).tolist()):
                means[i] = mean
    return means


def risk_curve(
    n: int,
    k: int,
    weights: WeightConfig = DEFAULT_WEIGHTS,
    *,
    radius: float = DEFAULT_AREA_RADIUS_M,
    placement: Placement = "uniform",
    repeats: int = DEFAULT_PLACEMENT_REPEATS,
    seed: int = 0,
    jobs: int = 1,
) -> list[CurvePoint]:
    """Score every distribution of up to n individuals over k categories.

    Each point averages `repeats` random placements inside `radius`; the
    per-point RNG is keyed on (seed, index) so the result is identical for
    any `jobs` value.
    """
    if len(weights) != k:
        raise ValidationError(f"need exactly {k} weights, got {len(weights)}")
    _check_sweep(count_distributions(n, k), n, radius, placement, repeats, seed)
    cells = [((index,), counts) for index, counts in enumerate(_descending_vectors(n, k), 1)]
    means = _mean_scores(weights, radius, placement, repeats, seed, jobs, cells)
    return [CurvePoint(key[0], counts, mean) for (key, counts), mean in zip(cells, means)]


def risk_surface(
    n_max: int,
    weights: WeightConfig = DEFAULT_WEIGHTS,
    *,
    radius: float = DEFAULT_AREA_RADIUS_M,
    placement: Placement = "uniform",
    repeats: int = DEFAULT_PLACEMENT_REPEATS,
    seed: int = 0,
    jobs: int = 1,
) -> list[SurfaceCell]:
    """Score every (n_a, n_b) cell with n_a + n_b <= n_max.

    Only the two highest-risk categories are populated; remaining
    categories stay empty.  Deterministic for a given seed, independent
    of the parallelism degree.
    """
    if n_max < 0:
        raise ValidationError("n_max must be non-negative")
    if len(weights) < 2:
        raise ValidationError("surface generation needs at least two categories")
    _check_sweep((n_max + 1) * (n_max + 2) // 2, n_max, radius, placement, repeats, seed)
    empty = (0,) * (len(weights) - 2)
    cells = [
        ((n_a, n_b), (n_a, n_b) + empty)
        for n_a in range(n_max + 1)
        for n_b in range(n_max - n_a + 1)
    ]
    means = _mean_scores(weights, radius, placement, repeats, seed, jobs, cells)
    return [SurfaceCell(*key, mean) for (key, _), mean in zip(cells, means)]


# =========================================================================
# CSV emission
# =========================================================================

def write_curve_csv(points: Sequence[CurvePoint], path: str | Path, k: int) -> None:
    header = ["index"] + [f"n_{i}" for i in range(1, k + 1)] + ["mean_score", "risk_class"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for pt in points:
            writer.writerow(
                [pt.index, *pt.cardinalities, repr(pt.mean_score), classify(pt.mean_score).name]
            )


def write_surface_csv(cells: Sequence[SurfaceCell], path: str | Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["n_a", "n_b", "mean_score", "risk_class"])
        for cell in cells:
            writer.writerow(
                [cell.n_a, cell.n_b, repr(cell.mean_score), classify(cell.mean_score).name]
            )
