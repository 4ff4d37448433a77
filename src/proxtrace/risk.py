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
import numbers
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
    if 0.0 <= value <= 1.0:
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


def _descending_vectors(remaining: int, slots: int) -> Iterator[tuple[int, ...]]:
    if slots == 1:
        for x in range(remaining, -1, -1):
            yield (x,)
        return
    for x in range(remaining, -1, -1):
        for rest in _descending_vectors(remaining - x, slots - 1):
            yield (x,) + rest


def _check_integers(**arguments: object) -> None:
    for name, value in arguments.items():
        if not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")


def _check_counts(n: int, k: int) -> None:
    _check_integers(n=n, k=k)
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


# A sweep keeps every cell's key, counts and result as Python objects, and
# 32 bytes of seed state, and draws each cell's placements apart: a curve of
# 10**5 cells took about 4 s and 45 MB, so a million cells, about 100 times
# the largest sweep run here, is already most of a minute and 450 MB.
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
    cells: int, largest_total: int, radius: float, placement: str, repeats: int, seed: int,
    jobs: int,
) -> None:
    """Reject a sweep's placement arguments and job count, and a sweep of more
    cells or more draws a cell than the caps, before any cell is enumerated
    or drawn."""
    _check_integers(repeats=repeats, seed=seed, jobs=jobs)
    if jobs < 1:
        raise ValidationError(f"jobs must be at least 1, got {jobs}")
    if repeats < 1:
        raise ValidationError("placement repeats must be at least 1")
    if placement not in ("uniform", "equal"):
        raise ValidationError(f"unknown placement policy {placement!r}")
    if not (isinstance(radius, numbers.Real) and MIN_PLACEMENT_DISTANCE_M <= radius <= _FLOAT_MAX):
        raise ValidationError(
            f"radius must be finite and at least {MIN_PLACEMENT_DISTANCE_M} m, got {radius!r}"
        )
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    if cells > _MAX_SWEEP_CELLS:
        raise ValidationError(f"a sweep of {cells} cells is over the cap of {_MAX_SWEEP_CELLS}")
    if repeats * largest_total > _MAX_CELL_DRAWS:
        raise ValidationError(
            f"a cell of {repeats} x {largest_total} draws is over the cap of {_MAX_CELL_DRAWS}"
        )


# numpy's SeedSequence hash constants (pool size 4) and PCG64's LCG
# multiplier, kept as Python ints: a numpy scalar's uint32 overflow is
# reported through errstate, which _mean_scores sets to raise, while array
# arithmetic wraps modulo 2**32 as the C code does.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hash_constants(init: int, mult: int) -> Iterator[tuple[int, int]]:
    """A hash constant and its successor, for each successive hashmix."""
    while True:
        successor = init * mult & _MASK32
        yield init, successor
        init = successor


def _hashmix(value: np.ndarray, constants: Iterator[tuple[int, int]]) -> np.ndarray:
    current, successor = next(constants)
    value = (value ^ current) * successor
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ (result >> 16)


def _seed_states(seed: int, keys: np.ndarray) -> np.ndarray:
    """SeedSequence(entropy=seed, spawn_key=key).generate_state(4, np.uint64)
    for every row of keys, a (cells, key length) uint32 array, in one pass.

    This is numpy's documented algorithm run column-wise: the seed's 32-bit
    words, low word first and padded with zeros to the pool size (a spawn
    key is present), then one word per key element, go through mix_entropy
    and generate_state.  Every cell's hash constants are the same, so each
    step is one numpy operation over all cells.
    """
    words = [seed >> shift & _MASK32 for shift in range(0, seed.bit_length(), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.full(len(keys), word, dtype=np.uint32) for word in words] + list(keys.T)
    constants = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(entropy[i], constants) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, constants))
    constants = _hash_constants(_INIT_B, _MULT_B)
    state = [_hashmix(pool[i % _POOL_SIZE], constants).astype(np.uint64) for i in range(8)]
    # uint32 words pair up little-endian into uint64s, low word first
    return np.stack([state[i] | state[i + 1] << 32 for i in range(0, 8, 2)], axis=1)


def _pcg64_state(high: int, low: int, inc_high: int, inc_low: int) -> dict:
    """The state PCG64 seeds itself to from generate_state(4, np.uint64)'s
    words (pcg64_set_seed), in the form its `state` setter takes."""
    inc = ((inc_high << 64 | inc_low) << 1 | 1) & _MASK128
    state = ((inc + (high << 64 | low)) * _PCG64_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


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

    A cell's distances come from its own PCG64 stream, the one
    default_rng(SeedSequence(entropy=seed, spawn_key=key)) gives, so a cell
    scores the same in any chunk and any batch: with jobs > 1 the cells are
    split into `jobs` chunks, each scored by this function in a worker
    process.  Keys are tuples of one length, each element below 2**32.  The
    chunk's seed states are computed in one pass up front, and one reused
    generator is set to each cell's state before it draws.  Cells of one
    size (total count) are scored together in batches of at most
    _BATCH_DRAWS draws, one numpy pass a batch; each cell's state setting,
    draw call and copy into the batch then bound the sweep's time, ahead of
    the scoring.  Each (cell, repeat) row is still reduced alone along the
    last axis, so every mean equals the one the cell would get scored by
    itself.
    """
    # _check_sweep lets bools and numpy integers through; numpy takes no
    # bool as an array dimension, and _seed_states splits a Python int
    repeats, seed = int(repeats), int(seed)
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
    if placement == "uniform" and by_total:
        # One pass for the whole chunk: a cell of a large total is a batch
        # of its own, and seeding each batch apart costs ~100 numpy calls.
        states = _seed_states(seed, np.array([key for key, _ in cells], dtype=np.uint32))
        bit_generator = np.random.PCG64(0)
        rng = np.random.Generator(bit_generator)
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
                for row, words in enumerate(states[batch].tolist()):
                    bit_generator.state = _pcg64_state(*words)
                    d[row] = rng.uniform(MIN_PLACEMENT_DISTANCE_M, radius, size=(repeats, total))
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
    _check_sweep(count_distributions(n, k), n, radius, placement, repeats, seed, jobs)
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
    _check_integers(n_max=n_max)
    if n_max < 0:
        raise ValidationError("n_max must be non-negative")
    if len(weights) < 2:
        raise ValidationError("surface generation needs at least two categories")
    _check_sweep((n_max + 1) * (n_max + 2) // 2, n_max, radius, placement, repeats, seed, jobs)
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
