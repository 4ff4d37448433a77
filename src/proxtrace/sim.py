"""Discrete-day spatial epidemic engine with an optional tracing app.

Each day every free agent jumps to a fresh uniform position in a square
arena, pairs within the infection radius expose each other, and (when the
app is on) pairs within radio range log mutual contacts into a protocol
registry.  Agents turn symptomatic a fixed delay after infection; with
the app enabled that triggers a verified status update, whose co-contact
trace quarantines the reporter and everyone traced.  Quarantined agents
neither move, nor transmit, nor get infected.

Determinism contract: every random draw is keyed by purpose, day, and the
identity it concerns (positions by (seed, day, agent); infection events by
(seed, day, pair)).  Runs with and without the app therefore share one
event stream (common random numbers), and no amount of re-ordering or
parallelism changes an outcome.

Each day's pairs come from a uniform grid of cells at least one radius
wide (`_pairs_within`), in numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral
from typing import Sequence

import numpy as np

from .core import _FLOAT_MAX, DeviceId, SimClock, Stage, _pool_map, hash_identifier
from .errors import ValidationError
from .protocol import Registry, RegistryPolicy

# Arena sizing reference: 20 individuals per 100 m^2.
REFERENCE_DENSITY_PER_M2 = 0.2

# Stage encoding inside the engine's arrays.
_S, _I, _R = 0, 1, 2

# Stream tags for the per-day seed derivation.
_INIT_STREAM = 0
_MOVE_STREAM = 1

_STAFF_CREDENTIAL = "field-clinic"

# Size caps that follow from the engine's own representations, so a size
# is accepted or rejected the same way on every machine: _pair_uniforms
# packs each agent index into 32 bits, and infection_day is an int32 array.
_MAX_POPULATION = 2**32 - 1
_MAX_DAYS = 2**31 - 1

# Every replica's SimConfig, DayStats and CSV rows are held until the CSV is
# written.  On a 2-core host (Python 3.11), 10**4 replicates of a 2-agent,
# 1-day run took 3.2 s and about 7 MB more than 10**3 did; 10**4 runs of the
# 2000-agent app arm, at about 0.75 s each, are two hours, 500 times the
# trend gate's 20 seeds.
_MAX_REPLICATES = 10**4

# The pair search's grid has at most this many cells a side, so every cell
# key fits in int64 however sparse the points.
_GRID_CELLS = 2**20
# Its narrowest cell.  Below about 2**-537, dx*dx underflows to 0, so the
# keep rule dx*dx + dy*dy <= r*r reaches that far whatever r is; a power of
# two also divides a tiny coordinate exactly.
_MIN_CELL = 2.0**-500

# The registry is fed one day's pairs this many at a time, so the Python
# lists that feed it stay small however many pairs a day has.
_ENCOUNTER_CHUNK = 4096

# Counts and day numbers: a float here would reach numpy as a size or a lag.
_INTEGRAL_FIELDS = (
    "population", "initial_infected", "symptom_onset_delay", "quarantine_start_delay",
    "quarantine_days", "infectious_period", "max_days", "seed",
)


# =========================================================================
# Configuration
# =========================================================================

@dataclass(frozen=True)
class SimConfig:
    """Engine parameters; every field is validated by name."""

    population: int = 2000
    initial_infected: int = 1
    # Square arena side in meters; None derives it from the reference
    # density (population / 0.2 per m^2, i.e. side 100 m at 2000 agents).
    arena_side: float | None = None
    bluetooth_range: float = 10.0
    infection_radius: float = 2.0
    infection_probability: float = 0.5
    symptom_onset_delay: int = 2
    quarantine_start_delay: int = 0
    quarantine_days: int = 10
    infectious_period: int = 10
    app_enabled: bool = True
    seed: int = 0
    max_days: int = 60
    encounter_duration_s: float = 300.0

    def __post_init__(self) -> None:
        # Checked first, as the range checks compare them; numpy integers are
        # stored as int, which random.Random accepts as a seed.
        for name in _INTEGRAL_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, Integral):
                raise ValidationError(f"invalid value for config field {name!r}")
            object.__setattr__(self, name, int(value))
        checks = [
            ("population", 1 <= self.population <= _MAX_POPULATION),
            ("initial_infected", 0 <= self.initial_infected <= self.population),
            # the pair search sums squared coordinate differences: they must stay finite
            ("arena_side", self.arena_side is None
             or 0 < self.arena_side and 2 * self.arena_side * self.arena_side <= _FLOAT_MAX),
            ("bluetooth_range", 0 < self.bluetooth_range <= _FLOAT_MAX),
            ("infection_radius", 0 < self.infection_radius <= self.bluetooth_range),
            ("infection_probability", 0.0 <= self.infection_probability <= 1.0),
            ("symptom_onset_delay", self.symptom_onset_delay >= 0),
            ("quarantine_start_delay", self.quarantine_start_delay >= 0),
            ("quarantine_days", self.quarantine_days >= 0),
            ("infectious_period", self.infectious_period >= 1),
            ("max_days", 1 <= self.max_days <= _MAX_DAYS),
            ("encounter_duration_s", 0 <= self.encounter_duration_s <= _FLOAT_MAX),
            ("seed", self.seed >= 0),
        ]
        for name, ok in checks:
            if not ok:
                raise ValidationError(f"invalid value for config field {name!r}")

    @property
    def side(self) -> float:
        if self.arena_side is not None:
            return self.arena_side
        return math.sqrt(self.population / REFERENCE_DENSITY_PER_M2)


@dataclass(frozen=True)
class DayStats:
    day: int
    new_infections: int
    cumulative_infections: int
    quarantined_count: int
    susceptible_count: int


@dataclass
class WorldState:
    """Mutable engine state; step() advances it one day in place."""

    config: SimConfig
    day: int
    positions: np.ndarray
    stage: np.ndarray
    infection_day: np.ndarray
    devices: list[DeviceId]
    # The app's registry, None in the baseline arm.  It is the only owner of
    # quarantine windows; step() reads each day's isolation mask from it.
    registry: Registry | None


# =========================================================================
# Keyed randomness
# =========================================================================

def _day_rng(seed: int, stream: int, day: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(stream, day)))


_MASK64 = (1 << 64) - 1


def _mix64(z: np.ndarray | np.uint64) -> np.ndarray | np.uint64:
    # splitmix64 finalizer; uint64 arithmetic wraps, which is the point.
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _pair_uniforms(seed: int, day: int, ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """One float in [0, 1) per (i, j) pair, independent of evaluation order."""
    seeded = _mix64(np.uint64(seed & _MASK64) ^ np.uint64(0x9E3779B97F4A7C15))
    base = _mix64(seeded ^ np.uint64(day + 1))
    keys = (ii.astype(np.uint64) << np.uint64(32)) | jj.astype(np.uint64)
    hashed = _mix64(keys ^ base)
    return (hashed >> np.uint64(11)).astype(np.float64) / float(1 << 53)


# =========================================================================
# World construction
# =========================================================================

def build_world(config: SimConfig) -> WorldState:
    n = config.population
    rng = _day_rng(config.seed, _INIT_STREAM, 0)
    positions = rng.uniform(0.0, config.side, size=(n, 2))
    stage = np.full(n, _S, dtype=np.int8)
    infection_day = np.full(n, -1, dtype=np.int32)
    seeds = rng.choice(n, size=config.initial_infected, replace=False)
    stage[seeds] = _I
    infection_day[seeds] = 0

    registry: Registry | None = None
    if config.app_enabled:
        registry = Registry(
            {_STAFF_CREDENTIAL},
            seed=config.seed,
            policy=RegistryPolicy(
                quarantine_days=config.quarantine_days,
                bluetooth_range_m=config.bluetooth_range,
                encounter_duration_s=config.encounter_duration_s,
            ),
            log_events=False,
        )
        # The registry's own key objects, so its lookups hit on identity.
        devices: list[DeviceId] = []
        for i in range(n):
            otc = registry.issue_otc(_STAFF_CREDENTIAL)
            devices.append(registry.register_user(otc.code, f"agent-{i:06d}").device)
    else:
        devices = [hash_identifier(f"agent-{i:06d}") for i in range(n)]

    return WorldState(
        config=config,
        day=0,
        positions=positions,
        stage=stage,
        infection_day=infection_day,
        devices=devices,
        registry=registry,
    )


# =========================================================================
# One day
# =========================================================================

def _isolated(world: WorldState, day: int) -> np.ndarray:
    """Agents in quarantine on `day`, in agent order; nobody without the app.

    build_world registers agent i as the registry's i-th device, so the
    registry's mask, in registration order, is already in agent order.
    """
    if world.registry is None:
        return np.zeros(len(world.devices), dtype=bool)
    return world.registry.quarantine_mask(day)


def _pairs_within(points: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of rows of `points` (n x 2) at most `r` apart: i, j, distance.

    i < j in each pair, and pair order is unspecified.  A pair is kept when
    dx*dx + dy*dy <= r*r, cKDTree.query_pairs's rule and arithmetic for p=2,
    and its distance is hypot(dx, dy).

    Fixed-radius near neighbours on a grid (Bentley, Stanat & Williams,
    IPL 6(6), 1977).  A cell is wider than r by a relative 2**-20, far more
    than the rounding of (x - lo) / cell can take off, so a kept pair's cells
    are at most one apart on either axis.  The points are sorted by cell key
    (column * rows + row); each point's candidates are then two runs of the
    sorted order: the rest of its own cell plus the cell above it, and the
    three cells of the next column.
    """
    lo = points.min(axis=0)
    span = float((points.max(axis=0) - lo).max())
    cell = max(r * (1 + 2**-20), span / _GRID_CELLS, _MIN_CELL)
    col, row = np.floor((points - lo) / cell).astype(np.int64).T
    # One empty row on top, so "the cell above" never wraps into the next column.
    rows = int(row.max()) + 2
    key = col * rows + row
    order = np.argsort(key, kind="stable")
    key = key[order]
    x = points[order, 0]
    y = points[order, 1]
    n = key.size
    # Candidate runs in sorted positions: n own-cell runs, then n next-column runs.
    ends = np.searchsorted(key, np.concatenate([key + 2, key + (rows - 1), key + (rows + 2)]))
    starts = np.concatenate([np.arange(1, n + 1), ends[n:2 * n]])
    counts = np.concatenate([ends[:n], ends[2 * n:]]) - starts
    second = np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
    # A run's first point repeats, which is cheaper than gathering it.
    dx = np.repeat(np.tile(x, 2), counts) - x[second]
    dy = np.repeat(np.tile(y, 2), counts) - y[second]
    kept = np.flatnonzero(dx * dx + dy * dy <= r * r)
    first = order[np.repeat(np.tile(np.arange(n), 2), counts)[kept]]
    second = order[second[kept]]
    return np.minimum(first, second), np.maximum(first, second), np.hypot(dx[kept], dy[kept])


def step(world: WorldState) -> tuple[WorldState, DayStats]:
    """Advance one day: move, meet, transmit, detect, recover."""
    cfg = world.config
    registry = world.registry
    n = cfg.population
    day = world.day
    if registry is not None:
        registry.advance_clock(SimClock(day))
    free = ~_isolated(world, day)

    # Movement: one draw per agent per day regardless of quarantine, so the
    # stream is identical across arms; only free agents actually move.
    proposed = _day_rng(cfg.seed, _MOVE_STREAM, day).uniform(0.0, cfg.side, size=(n, 2))
    world.positions[free] = proposed[free]

    # Proximity: all pairs of free agents within the widest radius needed.
    free_idx = np.flatnonzero(free)
    new_targets = np.empty(0, dtype=np.int64)
    if free_idx.size >= 2:
        radius = cfg.bluetooth_range if registry is not None else cfg.infection_radius
        local_i, local_j, dist = _pairs_within(world.positions[free_idx], radius)
        if dist.size:
            ii = free_idx[local_i]
            jj = free_idx[local_j]

            if registry is not None:
                devices = world.devices
                record = registry.record_encounter
                for start in range(0, dist.size, _ENCOUNTER_CHUNK):
                    chunk = slice(start, start + _ENCOUNTER_CHUNK)
                    for a, b, d in zip(ii[chunk].tolist(), jj[chunk].tolist(), dist[chunk].tolist()):
                        record(devices[a], devices[b], d)

            close = dist <= cfg.infection_radius
            stage_i = world.stage[ii]
            stage_j = world.stage[jj]
            exposed = close & (
                ((stage_i == _I) & (stage_j == _S)) | ((stage_j == _I) & (stage_i == _S))
            )
            if np.any(exposed):
                u = _pair_uniforms(cfg.seed, day, ii, jj)
                hit = exposed & (u < cfg.infection_probability)
                if np.any(hit):
                    targets = np.where(world.stage[ii[hit]] == _S, ii[hit], jj[hit])
                    new_targets = np.unique(targets)

    # Infections land after the whole pair sweep: agents infected today are
    # snapshot-susceptible for every pair, so pair order cannot matter.
    world.stage[new_targets] = _I
    world.infection_day[new_targets] = day

    # Detection: newly symptomatic agents report through the protocol, whose
    # cascade quarantines the reporter and everyone traced.  infection_day is
    # set once per agent, so each agent comes due on exactly one day.  The lag
    # stays out of the int32 arithmetic, since it may exceed that range.
    if registry is not None:
        lag = cfg.symptom_onset_delay + cfg.quarantine_start_delay
        due = np.flatnonzero((world.infection_day >= 0) & (world.infection_day == day - lag))
        for idx in due.tolist():
            otc = registry.issue_otc(_STAFF_CREDENTIAL)
            registry.update_status(otc.code, world.devices[idx], Stage.INFECTED)

    # Recovery at end of day: the infectious window is exactly
    # `infectious_period` full days after the infection day.
    recovered = (world.stage == _I) & (day - world.infection_day >= cfg.infectious_period)
    world.stage[recovered] = _R

    # Read after detection: an agent traced again today has its window
    # replaced by one starting tomorrow, so it is not counted today.
    stats = DayStats(
        day=day,
        new_infections=int(new_targets.size),
        cumulative_infections=int(np.count_nonzero(world.stage != _S)),
        quarantined_count=int(np.count_nonzero(_isolated(world, day))),
        susceptible_count=int(np.count_nonzero(world.stage == _S)),
    )
    world.day = day + 1
    return world, stats


# =========================================================================
# Full runs
# =========================================================================

def run(config: SimConfig) -> list[DayStats]:
    """Step until max_days or until no infectious agent remains."""
    world = build_world(config)
    stats: list[DayStats] = []
    for _ in range(config.max_days):
        world, today = step(world)
        stats.append(today)
        if not np.any(world.stage == _I):
            break
    return stats


@dataclass(frozen=True)
class CompareSummary:
    population: int
    seed: int
    baseline_total: int
    app_total: int
    baseline_attack_rate: float
    app_attack_rate: float
    baseline_peak_day: int
    app_peak_day: int
    ratio: float


@dataclass(frozen=True)
class CompareResult:
    baseline: list[DayStats]
    app: list[DayStats]
    summary: CompareSummary


def _peak_day(series: Sequence[DayStats]) -> int:
    best = max(s.new_infections for s in series)
    for s in series:
        if s.new_infections == best:
            return s.day
    return 0


def compare(config: SimConfig) -> CompareResult:
    """Run the app-off and app-on arms under common random numbers."""
    baseline = run(replace(config, app_enabled=False))
    app = run(replace(config, app_enabled=True))
    base_total = baseline[-1].cumulative_infections
    app_total = app[-1].cumulative_infections
    if base_total > 0:
        ratio = app_total / base_total
    else:
        ratio = 1.0 if app_total == 0 else float("inf")
    summary = CompareSummary(
        population=config.population,
        seed=config.seed,
        baseline_total=base_total,
        app_total=app_total,
        baseline_attack_rate=base_total / config.population,
        app_attack_rate=app_total / config.population,
        baseline_peak_day=_peak_day(baseline),
        app_peak_day=_peak_day(app),
        ratio=ratio,
    )
    return CompareResult(baseline=baseline, app=app, summary=summary)


def _replicas(config: SimConfig, replicates: int) -> list[SimConfig]:
    """`config` on `replicates` consecutive seeds, starting at its own."""
    if replicates < 1:
        raise ValidationError("invalid value for config field 'replicates'")
    if replicates > _MAX_REPLICATES:
        raise ValidationError(f"{replicates} replicates are over the cap of {_MAX_REPLICATES}")
    return [replace(config, seed=config.seed + k) for k in range(replicates)]


def replicate_compare(config: SimConfig, replicates: int, jobs: int = 1) -> list[CompareResult]:
    """compare() over consecutive seeds; output order is by seed offset."""
    return _pool_map(compare, _replicas(config, replicates), jobs)
