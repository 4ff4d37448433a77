"""Epidemic loop: determinism, conservation, coupling between arms."""

import dataclasses
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxtrace.core import Stage
from proxtrace.errors import ValidationError
from proxtrace.sim import (
    _STAFF_CREDENTIAL,
    _pair_uniforms,
    _pairs_within,
    _peak_day,
    CompareResult,
    DayStats,
    SimConfig,
    build_world,
    compare,
    replicate_compare,
    run,
    step,
)

from reference_app import reference_run

SMALL = SimConfig(population=300, seed=2, max_days=25)


def series_totals(series):
    return series[-1].cumulative_infections


# -------------------------------------------------------------------------
# configuration
# -------------------------------------------------------------------------

def test_config_validation_names_the_field():
    bad = {
        "population": 0,
        "initial_infected": -1,
        "infection_probability": 1.5,
        "infection_radius": 0.0,
        "symptom_onset_delay": -1,
        "quarantine_start_delay": -1,
        "quarantine_days": -1,
        "infectious_period": 0,
        "max_days": 0,
        "bluetooth_range": 0.0,
        "encounter_duration_s": -1.0,
        "arena_side": 0.0,
        "seed": -1,
    }
    for field, value in bad.items():
        with pytest.raises(ValidationError, match=field):
            SimConfig(**{field: value})


@pytest.mark.parametrize(
    "field, value",
    [("population", 2**32), ("population", 10**30), ("max_days", 2**31), ("max_days", 10**30)],
)
def test_config_rejects_sizes_past_the_engine_s_representations(field, value):
    # Agent indices are packed into 32 bits for the pair draws, and infection
    # days are int32; only values at or past those caps are tried, since a
    # world just below them would need tens of GB.
    with pytest.raises(ValidationError, match=f"invalid value for config field '{field}'"):
        SimConfig(**{field: value})


@pytest.mark.parametrize(
    "field",
    [
        "population", "initial_infected", "symptom_onset_delay", "quarantine_start_delay",
        "quarantine_days", "infectious_period", "max_days", "seed",
    ],
)
@pytest.mark.parametrize("value", [2.5, 2.0, "2", None])
def test_config_rejects_a_count_or_day_that_is_not_an_integer(field, value):
    # a float population or max_days reached numpy as a bare TypeError, and a
    # float symptom_onset_delay ran with a fractional detection lag
    with pytest.raises(ValidationError, match=f"invalid value for config field '{field}'"):
        SimConfig(**{"population": 3, "max_days": 2, field: value})


def test_config_stores_numpy_integers_as_int():
    config = SimConfig(population=np.int64(3), max_days=np.int32(2), seed=np.uint8(1))
    assert config == SimConfig(population=3, max_days=2, seed=1)
    assert type(config.seed) is int
    assert run(config) == run(SimConfig(population=3, max_days=2, seed=1))


@pytest.mark.parametrize("field", ["bluetooth_range", "encounter_duration_s", "arena_side"])
def test_config_rejects_an_infinite_range_duration_or_arena(field):
    # The registry cannot book an infinite range or duration, and no position
    # can be drawn in an infinite arena; the config refuses all three before
    # any arm runs.
    with pytest.raises(ValidationError, match=field):
        SimConfig(**{field: math.inf})


def test_config_rejects_an_arena_whose_squared_side_overflows():
    # the pair search's squared coordinate differences would overflow on a
    # side this large
    with pytest.raises(ValidationError, match="arena_side"):
        SimConfig(arena_side=1e155)
    assert run(SimConfig(population=4, max_days=2, arena_side=9e153))


@pytest.mark.parametrize(
    "field, value",
    [
        ("bluetooth_range", 10**400),
        ("encounter_duration_s", 10**400),
        ("arena_side", 10**400),
        ("arena_side", 10**200),  # a float can hold it, but not twice its square
    ],
    ids=["bluetooth-range", "encounter-duration", "arena-side", "arena-side-squared"],
)
def test_config_rejects_an_int_no_float_can_hold(field, value):
    # 0 < 10**400 < math.inf holds, so these passed, and run() then ended in
    # an OverflowError (or, for the squared side, overflowed the pair search)
    with pytest.raises(ValidationError, match=f"invalid value for config field '{field}'"):
        SimConfig(**{field: value})


def test_a_detection_lag_past_the_engine_s_int32_days_never_comes_due():
    # infection_day + lag used to overflow the int32 day column
    config = SimConfig(population=40, max_days=6, infection_probability=1.0, seed=2)
    never = run(dataclasses.replace(config, symptom_onset_delay=10**30))
    assert never == run(dataclasses.replace(config, symptom_onset_delay=100))
    assert never != run(config)  # detections do change this run


def test_initial_infected_bounded_by_population():
    with pytest.raises(ValidationError):
        SimConfig(population=5, initial_infected=6)


def test_arena_side_follows_reference_density():
    cfg = SimConfig(population=2000)
    assert cfg.side == pytest.approx(math.sqrt(2000 / 0.2))
    assert SimConfig(population=500, arena_side=30.0).side == 30.0


def test_config_is_frozen():
    cfg = SimConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.population = 10


# -------------------------------------------------------------------------
# determinism and bookkeeping
# -------------------------------------------------------------------------

def test_run_is_deterministic():
    assert run(SMALL) == run(SMALL)


def test_seed_changes_the_run():
    other = dataclasses.replace(SMALL, seed=3)
    assert run(SMALL) != run(other)


def test_population_is_conserved_every_day():
    series = run(SMALL)
    cumulative = SMALL.initial_infected
    for today, stats in enumerate(series):
        assert stats.day == today
        cumulative += stats.new_infections
        assert stats.cumulative_infections == cumulative
        assert stats.susceptible_count + stats.cumulative_infections == SMALL.population
    assert series[-1].cumulative_infections <= SMALL.population


def test_zero_probability_never_spreads():
    cfg = dataclasses.replace(SMALL, infection_probability=0.0, max_days=15)
    for app in (False, True):
        series = run(dataclasses.replace(cfg, app_enabled=app))
        assert all(s.new_infections == 0 for s in series)
        assert series[-1].cumulative_infections == cfg.initial_infected


def test_single_agent_world():
    cfg = SimConfig(population=1, initial_infected=1, max_days=30, app_enabled=True)
    series = run(cfg)
    assert series[-1].cumulative_infections == 1
    assert all(s.new_infections == 0 for s in series)
    # run stops once nobody is infectious, well before max_days
    assert len(series) <= cfg.infectious_period + 2


def test_run_stops_when_no_one_is_infectious():
    series = run(SMALL)
    assert len(series) < SMALL.max_days or series[-1].day == SMALL.max_days - 1


# -------------------------------------------------------------------------
# coupling between arms
# -------------------------------------------------------------------------

def test_zero_quarantine_days_reduces_to_baseline_dynamics():
    # with empty isolation windows the countermeasure arm must reproduce the
    # baseline infection series exactly: same draws, same pairs, same hits
    cfg = SimConfig(population=120, seed=2, max_days=12, quarantine_days=0)
    with_app = run(dataclasses.replace(cfg, app_enabled=True))
    without = run(dataclasses.replace(cfg, app_enabled=False))
    assert with_app == without


def test_app_arm_suppresses_the_outbreak():
    cfg = SimConfig(population=600, seed=0, max_days=40)
    result = compare(cfg)
    assert result.summary.app_total < result.summary.baseline_total
    assert result.summary.ratio < 1.0


def test_compare_summary_is_consistent_with_series():
    result = compare(SMALL)
    assert isinstance(result, CompareResult)
    s = result.summary
    assert s.population == SMALL.population
    assert s.seed == SMALL.seed
    assert s.baseline_total == series_totals(result.baseline)
    assert s.app_total == series_totals(result.app)
    assert s.baseline_attack_rate == pytest.approx(s.baseline_total / s.population)
    assert s.app_attack_rate == pytest.approx(s.app_total / s.population)
    assert s.ratio == pytest.approx(s.app_total / s.baseline_total)

    peaks = [st.new_infections for st in result.baseline]
    assert s.baseline_peak_day == peaks.index(max(peaks))


def test_peak_day_is_the_first_of_tied_maxima():
    series = [DayStats(day, new, 0, 0, 0) for day, new in enumerate([1, 4, 2, 4, 0], start=3)]
    assert _peak_day(series) == 4


def test_replicates_use_consecutive_seeds_and_parallel_agrees():
    cfg = SimConfig(population=150, seed=7, max_days=15)
    serial = replicate_compare(cfg, 3, jobs=1)
    assert [r.summary.seed for r in serial] == [7, 8, 9]
    parallel = replicate_compare(cfg, 3, jobs=2)
    assert serial == parallel


@pytest.mark.parametrize("jobs", [0, -1, -5])
def test_replicate_compare_rejects_a_job_count_below_one(jobs):
    with mock.patch("proxtrace.sim.compare") as compare:
        with pytest.raises(ValidationError, match=f"^jobs must be at least 1, got {jobs}$"):
            replicate_compare(SimConfig(population=20, max_days=2), 2, jobs=jobs)
    compare.assert_not_called()


# -------------------------------------------------------------------------
# world mechanics
# -------------------------------------------------------------------------

def test_detection_starts_quarantine_the_day_after_symptoms():
    cfg = SimConfig(population=80, seed=4, max_days=12, app_enabled=True)
    series = run(cfg)
    # onset delay 2: the seed case reports on day 2, isolation covers day 3 on
    assert series[2].quarantined_count == 0
    assert series[3].quarantined_count >= 1

    delayed = dataclasses.replace(cfg, quarantine_start_delay=1)
    series = run(delayed)
    assert series[3].quarantined_count == 0
    assert series[4].quarantined_count >= 1


def test_quarantined_agents_do_not_move():
    # quarantine goes through the registry: a verified positive report on
    # day 0, before any contact exists, isolates exactly the reporter from
    # day 1 on
    cfg = SimConfig(population=120, seed=5, max_days=20, app_enabled=True)
    world = build_world(cfg)
    registry = world.registry
    assert registry is not None
    for device in world.devices[:60]:
        otc = registry.issue_otc(_STAFF_CREDENTIAL)
        registry.update_status(otc.code, device, Stage.INFECTED)
    world, stats = step(world)
    assert stats.quarantined_count == 0
    frozen_before = world.positions[:60].copy()
    moving_before = world.positions[60:].copy()
    world, stats = step(world)
    assert stats.quarantined_count == 60
    assert np.array_equal(world.positions[:60], frozen_before)
    assert not np.array_equal(world.positions[60:], moving_before)


def test_first_cascade_in_a_dense_world_quarantines_widely():
    # at reference density the two-hop trace reaches most of the arena
    cfg = SimConfig(population=120, seed=5, max_days=20, app_enabled=True)
    series = run(cfg)
    assert max(s.quarantined_count for s in series) > cfg.population // 2


def test_app_arm_contact_records_are_mutual():
    cfg = SimConfig(population=120, seed=5, max_days=20, app_enabled=True)
    world = build_world(cfg)
    for _ in range(2):
        world, _ = step(world)
    registry = world.registry
    assert registry is not None
    checked = 0
    for device in world.devices:
        for rec in registry.contact_list(device).records:
            mirrors = [
                m for m in registry.contact_list(rec.peer).records
                if m.peer == device and m.day == rec.day
            ]
            assert len(mirrors) == 1
            assert mirrors[0].distance == rec.distance
            checked += 1
    assert checked > 0


def test_app_arm_contacts_match_brute_force_pairs():
    # each day the registry holds exactly the pairs of agents that were not
    # isolated at the start of the day and stood within radio range, at the
    # pair's distance and the configured encounter duration
    # a sparse arena and short windows, so isolation is partial and changes
    cfg = SimConfig(
        population=200, initial_infected=5, arena_side=100.0, quarantine_days=2,
        infection_probability=0.9, seed=0, encounter_duration_s=120.0,
    )
    world = build_world(cfg)
    registry = world.registry
    assert registry is not None
    index = {device: i for i, device in enumerate(world.devices)}
    isolated_days = 0
    for day in range(7):
        free = [not registry.devices[d].is_quarantined(day) for d in world.devices]
        isolated_days += not all(free)
        world, _ = step(world)
        pos = world.positions
        expected = set()
        for i in range(cfg.population):
            for j in range(i + 1, cfg.population):
                if free[i] and free[j]:
                    dist = float(np.hypot(pos[i, 0] - pos[j, 0], pos[i, 1] - pos[j, 1]))
                    if dist <= cfg.bluetooth_range:
                        expected |= {(i, j, dist, 120.0), (j, i, dist, 120.0)}
        recorded = {
            (index[device], index[rec.peer], rec.distance, rec.duration)
            for device in world.devices
            for rec in registry.contact_list(device).on_day(day)
        }
        assert recorded == expected
        assert expected
    assert isolated_days >= 3


@st.composite
def app_configs(draw):
    """Small, dense app-arm configurations: most agents meet most days."""
    bluetooth_range = draw(st.floats(1.0, 10.0))
    return SimConfig(
        population=draw(st.integers(2, 40)),
        initial_infected=draw(st.integers(0, 2)),
        arena_side=draw(st.floats(1.0, 25.0)),
        bluetooth_range=bluetooth_range,
        infection_radius=bluetooth_range * draw(st.floats(0.1, 1.0)),
        infection_probability=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
        symptom_onset_delay=draw(st.integers(0, 3)),
        quarantine_start_delay=draw(st.integers(0, 3)),
        quarantine_days=draw(st.integers(0, 3)),
        infectious_period=draw(st.integers(1, 6)),
        seed=draw(st.integers(0, 2**32)),
        max_days=draw(st.integers(1, 12)),
    )


@settings(max_examples=150, deadline=None)
@given(app_configs())
def test_app_arm_matches_the_reference_model(config):
    worlds = []

    def kept_world(cfg):
        worlds.append(build_world(cfg))
        return worlds[-1]

    with mock.patch("proxtrace.sim.build_world", kept_world):
        stats = run(config)
    want_stats, want_windows = reference_run(config)
    assert stats == want_stats
    records = worlds[0].registry.devices
    windows = [records[device].quarantine for device in worlds[0].devices]
    assert [(q.start_day, q.end_day) if q else None for q in windows] == want_windows


def test_build_world_registers_agent_i_as_the_registry_s_ith_device():
    # the isolation mask is read in registration order as agent order
    world = build_world(SimConfig(population=50, seed=3))
    assert world.registry is not None
    assert list(world.registry.devices) == world.devices


def test_baseline_arm_has_no_registry():
    world = build_world(SimConfig(population=50, app_enabled=False))
    assert world.registry is None


def test_day_stats_fields():
    world = build_world(SimConfig(population=50, seed=1))
    world, stats = step(world)
    assert isinstance(stats, DayStats)
    assert stats.day == 0
    assert stats.cumulative_infections >= 1
    assert world.day == 1


# -------------------------------------------------------------------------
# pair search
# -------------------------------------------------------------------------


def brute_pairs(points, r):
    """Every (i, j, distance), i < j, with dx*dx + dy*dy <= r*r, by checking all pairs."""
    i, j = np.triu_indices(len(points), k=1)
    dx = points[i, 0] - points[j, 0]
    dy = points[i, 1] - points[j, 1]
    keep = dx * dx + dy * dy <= r * r
    return sorted(zip(i[keep].tolist(), j[keep].tolist(), np.hypot(dx[keep], dy[keep]).tolist()))


def grid_pairs(points, r):
    i, j, dist = _pairs_within(np.asarray(points, dtype=float), r)
    assert i.dtype.kind == j.dtype.kind == "i"
    assert (i < j).all()
    return sorted(zip(i.tolist(), j.tolist(), dist.tolist()))


@st.composite
def point_sets(draw):
    """Up to 60 points and a radius: spread from a fraction of the radius to
    a thousand radii, with coordinates on a lattice r apart mixed in."""
    r = draw(st.floats(1e-3, 1e3))
    scale = r * draw(st.sampled_from([0.5, 2.0, 10.0, 1e3]))
    coord = st.floats(-scale, scale) | st.integers(-8, 8).map(lambda k: k * r)
    n = draw(st.integers(2, 60))
    points = draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n))
    return np.array(points, dtype=float), r


@settings(max_examples=300, deadline=None)
@given(point_sets())
def test_pairs_within_matches_brute_force(case):
    points, r = case
    assert grid_pairs(points, r) == brute_pairs(points, r)


def test_pairs_within_keeps_lattice_neighbours_exactly_r_apart():
    # a 6 x 6 lattice of spacing r: the 60 edge neighbours sit exactly r apart
    # and are kept; the diagonals, r * sqrt(2) apart, are not
    for r in (0.5, 1.0, 3.0, 10.0):
        points = np.array([(a * r, b * r) for a in range(6) for b in range(6)])
        got = grid_pairs(points, r)
        assert got == brute_pairs(points, r)
        assert len(got) == 60
        assert {d for _, _, d in got} == {r}


def test_pairs_within_pairs_every_duplicate():
    points = [(5.0, 5.0)] * 5 + [(50.0, 50.0), (5.0, 5.0)]
    got = grid_pairs(points, 1.0)
    assert got == brute_pairs(np.array(points), 1.0)
    assert [(i, j) for i, j, _ in got] == [(i, j) for i in (0, 1, 2, 3, 4, 6) for j in (1, 2, 3, 4, 6) if i < j]
    assert {d for _, _, d in got} == {0.0}


def test_pairs_within_with_every_point_in_one_cell():
    # no two points of a square r/2 wide are more than r apart
    points = np.random.default_rng(4).uniform(0.0, 1.0, size=(80, 2))
    got = grid_pairs(points, 2.0)
    assert got == brute_pairs(points, 2.0)
    assert len(got) == 80 * 79 // 2


@pytest.mark.parametrize("r", [141.5, 1e3, 1e300])
def test_pairs_within_a_radius_past_the_span_keeps_every_pair(r):
    points = np.random.default_rng(5).uniform(0.0, 100.0, size=(60, 2))
    got = grid_pairs(points, r)
    assert got == brute_pairs(points, r)
    assert len(got) == 60 * 59 // 2


@pytest.mark.filterwarnings("error")  # a cell index past int64 warns in the cast
def test_pairs_within_an_arena_near_the_size_cap():
    # the span is over 2**20 radii, so cells are span / 2**20 wide: near
    # points at both ends of the arena still pair, and far ones do not
    side = 9e153
    points = np.concatenate([
        np.random.default_rng(6).uniform(0.0, side, size=(50, 2)),
        [(0.0, 0.0), (3.0, 4.0), (side, side), (side, side), (side, 0.0)],
    ])
    got = grid_pairs(points, 10.0)
    assert got == brute_pairs(points, 10.0)
    assert got == [(50, 51, 5.0), (52, 53, 0.0)]


def test_pairs_within_a_radius_whose_square_underflows():
    # r*r and dx*dx both round to 0 below about 1e-162, so the keep rule pairs
    # points much more than r apart there, as a kd-tree does
    points = np.array([(0.0, 0.0), (5e-324, 0.0), (1e-200, 0.0), (1e-170, 1e-170), (1.5e-162, 0.0)])
    for r in (5e-324, 1e-300, 1e-160):
        got = grid_pairs(points, r)
        assert got == brute_pairs(points, r)
        assert len(got) == 10


@pytest.mark.parametrize(
    "n, side, r",
    [(2000, 100.0, 10.0), (2000, 100.0, 2.0), (1000, 1e4, 31.0), (300, 1.0, 0.1), (60, 0.1, 30.0)],
)
def test_pairs_within_finds_the_pairs_a_kd_tree_finds(n, side, r):
    spatial = pytest.importorskip("scipy.spatial")
    points = np.random.default_rng(n).uniform(0.0, side, size=(n, 2))
    i, j, dist = _pairs_within(points, r)
    assert set(zip(i.tolist(), j.tolist())) == spatial.cKDTree(points).query_pairs(r)
    assert len(dist) == len(i)
    deltas = points[i] - points[j]
    assert np.array_equal(dist, np.hypot(deltas[:, 0], deltas[:, 1]))


# -------------------------------------------------------------------------
# keyed randomness
# -------------------------------------------------------------------------

# sha256 of the little-endian float64 draws for PAIR_II x PAIR_JJ
PAIR_II = np.array([0, 1, 5, 1999, 40], dtype=np.int64)
PAIR_JJ = np.array([1, 7, 6, 2000, 1234], dtype=np.int64)
PAIR_UNIFORM_PINS = {
    (0, 0): "154c8ce305469e08194fb271955ca62d5a1cba5c8cf221dd299e186ad1c30bdc",
    (1, 3): "68d008de7a370ab5ad2486b3790356857d8d11aa12c5c9d8c7c4abf781f562c3",
    (12345, 59): "0a380766fd72d32811b874129f986736d48d238070dd67bd4e6aefbcde6a1a1e",
    (2**63, 7): "1787e3978f8028b9350db59c256c4ed9fb5cc6f7108edf0d7f84f1b401552477",
    (2**64 - 1, 1): "b9878422aa0c2a05b1b0c5768a8e66df8ef98ad89cfd53a1fc564139f2ee8b4a",
}


@pytest.mark.parametrize("seed, day", sorted(PAIR_UNIFORM_PINS))
def test_pair_uniforms_match_pin(seed, day):
    u = _pair_uniforms(seed, day, PAIR_II, PAIR_JJ)
    assert ((u >= 0) & (u < 1)).all()
    digest = hashlib.sha256(u.astype("<f8").tobytes()).hexdigest()
    assert digest == PAIR_UNIFORM_PINS[seed, day]
