"""Risk scoring, classification bands, enumeration, curve and surface.

The oracle functions here recompute everything from first principles
(direct formula evaluation, exhaustive vector generation) so the module
under test is checked against an independent route, not against itself.
"""

import itertools
import math
import random
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxtrace import risk
from proxtrace.core import Category
from proxtrace.errors import NoObservationsError, ScoreRangeError, ValidationError
from proxtrace.risk import (
    DEFAULT_WEIGHTS,
    CategoryDistribution,
    RiskClass,
    WeightConfig,
    assess_area,
    classify,
    count_distributions,
    enumerate_distributions,
    risk_curve,
    risk_surface,
    score_from_arrays,
    write_curve_csv,
    write_surface_csv,
)

def oracle_score(categories, distances, weights):
    """Direct formula: sum(w[c] * d) / (w[0] * sum(d)), via fsum."""
    num = math.fsum(weights[c] * d for c, d in zip(categories, distances))
    den = weights[0] * math.fsum(distances)
    return num / den


# -------------------------------------------------------------------------
# scoring: frozen examples
# -------------------------------------------------------------------------

def test_all_top_category_scores_one():
    rnd = random.Random(1)
    dists = [rnd.uniform(0.5, 10.0) for _ in range(20)]
    score = assess_area([0] * 20, dists)
    assert abs(score - 1.0) <= 1e-12


def test_all_bottom_category_scores_weight_ratio():
    rnd = random.Random(2)
    dists = [rnd.uniform(0.5, 10.0) for _ in range(20)]
    score = assess_area([3] * 20, dists)
    assert abs(score - 0.01 / 0.7) <= 1e-12


def test_half_top_half_bottom_equal_distance():
    # 10 top-category and 10 bottom-category observations at one distance:
    # (10*0.7 + 10*0.01) / (20*0.7) = 0.5071428...
    score = assess_area([0] * 10 + [3] * 10, [3.0] * 20)
    assert abs(score - 7.1 / 14.0) <= 1e-12
    assert classify(score) is RiskClass.C


def test_single_observation_second_category():
    score = assess_area([1], [4.0])
    assert abs(score - 0.2 / 0.7) <= 1e-12
    assert classify(score) is RiskClass.B


def test_score_matches_oracle_on_random_inputs():
    rnd = random.Random(3)
    w = DEFAULT_WEIGHTS
    for _ in range(200):
        n = rnd.randrange(1, 30)
        cats = [rnd.randrange(4) for _ in range(n)]
        dists = [rnd.uniform(0.2, 10.0) for _ in range(n)]
        got = assess_area(cats, dists, w)
        want = oracle_score(cats, dists, w.weights)
        assert abs(got - want) <= 1e-12


def test_empty_area_is_an_error():
    with pytest.raises(NoObservationsError):
        assess_area([], [])
    with pytest.raises(NoObservationsError):
        score_from_arrays(np.empty(0, dtype=np.int64), np.empty(0), DEFAULT_WEIGHTS)


def test_observation_validation():
    with pytest.raises(ValidationError):
        assess_area([0], [0.0])  # zero distance rejected, not clamped
    with pytest.raises(ValidationError):
        assess_area([-1], [1.0])
    for distance in (11.0, float("nan")):  # outside the radius
        with pytest.raises(ValidationError, match="radius"):
            assess_area([0], [distance])
    with pytest.raises(ValidationError, match="radius"):
        assess_area([0], [4.0], radius=3.0)
    for radius in (0.0, -1.0, float("nan"), float("inf"), 10**400):
        with pytest.raises(ValidationError, match="radius"):
            assess_area([0], [1.0], radius=radius)
    with pytest.raises(ValidationError):
        assess_area([0, 1], [1.0])  # one category per distance


def test_category_without_weight_rejected():
    with pytest.raises(ValidationError):
        assess_area([5], [1.0], DEFAULT_WEIGHTS)
    with pytest.raises(ValidationError, match="negative"):
        score_from_arrays([-1], [1.0], DEFAULT_WEIGHTS)


def test_weight_config_validation():
    with pytest.raises(ValidationError):
        WeightConfig((0.2, 0.7))  # not descending
    with pytest.raises(ValidationError):
        WeightConfig((0.7, 0.7))  # not strictly descending
    with pytest.raises(ValidationError):
        WeightConfig((0.7, 0.0))  # not positive
    with pytest.raises(ValidationError):
        WeightConfig(())


@pytest.mark.parametrize(
    "weights", [(math.inf, 1.0), (math.inf,), (1e308, math.inf), (10**400, 1.0)]
)
def test_weight_config_rejects_an_infinite_weight(weights):
    # an infinite weight made every score inf/inf: NaN, or silently 0.0
    with pytest.raises(ValidationError, match="finite and strictly positive"):
        WeightConfig(weights)


@pytest.mark.parametrize(
    "score",
    [
        lambda: assess_area([0, 1], [1e308, 1e308], radius=1e308),  # sum of distances
        lambda: assess_area([1], [10.0], WeightConfig((1e308, 1e300))),  # weight x distance
        lambda: score_from_arrays([0], [0.4], WeightConfig((5e-324,))),  # 0/0
        lambda: risk_curve(2, 4, radius=1e308, repeats=3),
        lambda: risk_surface(2, WeightConfig((1e308, 1.0)), radius=1e300, repeats=3),
    ],
    ids=["distance-sum", "weighted-distance", "zero-over-zero", "curve", "surface"],
)
def test_a_score_outside_the_float_range_is_rejected(score):
    # without the check these gave NaN, or a finite score clipped from a 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="risk score leaves the float range"):
            score()


# -------------------------------------------------------------------------
# scoring: properties
# -------------------------------------------------------------------------

obs_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.floats(min_value=0.5, max_value=10.0)),
    min_size=1,
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(obs_lists)
def test_score_range_property(pairs):
    cats = [c for c, _ in pairs]
    dists = [d for _, d in pairs]
    value = assess_area(cats, dists)
    lo = DEFAULT_WEIGHTS.weights[-1] / DEFAULT_WEIGHTS.top
    assert lo - 1e-12 <= value <= 1.0 + 1e-12


@settings(max_examples=80, deadline=None)
@given(obs_lists, st.floats(min_value=0.01, max_value=0.9))
def test_score_scale_invariance(pairs, factor):
    # multiplying every distance by a constant leaves the score unchanged
    cats = [c for c, _ in pairs]
    dists = [d for _, d in pairs]
    base = assess_area(cats, dists)
    scaled = assess_area(cats, [d * factor for d in dists])
    assert abs(base - scaled) <= 1e-9


@settings(max_examples=80, deadline=None)
@given(obs_lists, st.data())
def test_moving_one_observation_up_strictly_increases(pairs, data):
    cats = [c for c, _ in pairs]
    dists = [d for _, d in pairs]
    movable = [i for i, c in enumerate(cats) if c > 0]
    if not movable:
        return
    i = data.draw(st.sampled_from(movable))
    before = assess_area(cats, dists)
    cats[i] -= 1  # strictly higher-weight category
    after = assess_area(cats, dists)
    assert after > before


@settings(max_examples=80, deadline=None)
@given(obs_lists)
def test_score_one_iff_all_top(pairs):
    cats = [c for c, _ in pairs]
    dists = [d for _, d in pairs]
    value = assess_area(cats, dists)
    if all(c == 0 for c in cats):
        assert abs(value - 1.0) <= 1e-12
    else:
        assert value < 1.0 - 1e-12


# -------------------------------------------------------------------------
# classification
# -------------------------------------------------------------------------

def test_boundary_suite():
    expected = {
        0.0: RiskClass.A,
        0.2: RiskClass.A,
        0.2 + 1e-9: RiskClass.B,
        0.4: RiskClass.B,
        0.6: RiskClass.C,
        0.8: RiskClass.D,
        1.0: RiskClass.E,
    }
    for value, cls in expected.items():
        assert classify(value) is cls, value


def test_out_of_range_scores_rejected():
    for bad in (-1e-9, 1.0 + 1e-9, float("nan"), 2.0, -5.0):
        with pytest.raises(ScoreRangeError):
            classify(bad)


@pytest.mark.parametrize("score", ["0.5", None, b"0.5", [0.5]])
def test_a_score_that_is_not_a_real_number_is_rejected(score):
    with pytest.raises(ValidationError, match="not a real number"):
        classify(score)


def test_numpy_scores_and_integer_arrays_still_classify():
    assert classify(np.float64(0.5)) is classify(np.float32(0.5)) is RiskClass.C
    assert classify(np.int64(1)) is RiskClass.E
    cats, dists = np.array([0, 3], dtype=np.int8), np.array([2, 4], dtype=np.int64)
    assert assess_area(cats, dists) == assess_area([0, 3], [2.0, 4.0])


@pytest.mark.parametrize(
    "categories, distances, match",
    [
        (["A"], [1.0], "category indices must be integers"),
        ([0.5], [1.0], "category indices must be integers"),
        ([True], [1.0], "category indices must be integers"),
        ([None], [1.0], "category indices must be integers"),
        ([0], ["1.0"], "distances must be real numbers"),
        ([0], [None], "distances must be real numbers"),
    ],
)
def test_observations_of_the_wrong_type_are_rejected(categories, distances, match):
    with pytest.raises(ValidationError, match=match):
        assess_area(categories, distances)


def test_labels():
    assert RiskClass.A.value == "Very Low"
    assert RiskClass.E.value == "Very High"


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_every_unit_value_classifies(value):
    cls = classify(value)
    assert cls in RiskClass


# -------------------------------------------------------------------------
# enumeration
# -------------------------------------------------------------------------

def oracle_vectors(n, k):
    """Independent generation: product space filtered by sum, sorted descending."""
    all_vecs = [v for v in itertools.product(range(n + 1), repeat=k) if sum(v) <= n]
    return sorted(all_vecs, reverse=True)


def test_enumeration_order_n2_k2():
    got = [d.cardinalities for d in enumerate_distributions(2, 2)]
    assert got == [(2, 0), (1, 1), (1, 0), (0, 2), (0, 1), (0, 0)]


def test_enumeration_first_and_last():
    dists = list(enumerate_distributions(5, 4))
    assert dists[0].cardinalities == (5, 0, 0, 0)
    assert dists[-1].cardinalities == (0, 0, 0, 0)


def test_enumeration_matches_oracle_smallish():
    for n in range(0, 7):
        for k in range(1, 5):
            got = [d.cardinalities for d in enumerate_distributions(n, k)]
            assert got == oracle_vectors(n, k), (n, k)
            assert count_distributions(n, k) == len(got)


def test_count_formula():
    assert count_distributions(20, 4) == math.comb(24, 4) == 10626
    assert count_distributions(0, 3) == 1


def test_enumeration_rejects_bad_args():
    with pytest.raises(ValidationError):
        count_distributions(-1, 2)
    with pytest.raises(ValidationError):
        list(enumerate_distributions(2, 0))
    with pytest.raises(ValidationError):
        CategoryDistribution((1, -1))
    with pytest.raises(ValidationError, match="n must be an integer"):
        count_distributions(2.5, 2)
    with pytest.raises(ValidationError, match="k must be an integer"):
        list(enumerate_distributions(2, 2.5))


# -------------------------------------------------------------------------
# curve
# -------------------------------------------------------------------------

def test_curve_endpoints_small():
    points = risk_curve(5, 4, seed=11)
    assert len(points) == count_distributions(5, 4)
    assert abs(points[0].mean_score - 1.0) <= 1e-9
    # last non-empty enumeration entry is a single bottom-category individual
    assert points[-2].cardinalities == (0, 0, 0, 1)
    assert abs(points[-2].mean_score - 0.01 / 0.7) <= 1e-6
    assert points[-1].cardinalities == (0, 0, 0, 0)
    assert points[-1].mean_score == 0.0


def test_curve_is_seed_deterministic():
    a = risk_curve(4, 4, seed=3, repeats=10)
    b = risk_curve(4, 4, seed=3, repeats=10)
    c = risk_curve(4, 4, seed=4, repeats=10)
    assert a == b
    assert a != c


def test_curve_parallel_matches_serial():
    serial = risk_curve(6, 4, seed=5, repeats=8, jobs=1)
    parallel = risk_curve(6, 4, seed=5, repeats=8, jobs=3)
    assert serial == parallel


def test_curve_single_category_rows_are_exact_ratios():
    # distance draws cancel for single-category rows, placement-independent
    points = risk_curve(3, 4, seed=9, repeats=5)
    by_counts = {p.cardinalities: p.mean_score for p in points}
    for k, weight in enumerate(DEFAULT_WEIGHTS.weights):
        counts = tuple(3 if i == k else 0 for i in range(4))
        assert abs(by_counts[counts] - weight / 0.7) <= 1e-12


def test_curve_requires_matching_weights():
    with pytest.raises(ValidationError):
        risk_curve(3, 3, DEFAULT_WEIGHTS)  # 4 weights, k=3


@pytest.mark.parametrize(
    "bad",
    [
        {"placement": "bogus"},
        {"seed": -1},
        {"repeats": 0},
        {"radius": 10**400},
        {"seed": 1.5},
        {"seed": np.float64(3)},
        {"seed": "3"},
        {"repeats": 2.5},
        {"n": 2.5, "n_max": 2.5},
        # these three were a bare TypeError or, for 2.5 jobs, accepted
        {"radius": "5"},
        {"jobs": "2"},
        {"jobs": 2.5},
        # these three ran in one process
        {"jobs": 0},
        {"jobs": -1},
        {"jobs": -5},
    ],
)
def test_generators_check_placement_arguments_before_scoring(bad):
    # n = 0 has only the empty cell, which scores 0 without any placement;
    # "n" is risk_curve's argument and "n_max" risk_surface's
    others = {name: value for name, value in bad.items() if name not in ("n", "n_max")}
    for sweep in (
        lambda: risk_curve(bad.get("n", 0), 4, **others),
        lambda: risk_surface(bad.get("n_max", 0), **others),
    ):
        with pytest.raises(ValidationError) as error:
            sweep()
        assert any(name in str(error.value) for name in bad), error.value


def test_generators_accept_bools_and_numpy_integers():
    curve = risk_curve(np.int64(3), 4, seed=np.uint64(3), repeats=np.int32(5), jobs=np.int64(2))
    assert curve == risk_curve(3, 4, seed=3, repeats=5)
    surface = risk_surface(np.int8(4), seed=True, repeats=True, jobs=True)
    assert surface == risk_surface(4, seed=1, repeats=1)


@pytest.mark.parametrize(
    "sweep",
    [
        lambda: risk_curve(risk._MAX_SWEEP_CELLS, 1, WeightConfig((1.0,))),
        lambda: risk_curve(10**30, 4),
        lambda: risk_surface(10**30),
        lambda: risk_curve(1, 1, WeightConfig((1.0,)), repeats=10**15),
        lambda: risk_surface(2, repeats=risk._MAX_CELL_DRAWS // 2 + 1),
    ],
    ids=["curve-cells", "curve-huge-n", "surface-huge-n-max", "curve-draws", "surface-draws"],
)
def test_sweeps_past_the_size_caps_are_rejected_before_enumerating(sweep):
    # these allocated petabytes, overflowed numpy's dimension limit or
    # enumerated without end
    with pytest.raises(ValidationError, match="over the cap of"):
        sweep()


def reference_mean_scores(weights, radius, placement, repeats, seed, cells):
    """The per-cell loop the batched kernel replaced: each cell scored alone."""
    w = np.asarray(weights.weights, dtype=float)
    means = []
    with risk._in_float_range():
        for key, counts in cells:
            total = sum(counts)
            if total == 0:
                means.append(0.0)
                continue
            if placement == "equal":
                d = np.full((repeats, total), radius / 2.0)
            else:
                rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
                d = rng.uniform(risk.MIN_PLACEMENT_DISTANCE_M, radius, size=(repeats, total))
            means.append(float(risk._score(np.repeat(w, counts), d, weights).mean()))
    return means


weight_configs = st.lists(
    st.floats(min_value=1e-3, max_value=1e3), min_size=1, max_size=6, unique=True
).map(lambda ws: WeightConfig(tuple(sorted(ws, reverse=True))))


@st.composite
def sweeps(draw):
    """Random scoring arguments and a cell list that mixes totals, repeats a
    total, holds empty cells and one cell too large for a batch."""
    weights = draw(weight_configs)
    k = len(weights)
    repeats = draw(st.integers(1, 40))
    counts = st.lists(st.integers(0, 4), min_size=k, max_size=k).map(tuple)
    cells = draw(st.lists(counts, min_size=1, max_size=30))
    cells += [cells[0], (0,) * k]
    big = risk._BATCH_DRAWS // repeats + 1
    low = draw(st.integers(0, big if k > 1 else 0))
    cells.insert(draw(st.integers(0, len(cells))), (big - low, *(0,) * (k - 2), low)[:k])
    key = st.tuples(*[st.integers(0, 2**32 - 1)] * draw(st.integers(1, 2)))
    keys = draw(st.lists(key, min_size=len(cells), max_size=len(cells)))
    radius = draw(st.floats(min_value=risk.MIN_PLACEMENT_DISTANCE_M, max_value=1e3))
    placement = draw(st.sampled_from(["uniform", "equal"]))
    seed = draw(st.integers(0, 2**200))
    return weights, radius, placement, repeats, seed, list(zip(keys, cells))


@settings(max_examples=60, deadline=None)
@given(sweeps())
def test_batched_means_equal_the_per_cell_loop(sweep):
    weights, radius, placement, repeats, seed, cells = sweep
    batched = risk._mean_scores(weights, radius, placement, repeats, seed, 1, cells)
    assert batched == reference_mean_scores(weights, radius, placement, repeats, seed, cells)


# A sweep's key elements are a curve index or a surface cell's counts, all
# at most _MAX_SWEEP_CELLS and so one 32-bit word each, the only key shape
# _seed_states takes.
@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**64, 2**128 + 1]) | st.integers(0, 2**200),
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=2).map(tuple),
)
def test_seed_states_give_the_seed_sequence_stream(seed, key):
    states = risk._seed_states(seed, np.array([key], dtype=np.uint32))
    expected = np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(4, np.uint64)
    assert states.tolist() == [expected.tolist()]
    bit_generator = np.random.PCG64(0)
    bit_generator.state = risk._pcg64_state(*states[0].tolist())
    drawn = np.random.Generator(bit_generator).uniform(0.5, 10.0, size=(3, 5))
    reference = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))
    assert drawn.tobytes() == reference.uniform(0.5, 10.0, size=(3, 5)).tobytes()


def test_batched_and_per_cell_scoring_both_reject_an_overflow():
    args = (WeightConfig((1e308, 1.0)), 1e300, "uniform", 3, 0)
    cells = [((1,), (1, 0)), ((2,), (2, 1)), ((3,), (0, 0)), ((4,), (1, 2))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for score in (partial(risk._mean_scores, *args, 1), partial(reference_mean_scores, *args)):
            with pytest.raises(ValidationError, match="risk score leaves the float range"):
                score(cells)


def test_downward_mass_shifts_never_increase_score_at_equal_distance():
    # Walk random chains that move one individual to a lower category per
    # step; at equal distances the score must be weakly decreasing.
    rnd = random.Random(13)
    w = DEFAULT_WEIGHTS
    for _ in range(50):
        counts = [rnd.randrange(6) for _ in range(4)]
        if sum(counts) == 0:
            counts[0] = 1
        prev = oracle_score(
            [c for c, n in enumerate(counts) for _ in range(n)], [2.0] * sum(counts), w.weights
        )
        for _ in range(10):
            froms = [i for i in range(3) if counts[i] > 0]
            if not froms:
                break
            i = rnd.choice(froms)
            counts[i] -= 1
            counts[i + 1] += 1
            cats = [c for c, n in enumerate(counts) for _ in range(n)]
            cur = oracle_score(cats, [2.0] * len(cats), w.weights)
            assert cur <= prev + 1e-12
            prev = cur


# -------------------------------------------------------------------------
# surface
# -------------------------------------------------------------------------

def test_surface_corner_cells():
    cells = {(c.n_a, c.n_b): c.mean_score for c in risk_surface(6, seed=2)}
    assert len(cells) == count_distributions(6, 2)
    assert abs(cells[(6, 0)] - 1.0) <= 1e-9
    for n_b in range(1, 7):
        assert abs(cells[(0, n_b)] - 0.2 / 0.7) <= 1e-9
    assert cells[(0, 0)] == 0.0


def test_surface_monotone_in_top_category_at_fixed_total():
    cells = {(c.n_a, c.n_b): c.mean_score for c in risk_surface(8, seed=2, placement="equal")}
    for total in range(1, 9):
        scores = [cells[(a, total - a)] for a in range(total + 1)]
        assert all(lo <= hi + 1e-12 for lo, hi in zip(scores, scores[1:]))


def test_surface_parallel_matches_serial():
    # n_max=10 gives 66 cells, enough to reach the process pool
    serial = risk_surface(10, seed=6, repeats=6, jobs=1)
    parallel = risk_surface(10, seed=6, repeats=6, jobs=2)
    assert serial == parallel


# -------------------------------------------------------------------------
# CSV writers
# -------------------------------------------------------------------------

def test_curve_csv_layout(tmp_path):
    points = risk_curve(3, 4, seed=1, repeats=3)
    path = tmp_path / "curve.csv"
    write_curve_csv(points, path, 4)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,n_1,n_2,n_3,n_4,mean_score,risk_class"
    assert len(lines) == 1 + len(points)
    assert lines[1].startswith("1,3,0,0,0,")
    assert lines[1].endswith(",E")


def test_surface_csv_layout(tmp_path):
    cells = risk_surface(3, seed=1, repeats=3)
    path = tmp_path / "surface.csv"
    write_surface_csv(cells, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n_a,n_b,mean_score,risk_class"
    assert len(lines) == 1 + len(cells)


def test_category_letters_map_to_indices():
    assert int(Category.from_letter("a")) == 0
    assert int(Category.from_letter("D")) == 3
    with pytest.raises(ValidationError):
        Category.from_letter("Z")
