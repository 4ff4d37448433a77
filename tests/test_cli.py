"""Command line behaviour: outputs, exit codes, manifests, determinism."""

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proxtrace import core, risk, sim
from proxtrace.cli import _build_parser, _load_sim_config, main
from proxtrace.core import (
    ContactRecord,
    DeviceId,
    SimClock,
    Stage,
    read_contact_graph,
    write_contact_graph,
)
from proxtrace.errors import ProxTraceError, ValidationError
from proxtrace.protocol import EVENT_LOG_HEADER, Registry, read_event_log, write_event_log
from proxtrace.risk import DEFAULT_WEIGHTS, assess_area
from proxtrace.sim import SimConfig
from proxtrace.tracing import trace_co_contacts

from conftest import bad_graph_cases, contacts, device, write_graph_csv


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


# -------------------------------------------------------------------------
# risk
# -------------------------------------------------------------------------

def test_risk_scores_a_file(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    obs.write_text("category,distance\nB,4.0\n")
    assert main(["risk", "--observations", str(obs)]) == 0
    assert capsys.readouterr().out.strip() == "0.285714 B"


def test_risk_accepts_letters_and_indices(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    obs.write_text("a,2.0\n0,3.0\nA,4.0\n")
    assert main(["risk", "--observations", str(obs)]) == 0
    assert capsys.readouterr().out.strip() == "1.000000 E"


def test_risk_empty_input_is_no_data(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    obs.write_text("category,distance\n")
    assert main(["risk", "--observations", str(obs)]) == 2
    assert "no observations" in capsys.readouterr().err


def test_risk_malformed_row_names_the_line(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    obs.write_text("A,2.0\nB,not-a-number\n")
    assert main(["risk", "--observations", str(obs)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line 2" in err


@pytest.mark.parametrize(
    "row, categories, distances",
    [("A,0", [0], [0.0]), ("A,nan", [0], [math.nan]), ("9,1.0", [9], [1.0])],
    ids=["zero-distance", "nan-distance", "category-without-weight"],
)
def test_risk_range_errors_are_assess_area_s(tmp_path, capsys, row, categories, distances):
    # the CLI parses rows; what the values may be is assess_area's rule alone
    with pytest.raises(ValidationError) as expected:
        assess_area(categories, distances, DEFAULT_WEIGHTS)
    obs = tmp_path / "obs.csv"
    obs.write_text(row + "\n")
    assert main(["risk", "--observations", str(obs)]) == 1
    assert capsys.readouterr().err == f"error: {expected.value}\n"


def test_risk_custom_weights(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    obs.write_text("B,5.0\n")
    assert main(["risk", "--observations", str(obs), "--weights", "0.5,0.25"]) == 0
    assert capsys.readouterr().out.strip() == "0.500000 C"


def test_risk_distance_beyond_radius_fails(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    obs.write_text("A,9.0\n")
    assert main(["risk", "--observations", str(obs), "--radius", "5"]) == 1
    assert "radius" in capsys.readouterr().err


# -------------------------------------------------------------------------
# curve and surface
# -------------------------------------------------------------------------

def test_curve_csv_and_manifest(tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(["curve", "--n", "4", "--k", "4", "--repeats", "5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "index,n_1,n_2,n_3,n_4,mean_score,risk_class"
    assert len(lines) == 1 + math.comb(8, 4)

    manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
    assert manifest["command"] == "curve"
    assert manifest["seed"] == 0
    assert manifest["outputs"][0]["sha256"] == sha256(out)


def test_curve_bytes_are_reproducible_and_job_independent(tmp_path):
    args = ["curve", "--n", "5", "--k", "3", "--weights", "0.7,0.2,0.1",
            "--repeats", "6", "--seed", "9"]
    outs = [tmp_path / f"c{i}.csv" for i in range(3)]
    main(args + ["--out", str(outs[0])])
    main(args + ["--out", str(outs[1])])
    main(args + ["--jobs", "3", "--out", str(outs[2])])
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_unusable_placement_radius_fails(tmp_path, capsys):
    # below the minimum placement distance, NaN, negative, infinite
    cases = [
        ["curve", "--n", "3", "--radius", "0.3"],
        ["curve", "--n", "3", "--radius", "nan"],
        ["curve", "--n", "3", "--radius", "-3", "--placement", "equal"],
        ["surface", "--n-max", "3", "--radius", "inf"],
    ]
    for n, args in enumerate(cases):
        out = tmp_path / f"out-{n}.csv"
        assert main(args + ["--out", str(out)]) == 1, args
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: radius must be finite"), args
        assert not out.exists()


def test_surface_csv(tmp_path):
    out = tmp_path / "surface.csv"
    assert main(["surface", "--n-max", "5", "--repeats", "4", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n_a,n_b,mean_score,risk_class"
    assert len(lines) == 1 + math.comb(7, 2)


@pytest.mark.parametrize(
    "args, message",
    [
        (["surface", "--n-max", "2", "--repeats", "0"], "placement repeats must be at least 1"),
        (["curve", "--n", "3", "--seed", "-1"], "seed must be non-negative, got -1"),
        (["surface", "--n-max", "3", "--seed", "-1"], "seed must be non-negative, got -1"),
    ],
    ids=["surface-zero-repeats", "curve-negative-seed", "surface-negative-seed"],
)
def test_bad_placement_arguments_fail_before_scoring(tmp_path, capsys, args, message):
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert not out.exists()


WEIGHTS_MESSAGE = "category weights must be finite and strictly positive"
FLOAT_RANGE_MESSAGE = "risk score leaves the float range"


@pytest.mark.parametrize(
    "args, observations, message",
    [
        (["risk", "--weights", "inf,1"], "A,1.0\n", WEIGHTS_MESSAGE),
        (["curve", "--n", "2", "--k", "2", "--weights", "inf,1"], None, WEIGHTS_MESSAGE),
        (["surface", "--n-max", "2", "--weights", "inf,1"], None, WEIGHTS_MESSAGE),
        (["risk", "--radius", "1e308"], "A,1e308\nB,1e308\n", FLOAT_RANGE_MESSAGE),
        (["curve", "--n", "3", "--radius", "1e308"], None, FLOAT_RANGE_MESSAGE),
        (["surface", "--n-max", "2", "--weights", "1e308,1", "--radius", "1e300"], None,
         FLOAT_RANGE_MESSAGE),
    ],
    ids=["risk-inf-weight", "curve-inf-weight", "surface-inf-weight",
         "risk-overflow", "curve-overflow", "surface-overflow"],
)
def test_a_score_the_floats_cannot_hold_is_one_error_line(
    tmp_path, capsys, args, observations, message
):
    # these printed numpy warnings, then a misleading "risk score nan" error,
    # and left a header-only output file behind
    argv = list(args)
    if observations is None:
        out = tmp_path / "out.csv"
        argv += ["--out", str(out)]
    else:
        out = tmp_path / "obs.csv"
        out.write_text(observations)
        argv += ["--observations", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {message}")
    assert captured.out == ""
    inputs = [] if observations is None else ["obs.csv"]
    assert sorted(p.name for p in tmp_path.iterdir()) == inputs  # no output file


# -------------------------------------------------------------------------
# trace
# -------------------------------------------------------------------------

def trace_fixture(tmp_path):
    a, b, c, x = (device(t) for t in "abcx")
    graph = {
        a: contacts(a, (b, 3, 1.0), (c, 3, 2.0)),
        b: contacts(b, (x, 5, 1.5)),
        c: contacts(c, (a, 5, 1.0)),
    }
    path = tmp_path / "graph.csv"
    write_contact_graph(graph, path)
    return graph, path, a


def test_trace_prints_co_contacts(tmp_path, capsys):
    graph, path, a = trace_fixture(tmp_path)
    assert main(["trace", "--graph", str(path), "--case", a.hex, "--day", "5"]) == 0
    got = capsys.readouterr().out.split()
    want = [d.hex for d in trace_co_contacts(a, graph, SimClock(5))]
    assert got == want
    assert len(got) == 3  # x via b, then b, then c


def test_trace_out_file_and_manifest(tmp_path):
    graph, path, a = trace_fixture(tmp_path)
    out = tmp_path / "traced.txt"
    args = ["trace", "--graph", str(path), "--case", a.hex, "--day", "5", "--out", str(out)]
    assert main(args) == 0
    assert len(out.read_text().splitlines()) == 3
    manifest = json.loads((tmp_path / "traced.txt.manifest.json").read_text())
    assert manifest["seed"] is None  # tracing draws nothing
    assert main(args + ["--seed", "4"]) == 1


def test_trace_unknown_case_fails(tmp_path, capsys):
    _, path, _ = trace_fixture(tmp_path)
    ghost = device("ghost")
    assert main(["trace", "--graph", str(path), "--case", ghost.hex, "--day", "5"]) == 1
    assert "error:" in capsys.readouterr().err


def test_trace_missing_graph_file(tmp_path, capsys):
    assert main(["trace", "--graph", str(tmp_path / "nope.csv"), "--case", "00" * 16, "--day", "1"]) == 1


def run_trace(path, case_hex, day):
    """`proxtrace trace` in this process: (exit code, stdout lines, stderr lines)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["trace", "--graph", str(path), "--case", case_hex, "--day", str(day)])
    return rc, out.getvalue().splitlines(), err.getvalue().splitlines()


def full_read_trace(path, case_hex, day):
    """The reference: read the whole graph, then check --case, then --day, then trace."""
    try:
        graph = read_contact_graph(path)
        traced = trace_co_contacts(DeviceId.from_hex(case_hex), graph, SimClock(day))
    except ProxTraceError as exc:
        return 1, [], [f"error: {exc}"]
    return 0, [d.hex for d in traced], []


# rows are (owner, peer, day, distance, duration, upper-case owner, upper-case
# peer) over four devices, of which only the first three can own a row
trace_rows = st.lists(
    st.tuples(
        st.integers(0, 2),
        st.integers(0, 3),
        st.integers(0, 4),
        st.floats(0.01, 10.0),
        st.floats(0.0, 600.0),
        st.booleans(),
        st.booleans(),
    ),
    max_size=30,
)


@settings(max_examples=60, deadline=None)
@given(trace_rows, st.randoms(use_true_random=False), st.booleans())
def test_trace_matches_the_full_read_oracle(tmp_path_factory, rows, rnd, upper_case):
    pool = [device(f"trace-{i}") for i in range(4)]
    rows = rows + rows[: len(rows) // 2]  # exact duplicate rows as well
    rnd.shuffle(rows)

    def text(i, upper):
        return pool[i].hex.upper() if upper else pool[i].hex

    path = tmp_path_factory.mktemp("graph") / "graph.csv"
    write_graph_csv(path, [
        f"{text(owner, up_owner)},{text(peer, up_peer)},{d},{distance!r},{duration!r}"
        for owner, peer, d, distance, duration, up_owner, up_peer in rows
    ])
    # every index case, the last one owning no row, on days around every row's
    for case, day in itertools.product(range(4), range(-1, 6)):
        case_hex = text(case, upper_case)
        assert run_trace(path, case_hex, day) == full_read_trace(path, case_hex, day)


def test_trace_expands_a_self_row_through_the_case_s_own_rows_today(tmp_path):
    # a met itself on the lookback day, so a's own contacts today enter its trace
    a, b, x = device("a"), device("b"), device("x")
    path = tmp_path / "graph.csv"
    write_graph_csv(path, [
        f"{a.hex},{a.hex},3,1.0,60.0",
        f"{a.hex},{x.hex},5,1.0,60.0",
        f"{b.hex},{a.hex},5,2.0,5.0",
    ])
    assert run_trace(path, a.hex, 5) == full_read_trace(path, a.hex, 5) == (0, [x.hex], [])


def test_trace_reports_the_first_bad_graph_line(tmp_path):
    for n, (rows, bad_line) in enumerate(bad_graph_cases()):
        path = tmp_path / f"graph-{n}.csv"
        write_graph_csv(path, rows)
        rc, out, err = run_trace(path, device("a").hex, 4)
        assert (rc, out, len(err)) == (1, [], 1), n
        assert err[0].startswith(f"error: line {bad_line}: malformed contact row ("), n
        assert (rc, out, err) == full_read_trace(path, device("a").hex, 4), n


@pytest.mark.parametrize("columns", [6, 4, 1], ids=["extra", "short", "one"])
def test_a_graph_row_of_other_than_five_columns_is_malformed(tmp_path, columns):
    # a sixth field was dropped without a word by both readers
    good = f"{device('a').hex},{device('b').hex},2,1.5,60.0"
    fields = (good + ",EXTRA").split(",")
    path = tmp_path / "graph.csv"
    write_graph_csv(path, [good, ",".join(fields[:columns])])
    error = f"line 3: malformed contact row ({columns} columns, not 5)"
    with pytest.raises(ValidationError) as raised:
        read_contact_graph(path)
    assert str(raised.value) == error
    assert run_trace(path, device("a").hex, 4) == (1, [], [f"error: {error}"])


def test_trace_reports_a_bad_graph_ahead_of_a_bad_case_or_day(tmp_path):
    rows, bad_line = bad_graph_cases()[-1]
    bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
    write_graph_csv(bad, rows)
    write_graph_csv(good, rows[:-1])
    a = device("a").hex
    graph_error = f"error: line {bad_line}: malformed contact row (invalid literal for int() with base 10: 'x')"
    for case_hex, day, error in (
        ("zz", 4, "error: not a hex digest: 'zz'"),
        (a[:30], 4, "error: device digest must be exactly 16 bytes"),
        (a, -1, "error: day counter cannot be negative"),
        ("zz", -1, "error: not a hex digest: 'zz'"),
    ):
        assert run_trace(bad, case_hex, day) == full_read_trace(bad, case_hex, day) == (1, [], [graph_error])
        assert run_trace(good, case_hex, day) == full_read_trace(good, case_hex, day) == (1, [], [error])


def test_trace_builds_records_only_for_the_two_hop_rows(tmp_path, monkeypatch):
    rnd = random.Random(5)
    reg = Registry(["clinic"], seed=5)
    people = [reg.register_user(reg.issue_otc("clinic").code, f"hop-{i}").device for i in range(60)]
    for day in range(6):
        reg.advance_clock(SimClock(day))
        for _ in range(120):
            left, right = rnd.sample(people, 2)
            reg.record_encounter(left, right, rnd.uniform(0.5, 9.5))
    path = tmp_path / "graph.csv"
    write_contact_graph(reg.contact_graph, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    case = people[0]
    rows_today = sum(1 for row in rows if row[2] == "5")
    case_rows_on_lookback_day = sum(1 for row in rows if row[0] == case.hex and row[2] == "3")
    assert rows_today and case_rows_on_lookback_day and len(rows) > 3 * rows_today

    built = []
    check = ContactRecord.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(ContactRecord, "__post_init__", counted)
    rc, out, _ = run_trace(path, case.hex, 5)
    monkeypatch.undo()
    assert (rc, out) == (0, [d.hex for d in trace_co_contacts(case, reg.contact_graph, SimClock(5))])
    assert 0 < len(built) <= rows_today + case_rows_on_lookback_day


# -------------------------------------------------------------------------
# simulate
# -------------------------------------------------------------------------

SIM_ARGS = ["simulate", "--population", "60", "--days", "8", "--seed", "3"]


def test_simulate_csv_and_summary(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert main(SIM_ARGS + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "day,new_infections,cumulative,quarantined,susceptible,arm"
    arms = {line.split(",")[-1] for line in lines[1:]}
    assert arms == {"baseline", "app"}
    summary = capsys.readouterr().out
    assert summary.startswith("seed 3: baseline ")
    assert "ratio" in summary

    manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 3
    assert manifest["outputs"][0]["sha256"] == sha256(out)


def test_simulate_bytes_reproducible_and_job_independent(tmp_path):
    outs = [tmp_path / f"s{i}.csv" for i in range(3)]
    base = SIM_ARGS + ["--replicates", "2"]
    main(base + ["--out", str(outs[0])])
    main(base + ["--out", str(outs[1])])
    main(base + ["--jobs", "2", "--out", str(outs[2])])
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    header = outs[0].read_text().splitlines()[0]
    assert header.endswith(",seed")  # replicated runs tag every row


@pytest.mark.parametrize("arm", ["baseline", "app", "both"])
def test_simulate_rejects_negative_seed_and_zero_replicates(tmp_path, capsys, arm):
    out = tmp_path / "sim.csv"
    for flag, value in (("--seed", "-1"), ("--replicates", "0")):
        argv = SIM_ARGS + ["--arm", arm, flag, value, "--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: invalid value for config field '{flag[2:]}'"]
        assert not out.exists()


@pytest.mark.parametrize("arm", ["baseline", "app", "both"])
@pytest.mark.parametrize(
    "replicates", [sim._MAX_REPLICATES + 1, 10**30 - 1], ids=["past-the-cap", "huge"]
)
def test_simulate_refuses_replicates_past_the_cap(tmp_path, capsys, monkeypatch, arm, replicates):
    # refused before a replica's SimConfig is built, so before any run
    def no_replica(*args, **kwargs):
        raise AssertionError("a replica was built")

    monkeypatch.setattr(sim, "replace", no_replica)
    out = tmp_path / "sim.csv"
    assert main(SIM_ARGS + ["--arm", arm, "--replicates", str(replicates), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {replicates} replicates are over the cap of {sim._MAX_REPLICATES}"]
    assert not out.exists()


def test_the_replicate_cap_itself_is_accepted():
    configs = sim._replicas(SimConfig(seed=5), sim._MAX_REPLICATES)
    assert [c.seed for c in configs] == list(range(5, 5 + sim._MAX_REPLICATES))


@pytest.mark.parametrize(
    "message, line",
    [
        ("", "error: out of memory"),
        # the text of numpy's _ArrayMemoryError, a MemoryError subclass
        (
            "Unable to allocate 64.0 GiB for an array with shape (4294967295, 2) "
            "and data type float64",
            "error: out of memory: Unable to allocate 64.0 GiB for an array with shape "
            "(4294967295, 2) and data type float64",
        ),
    ],
    ids=["bare", "numpy"],
)
def test_running_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, message, line):
    # the allocation is faked: build_world fails as a too-large world would
    def exhausted(config):
        raise MemoryError(message) if message else MemoryError

    monkeypatch.setattr(sim, "build_world", exhausted)
    out = tmp_path / "sim.csv"
    assert main(SIM_ARGS + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [line]
    assert not out.exists()


@pytest.mark.parametrize(
    "args, jobs, workers",
    [
        (["surface", "--n-max", "12"], "10000", 8),  # capped by the usable CPUs
        (["surface", "--n-max", "12"], "3", 3),  # by --jobs
        (SIM_ARGS + ["--replicates", "2"], "10000", 2),  # by the number of tasks
        (SIM_ARGS + ["--arm", "app", "--replicates", "2"], "10000", 2),  # one arm as well
    ],
    ids=["surface-cpu-cap", "surface-jobs-cap", "simulate-task-cap", "simulate-app-task-cap"],
)
def test_pool_asks_for_at_most_jobs_tasks_and_cpus(tmp_path, monkeypatch, capsys, args, jobs, workers):
    requested = []

    class InlinePool:
        """Records the worker count asked for and runs every task in this process."""

        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(core, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: set(range(8)))
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    assert main(args + ["--jobs", "1", "--out", str(serial)]) == 0
    assert requested == []
    assert main(args + ["--jobs", jobs, "--out", str(pooled)]) == 0
    assert requested == [workers]
    assert pooled.read_bytes() == serial.read_bytes()


def test_simulate_single_arm(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    assert main(SIM_ARGS + ["--arm", "baseline", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("seed 3: baseline ")
    arms = {line.split(",")[-1] for line in out.read_text().splitlines()[1:]}
    assert arms == {"baseline"}


def test_simulate_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# engine settings\n"
        "population = 50\n"
        "max_days = 6\n"
        "infection_probability = 0.4\n"
        "app_enabled = true\n"
    )
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(cfg), "--arm", "app", "--out", str(out)]) == 0
    summary = capsys.readouterr().out
    assert summary.startswith("seed 0: app ")
    assert "/50" in summary  # population came from the file


def test_simulate_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("velocity = 9\n")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    assert "unknown config field" in capsys.readouterr().err


# one valid, non-default value per SimConfig field, as written in a config file
CONFIG_FILE_VALUES = {
    "population": ("50", 50),
    "initial_infected": ("2", 2),
    "arena_side": ("30.5", 30.5),
    "bluetooth_range": ("12.5", 12.5),
    "infection_radius": ("1.5", 1.5),
    "infection_probability": ("0.25", 0.25),
    "symptom_onset_delay": ("3", 3),
    "quarantine_start_delay": ("1", 1),
    "quarantine_days": ("7", 7),
    "infectious_period": ("4", 4),
    "app_enabled": ("no", False),
    "seed": ("11", 11),
    "max_days": ("9", 9),
    "encounter_duration_s": ("120", 120.0),
}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(SimConfig)])
def test_every_config_field_is_settable_from_a_file(tmp_path, name):
    text, expected = CONFIG_FILE_VALUES[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{name} = {text}\n")
    args = _build_parser().parse_args(["simulate", "--config", str(cfg), "--out", "unused.csv"])
    value = getattr(_load_sim_config(args), name)
    assert value == expected
    assert type(value) is type(expected)
    assert value != getattr(SimConfig(), name)


def test_simulate_cli_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("population = 50\nseed = 1\nmax_days = 6\n")
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(cfg), "--population", "40", "--out", str(out)]) == 0
    assert "/40" in capsys.readouterr().out


# -------------------------------------------------------------------------
# replay
# -------------------------------------------------------------------------

def test_replay_matches_live_digest(tmp_path, capsys):
    reg = Registry(["clinic"], seed=2)
    ids = []
    for tag in "abc":
        otc = reg.issue_otc("clinic")
        ids.append(reg.register_user(otc.code, f"cli-user-{tag}").device)
    reg.advance_clock(SimClock(0))
    reg.record_encounter(ids[0], ids[1], 2.0)
    reg.advance_clock(SimClock(2))
    reg.update_status(reg.issue_otc("clinic").code, ids[0], Stage.INFECTED)
    log = tmp_path / "events.csv"
    write_event_log(reg.events, log)

    assert main(["replay", "--log", str(log), "--credential", "clinic"]) == 0
    assert capsys.readouterr().out.strip() == reg.state_digest()

    out = tmp_path / "digest.txt"
    assert main(["replay", "--log", str(log), "--credential", "clinic", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text().strip() == reg.state_digest()
    manifest = json.loads((tmp_path / "digest.txt.manifest.json").read_text())
    assert manifest["command"] == "replay"
    assert manifest["seed"] is None  # replay draws nothing
    assert manifest["outputs"][0]["sha256"] == sha256(out)


@pytest.mark.parametrize(
    "details, cause",
    [
        ({"code": "deadbeef", "status": "infected"}, "InvalidOtcError: code was never issued"),
        ({"status": "infected"}, "KeyError"),
    ],
    ids=["never-issued-code", "missing-code-key"],
)
def test_replay_tampered_log_exits_one(tmp_path, capsys, details, cause):
    reg = Registry(["clinic"], seed=2)
    person = reg.register_user(reg.issue_otc("clinic").code, "cli-user-a").device
    reg.advance_clock(SimClock(1))
    reg.update_status(reg.issue_otc("clinic").code, person, Stage.INFECTED)
    assert reg.events[3].operation == "status_updated"
    log = tmp_path / "events.csv"
    write_event_log(reg.events[:3] + [dataclasses.replace(reg.events[3], details=details)], log)

    assert main(["replay", "--log", str(log), "--credential", "clinic"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: event 4: cannot replay 'status_updated'")
    assert cause in err


@pytest.mark.parametrize(
    "copied, day, changes, cause",
    [
        (1, 1, {}, "OtcReplayError: code already consumed"),
        (3, 1, {"status": "recovered"}, "OtcReplayError: code already consumed"),
        (2, 1, {}, "ValidationError: code already issued"),
        (6, 1, {"distance": 50.0}, "ValidationError: distance 50.0 m outside (0, 10.0] m"),
        (6, 1, {"distance": -1.0}, "ValidationError: distance -1.0 m outside"),
        (6, 1, {"distance": float("nan")}, "ValidationError: distance nan m outside"),
        (6, 1, {"duration": -5.0}, "ValidationError: duration must be non-negative"),
        (6, 1, {"duration": float("nan")}, "ValidationError: duration must be non-negative"),
        (7, 1, {"weights": [0.7, 0.2]}, "ValidationError: a scan needs 4 category weights, got 2"),
        (6, 0, {}, "(dated day 0, but the log has reached day 1)"),
        (6, 1, {"distance": 10**400}, "OverflowError: int too large to convert to float"),
        (6, 1, {"duration": 10**400}, "OverflowError: int too large to convert to float"),
        (7, 1, {"neighbors": [[device("a").hex, 10**400]]}, "OverflowError: int too large"),
        (7, 1, {"weights": [10**400, 0.2, 0.09, 0.01]}, "OverflowError: int too large"),
    ],
    ids=[
        "duplicate-registration", "reused-code", "reissued-code", "far-encounter",
        "negative-distance", "nan-distance", "negative-duration", "nan-duration", "short-weights",
        "backdated-encounter", "huge-distance", "huge-duration", "huge-scan-distance", "huge-weight",
    ],
)
def test_replay_broken_precondition_exits_one(tmp_path, capsys, copied, day, changes, cause):
    # a copy of an ok event appended to the log, redated to `day`, some
    # details replaced: the registration (device already registered, code
    # consumed), the report with its consumed code reused to recover, the
    # report's code issued again, an encounter or a scan with out-of-range
    # inputs, and a valid encounter dated before the log's last day
    reg = Registry(["clinic"], seed=2)
    person = reg.register_user(reg.issue_otc("clinic").code, "cli-user-a").device
    reg.advance_clock(SimClock(1))
    reg.update_status(reg.issue_otc("clinic").code, person, Stage.INFECTED)
    other = reg.register_user(reg.issue_otc("clinic").code, "cli-user-b").device
    reg.record_encounter(person, other, 2.0)
    reg.scan_handshake(other, [(person, 3.0)])
    assert reg.events[-1].day == 1
    original = reg.events[copied]
    copy = dataclasses.replace(original, day=day, details={**original.details, **changes})
    log = tmp_path / "events.csv"
    write_event_log(reg.events + [copy], log)

    assert main(["replay", "--log", str(log), "--credential", "clinic"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: event 9: cannot replay {copy.operation!r}")
    assert cause in err


@pytest.mark.parametrize("change", ["extra-columns", "short-row"])
def test_replay_of_an_event_row_with_the_wrong_column_count_exits_one(tmp_path, capsys, change):
    # the otc_issued row gains two trailing fields, or loses its details
    reg = Registry(["clinic"], seed=2)
    reg.register_user(reg.issue_otc("clinic").code, "cli-user-a")
    log = tmp_path / "events.csv"
    write_event_log(reg.events, log)
    lines = log.read_text().splitlines()
    assert lines[1].startswith("0,otc_issued,staff,ok,")
    if change == "extra-columns":
        lines[1] += ",EXTRA,MORE"
    else:
        lines[1] = lines[1].rsplit(",", 1)[0]
    log.write_text("\n".join(lines) + "\n")

    assert main(["replay", "--log", str(log), "--credential", "clinic"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line 2: malformed event row (")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


@pytest.mark.parametrize(
    "malformed_first, reported",
    [(False, "error: event 5: cannot replay 'encounter_recorded'"),
     (True, "error: line 6: malformed event row (")],
    ids=["unreplayable-event-first", "malformed-line-first"],
)
def test_replay_reports_the_first_fault_in_file_order(tmp_path, capsys, malformed_first, reported):
    # four good events, then an encounter past the Bluetooth range and a
    # one-column line in either order; replay reads, applies and drops each
    # row in turn, so the fault nearer the top of the file is the one named
    reg = Registry(["clinic"], seed=2)
    a, b = (reg.register_user(reg.issue_otc("clinic").code, f"cli-user-{t}").device for t in "ab")
    reg.record_encounter(a, b, 2.0)
    good = reg.events[:4]
    far = dataclasses.replace(reg.events[4], details={**reg.events[4].details, "distance": 50.0})
    log = tmp_path / "events.csv"
    write_event_log(good + [far], log)
    lines = log.read_text().splitlines()
    lines.insert(len(lines) - malformed_first, "garbage")
    log.write_text("\n".join(lines) + "\n")

    assert main(["replay", "--log", str(log), "--credential", "clinic"]) == 1
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith(reported)
    assert captured.out == ""


def _same_day_pair_log(path, encounters):
    """A log of two devices meeting `encounters` times on day 0; the live digest."""
    reg = Registry(["clinic"], seed=2)
    a, b = (reg.register_user(reg.issue_otc("clinic").code, f"cli-user-{t}").device for t in "ab")
    for _ in range(encounters):
        reg.record_encounter(a, b, 2.0, 1.0)
    assert len(reg._min_distance) == 1  # one contact slot, however long the log
    write_event_log(reg.events, path)
    return reg.state_digest()


def test_replay_memory_does_not_grow_with_log_length(tmp_path, capsys):
    # both logs rebuild the same two devices and one contact slot, so a
    # replay that drops each row once applied peaks at the same memory for
    # 20 000 encounter rows as for 2 000; one that holds the rows does not
    peaks = []
    for encounters in (2_000, 2_000, 20_000):  # the first replay warms caches
        log = tmp_path / f"events-{encounters}.csv"
        live = _same_day_pair_log(log, encounters)
        tracemalloc.start()
        try:
            assert main(["replay", "--log", str(log), "--credential", "clinic"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert capsys.readouterr().out.strip() == live
    assert abs(peaks[2] - peaks[1]) < 1_000_000, peaks


# -------------------------------------------------------------------------
# unwritable output paths
# -------------------------------------------------------------------------

@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_replay_with_an_unwritable_out_prints_nothing(tmp_path, capsys, target):
    reg = Registry(["clinic"], seed=2)
    reg.register_user(reg.issue_otc("clinic").code, "cli-user-a")
    log = tmp_path / "events.csv"
    write_event_log(reg.events, log)
    out = tmp_path if target == "directory" else tmp_path / "missing" / "digest.txt"
    assert main(["replay", "--log", str(log), "--credential", "clinic", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: --out {out}: ")


@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_simulate_with_an_unwritable_out_runs_nothing(tmp_path, capsys, monkeypatch, target):
    calls = []

    def replicate_compare(*args, **kwargs):
        calls.append(args)
        return []

    monkeypatch.setattr("proxtrace.cli.replicate_compare", replicate_compare)
    out = tmp_path if target == "directory" else tmp_path / "missing" / "sim.csv"
    assert main(SIM_ARGS + ["--replicates", "3", "--out", str(out)]) == 1
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: --out {out}: ")


# -------------------------------------------------------------------------
# unreadable input files
# -------------------------------------------------------------------------

NOT_UTF8 = b"\xff"
# one field past the csv module's default limit of 131 072 characters
OVERLONG_FIELD = b'"' + b"x" * 200_000 + b'"'


def _graph_bytes(tail: bytes) -> bytes:
    a, b = device("a").hex, device("b").hex
    return f"{','.join(core.GRAPH_CSV_HEADER)}\n{a},{b},4,2.0,60.0\n".encode() + tail + b"\n"


@pytest.mark.parametrize(
    "argv, content",
    [
        (["trace", "--case", "00" * 16, "--day", "4", "--graph"], _graph_bytes(NOT_UTF8)),
        (["trace", "--case", "00" * 16, "--day", "4", "--graph"], _graph_bytes(OVERLONG_FIELD)),
        (["trace", "--case", "zz", "--day", "4", "--graph"], _graph_bytes(NOT_UTF8)),
        (["replay", "--log"], b"day,operation,actor_digest,outcome,details\n" + NOT_UTF8 + b"\n"),
        (["replay", "--log"], b"0,scan," + OVERLONG_FIELD + b",ok,\n"),
        (["risk", "--observations"], b"A,2.0\n" + NOT_UTF8 + b",1.0\n"),
        (["risk", "--observations"], b"A," + OVERLONG_FIELD + b"\n"),
        (["simulate", "--out", "sim.csv", "--config"], b"population = 20\n" + NOT_UTF8 + b"\n"),
    ],
    ids=[
        "trace-not-utf8", "trace-overlong-field", "trace-not-utf8-ahead-of-bad-case",
        "replay-not-utf8", "replay-overlong-field", "risk-not-utf8", "risk-overlong-field",
        "simulate-config-not-utf8",
    ],
)
def test_unreadable_input_file_is_one_error_line(tmp_path, capsys, monkeypatch, argv, content):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "input"
    path.write_bytes(content)
    assert main(argv + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {path}: ")
    assert len(captured.err.splitlines()) == 1
    assert captured.out == ""


def test_unreadable_files_raise_the_package_error_from_the_public_readers(tmp_path):
    graph, log = tmp_path / "graph.csv", tmp_path / "events.csv"
    graph.write_bytes(_graph_bytes(NOT_UTF8))
    log.write_bytes(b"0,scan," + OVERLONG_FIELD + b",ok,\n")
    with pytest.raises(ValidationError, match="not utf-8 text"):
        read_contact_graph(graph)
    with pytest.raises(ValidationError, match="field larger than field limit"):
        read_event_log(log)


# -------------------------------------------------------------------------
# hostile input: every subcommand, edge values, garbled files
# -------------------------------------------------------------------------

HUGE = "9" * 30
# Edge values for the options that are not sizes.
EDGE_NUMBERS = [
    "0", "-1", "-0.0", "1", "2", "0.3", "nan", "inf", "-inf", "1e308", "-1e308", "1e400",
    "5e-324", HUGE, "-" + HUGE, "x", "",
]
# Sizes (--n, --n-max, --repeats, --population, --days, --replicates) stay
# tiny or go past the caps: a huge size below them is a valid request for a
# huge amount of work.
SIZES = ["0", "-1", "1", "2", "3", "nan", "inf", "1.5", "x", ""]
HOSTILE_WEIGHTS = [
    "inf,1", "1,inf", "nan,1", "0.7,0.2,0.09,0.01", "0.5,0.25", "1", "1,0", "-1,-2", "",
    "a,b", "1e400,1", "1e308,1e-308", "1e-320,1e-321", "0.5,0.4,0.3,0.2,0.1",
]
A, B, C = (device(t).hex for t in "abc")
GRAPH_LINES = [
    ",".join(core.GRAPH_CSV_HEADER), f"{A},{B},2,1.5,60.0", f"{B},{A},2,1.5,60.0",
    f"{B},{C},4,1.0,30.0", f"{A},{A},2,1.0,1.0", f"{A},{B},2,nan,1", f"{A},{B},2,1,inf",
    f"{A},{B},-1,1,1", f"{A},{B},{HUGE},1e308,1e308", f"{A},zz,2,1,1", f"{A},{B},2", "",
]
OBSERVATION_LINES = [
    "category,distance", "A,1.0", "b,2", "0,3.0", "9,1", "-1,1", "A,nan", "A,inf",
    "A,1e308", "A,5e-324", "Z,1", "A", "A,1,2", f"{HUGE},1", "",
]


def _event(day, operation, actor, details, outcome="ok"):
    return f"{day},{operation},{actor},{outcome},{json.dumps(json.dumps(details))}"


# details nested deeper than the interpreter's recursion limit
DEEP_EVENT = '0,otc_issued,staff,ok,"' + "[" * 3000 + '"'
LOG_LINES = [
    ",".join(EVENT_LOG_HEADER),
    _event(0, "otc_issued", "staff", {"code": "c1"}),
    _event(0, "otc_issued", "staff", {"code": "c2"}),
    _event(0, "user_registered", A, {"code": "c1", "status": "susceptible"}),
    _event(0, "user_registered", B, {"code": "c2", "status": "infected"}),
    _event(1, "encounter_recorded", A, {"peer": B, "distance": 1.0, "duration": 1e308}),
    _event(1, "encounter_recorded", A, {"peer": B, "distance": "nan", "duration": 1}),
    _event(2, "scan", A, {"neighbors": [[B, 1.0], [C, 2.0]], "weights": [0.7, 0.2, 0.09, 0.01]}),
    _event(2, "scan", A, {"neighbors": [[B, 1.0, 3]], "weights": ["inf", 1, 0.5, 0.1]}),
    _event(2, "scan", A, {"neighbors": 5, "weights": [1e308, 1, 0.5, 0.1]}),
    _event(3, "status_updated", A, {"code": "c2", "status": "infected"}),
    _event(3, "status_check", A, {}),
    _event(-1, "status_check", A, {}),
    _event(HUGE, "status_check", B, {}),
    _event(0, "otc_issued", "staff", None),
    _event(0, "otc_issued", "staff", [1]),
    _event(0, "bogus", A, {}),
    _event(0, "scan", A, {}, outcome="ValidationError"),
    DEEP_EVENT, "not,a,row", "",
]
CONFIG_LINES = [
    f"{field.name} = {value}"
    for field in dataclasses.fields(SimConfig)
    if field.name not in ("population", "max_days")
    for value in ("0", "-1", "1", "nan", "inf", "1e308", "5e-324", HUGE, "true", "x")
] + [f"{name} = {value}" for name in ("population", "max_days") for value in SIZES] + [
    "# comment", "bogus = 1", "no equals sign", "=", "",
]
# Bytes a garbled file may gain; no digits, so a garble never grows a size.
GARBLE = st.lists(st.sampled_from(list(b',"\n\r\x00\xff=#-.e x')), max_size=4).map(bytes)


def _garble(content, position, extra, truncate):
    position = min(position, len(content))
    return content[:position] if truncate else content[:position] + extra + content[position:]


def _file(lines):
    """A few of `lines`, sometimes cut short or with a few bytes inserted."""
    return st.tuples(
        st.lists(st.sampled_from(lines), max_size=6), st.integers(0, 400), GARBLE, st.booleans()
    ).map(lambda t: _garble("\n".join(t[0]).encode() + b"\n", *t[1:]))


def _path(name):
    """Where a path option points: its own file mostly, else a directory, nothing,
    or a name holding a NUL byte, which no file can have."""
    return st.sampled_from([f"{{{name}}}"] * 6 + ["{dir}", "{missing}/x.csv", f"{{{name}}}\0x"])


def _case(command, required, optional, **files):
    """(argv, input file bytes by name) for one subcommand."""
    options = st.fixed_dictionaries(required, optional=optional)
    argv = options.map(lambda chosen: [command, *itertools.chain(*chosen.items())])
    return st.tuples(argv, st.fixed_dictionaries({k: _file(v) for k, v in files.items()}))


numbers = st.sampled_from(EDGE_NUMBERS)
sizes = st.sampled_from(["1", "2", "3"]) | st.sampled_from(SIZES)
# At or past the engine's caps, so rejected when the config is built; a large
# size below them would be a valid request for a huge world.
populations = sizes | st.sampled_from([str(2**32), HUGE])
days = sizes | st.sampled_from([str(2**31), HUGE])
# Past the sweep caps for every k and every total of at least one.
cell_sizes = sizes | st.sampled_from([str(risk._MAX_SWEEP_CELLS), HUGE])
repeats = sizes | st.sampled_from([str(risk._MAX_CELL_DRAWS + 1), str(10**15), HUGE])
replicate_counts = sizes | st.sampled_from([str(sim._MAX_REPLICATES + 1), HUGE])
jobs = st.sampled_from(["-1", "0", "1", "2"])
scoring = {"--weights": st.sampled_from(HOSTILE_WEIGHTS), "--radius": numbers}
placing = {
    **scoring, "--placement": st.sampled_from(["uniform", "equal", "bogus"]),
    "--seed": numbers, "--jobs": jobs,
}
HOSTILE_CASES = st.one_of(
    _case("risk", {"--observations": _path("observations")}, scoring,
          observations=OBSERVATION_LINES),
    _case("curve", {"--n": cell_sizes, "--repeats": repeats, "--out": _path("out")},
          {**placing, "--k": st.sampled_from(["0", "-1", "1", "2", "4", "5", HUGE, "nan"])}),
    _case("surface", {"--n-max": cell_sizes, "--repeats": repeats, "--out": _path("out")},
          placing),
    _case("trace",
          {"--graph": _path("graph"), "--case": st.sampled_from([A, B.upper(), "zz", ""]),
           "--day": numbers},
          {"--out": _path("out")}, graph=GRAPH_LINES),
    _case("simulate", {"--population": populations, "--days": days, "--out": _path("out")},
          {"--config": _path("config"), "--seed": numbers, "--replicates": replicate_counts,
           "--arm": st.sampled_from(["baseline", "app", "both", "bogus"]), "--jobs": jobs},
          config=CONFIG_LINES),
    _case("replay", {"--log": _path("log")},
          {"--credential": st.sampled_from(["replay", ""]), "--out": _path("out")},
          log=LOG_LINES),
)
ONE_CATEGORY = ["--n", "1", "--k", "1", "--weights", "1"]
SMALL_SIM = [
    "simulate", "--population", "3", "--days", "3", "--out", "{out}", "--config", "{config}",
]


@settings(max_examples=150, deadline=None)
@given(HOSTILE_CASES)
@example((["curve", "--n", "2", "--k", "2", "--weights", "inf,1", "--out", "{out}"], {})).via(
    "an infinite weight"
)
@example((["curve", "--n", "3", "--radius", "1e308", "--out", "{out}"], {})).via(
    "a radius whose distance sums overflow"
)
@example((["curve", *ONE_CATEGORY, "--repeats", str(10**15), "--out", "{out}"], {})).via(
    "repeats whose draws would take petabytes"
)
@example((["curve", *ONE_CATEGORY, "--repeats", HUGE, "--out", "{out}"], {})).via(
    "repeats past numpy's largest dimension"
)
@example((["curve", "--n", HUGE, "--k", "1", "--weights", "1", "--out", "{out}"], {})).via(
    "a curve of endless cells"
)
@example((["surface", "--n-max", HUGE, "--out", "{out}"], {})).via("a surface of endless cells")
@example((["replay", "--log", "{log}"], {"log": DEEP_EVENT.encode()})).via(
    "event details nested past the recursion limit"
)
@example((
    ["simulate", "--population", "2", "--days", "1", "--arm", "baseline", "--replicates", HUGE,
     "--out", "{out}"],
    {},
)).via("replicates without end")
@example((SMALL_SIM, {"config": f"symptom_onset_delay = {HUGE}\n".encode()})).via(
    "a detection lag past the engine's int32 days"
)
@example((SMALL_SIM, {"config": b"arena_side = 1e300\ninfection_probability = 1\n"})).via(
    "an arena whose squared side overflows"
)
@example((["trace", "--graph", "{graph}\0x", "--case", A, "--day", "1"], {"graph": b""})).via(
    "a path holding a NUL byte"
)
def test_hostile_input_exits_cleanly(case):
    # main returns 0, 1 or 2 and raises nothing, warnings included; a failure
    # (exit 1) is one error line and leaves no file behind
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, content in files.items():
            (root / name).write_bytes(content)
        paths = {name: str(root / name) for name in (*files, "out")}
        argv = [arg.format(**paths, dir=root, missing=root / "missing") for arg in argv]
        before = sorted(root.rglob("*"))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = main(argv)
        assert rc in (0, 1, 2)
        if rc == 1:
            (line,) = err.getvalue().splitlines()
            assert line.startswith("error: ")
            assert sorted(root.rglob("*")) == before


# -------------------------------------------------------------------------
# harness
# -------------------------------------------------------------------------

def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


@pytest.mark.parametrize("jobs", ["0", "-1", "-5"])
@pytest.mark.parametrize(
    "argv",
    [["curve", "--n", "2", "--k", "4"], ["surface", "--n-max", "3"],
     ["simulate", "--population", "50"], ["simulate", "--population", "50", "--arm", "app"]],
    ids=["curve", "surface", "simulate-both", "simulate-app"],
)
def test_a_job_count_below_one_is_one_error_line(tmp_path, capsys, argv, jobs):
    # each of these ran in one process and exited 0
    out = tmp_path / "out.csv"
    assert main(argv + ["--jobs", jobs, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: jobs must be at least 1, got {jobs}"]
    assert captured.out == ""
    assert not out.exists()


def test_bad_arguments_exit_one(tmp_path, capsys):
    assert main(["bogus-command"]) == 1
    assert main(["curve", "--n", "3"]) == 1  # --out is required
    assert "error:" in capsys.readouterr().err


# Runs in a fresh interpreter with scipy made unimportable: argv is the tiny
# graph, its index case, a tiny event log and an output directory; prints
# whether any scipy module is loaded after each step as one JSON object.
_SCIPY_PROBE = """
import json, sys
sys.modules["scipy"] = None  # every import of scipy or a submodule now fails
from proxtrace import cli
graph, case, log, out = sys.argv[1:]

def scipy_loaded():
    return any(m is not None for name, m in sys.modules.items() if name.split(".")[0] == "scipy")

loaded = {"import": scipy_loaded()}
steps = {
    "curve": ["curve", "--n", "2", "--k", "4", "--out", out + "/curve.csv"],
    "trace": ["trace", "--graph", graph, "--case", case, "--day", "5", "--out", out + "/traced.txt"],
    "replay": ["replay", "--log", log, "--credential", "clinic", "--out", out + "/digest.txt"],
    "simulate": ["simulate", "--population", "20", "--days", "2", "--out", out + "/sim.csv"],
}
for name, argv in steps.items():
    assert cli.main(argv) == 0, name
    loaded[name] = scipy_loaded()
print(json.dumps(loaded))
"""


def test_no_command_loads_scipy(tmp_path):
    # scipy is a test dependency only: every command, simulate's two arms
    # included, runs without it.  The test process may have loaded scipy
    # already, so the probe needs its own.
    _, graph, case = trace_fixture(tmp_path)
    reg = Registry(["clinic"], seed=3)
    ids = [reg.register_user(reg.issue_otc("clinic").code, f"probe-{t}").device for t in "ab"]
    reg.record_encounter(ids[0], ids[1], 2.0)
    log = tmp_path / "events.csv"
    write_event_log(reg.events, log)
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(graph), case.hex, str(log), str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == {
        "import": False, "curve": False, "trace": False, "replay": False, "simulate": False,
    }
    assert (tmp_path / "sim.csv").read_text().count("\n") > 1


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-c", "from proxtrace.cli import main; raise SystemExit(main(['--version']))"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("proxtrace ")
