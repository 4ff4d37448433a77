"""The benchmark's three workloads: inputs from a seed, one timed pass, checks.

Each workload has a ``prepare(seed, size)`` that builds its inputs (the
set-up the benchmark times separately) and a ``run_pass(inputs, tmp,
checker, clock)`` that drives proxtrace once, through its public API and
``cli.main``, and returns that pass's measurements, timed with ``clock``.
Every output a pass produces is checked, at any seed, against an invariant
or an oracle; at seed 0 the outputs are also compared with digests pinned
in ``pins.json`` (every run makes one smoke-size pass at seed 0 for that).

* ``outbreak`` runs ``proxtrace simulate --arm both`` over consecutive
  seeds: the paper's trend-gate shape, dominated by protocol ingest and
  tracing cascades in the app arm.
* ``registry`` is one closed-loop client driving one ``Registry`` with
  its event log on: registrations, encounters with repeated pairs, scans,
  infection reports with cascades, status checks and ~2 % invalid
  requests, then a contact-graph round trip through ``proxtrace trace``
  and an audit-log round trip through ``proxtrace replay``.
* ``curve`` runs ``proxtrace curve`` and ``proxtrace surface``, which
  touch only ``risk`` and ``cli``.

Summaries are whole-run means and totals over time rather than medians:
the shared host drifts between fast and slow phases, and a mean over the
run integrates them where a median or a minimum snaps to whichever phase
dominated.  The caller scales them to a fixed host speed (hostspeed.py).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import statistics
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Layer functions are called through their modules, so the traced run's
# wrappers see them; the trace oracle below is bound here and stays unwrapped.
from proxtrace import cli, core, protocol
from proxtrace.core import DEFAULT_BLUETOOTH_RANGE_M, SimClock, Stage, hash_identifier
from proxtrace.errors import OtcReplayError, ProxTraceError, UnknownDeviceError, ValidationError
from proxtrace.protocol import NotificationKind, Registry
from proxtrace.tracing import trace_co_contacts

PINS = json.loads((Path(__file__).with_name("pins.json")).read_text())

Clock = Callable[[], float]

SIZES = {
    "full": {
        "outbreak": {"population": 2000, "seeds": 12},
        "registry": {
            "devices": 3000, "days": 7, "encounters_per_device": 6, "repeat_share": 0.05,
            "scans": 300, "neighbours": 10, "reports": 20, "ticks": 100, "traces": 3,
            "invalid_share": 0.02,
        },
        "curve": {"n": 20, "k": 4, "n_max": 100},
    },
    "smoke": {
        "outbreak": {"population": 200, "seeds": 2},
        "registry": {
            "devices": 120, "days": 4, "encounters_per_device": 4, "repeat_share": 0.05,
            "scans": 20, "neighbours": 5, "reports": 3, "ticks": 10, "traces": 2,
            "invalid_share": 0.02,
        },
        "curve": {"n": 5, "k": 4, "n_max": 8},
    },
}

STAFF = "bench-clinic"


class Checker:
    """Counts attempted operations and checks, and the ones that went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.tally(1, 0 if ok else 1, what)

    def tally(self, attempted: int, failed: int, what: str) -> None:
        """Record a batch of operations, `failed` of which went wrong."""
        self.attempted += attempted
        self.failed += failed
        problem = what if attempted == 1 else f"{what}: {failed} of {attempted} failed"
        if failed and problem not in self.problems and len(self.problems) < 20:
            self.problems.append(problem)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(argv: list[str]) -> int:
    # Subcommands print summaries; keep them off the benchmark's stdout.
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _rate(passes: list[dict], items: str, seconds: str) -> float:
    """Items per second over every pass: total work over total time."""
    return sum(p[items] for p in passes) / sum(p[seconds] for p in passes)


def _check_pin(checker: Checker, inputs, key: str, actual: str) -> None:
    if inputs.seed == 0:
        expected = PINS[inputs.size][key]
        checker.expect(actual == expected, f"{key}: {actual} != pinned {expected}")


# =========================================================================
# outbreak
# =========================================================================

@dataclass
class OutbreakInputs:
    seed: int
    size: str
    population: int
    seeds: list[int]


def prepare_outbreak(seed: int, size: str) -> OutbreakInputs:
    shape = SIZES[size]["outbreak"]
    return OutbreakInputs(seed, size, shape["population"], [seed + k for k in range(shape["seeds"])])


def _check_sim_csv(checker: Checker, path: Path, population: int) -> None:
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    previous: dict[str, int] = {}
    for row in rows:
        cumulative, susceptible = int(row["cumulative"]), int(row["susceptible"])
        arm, day = row["arm"], row["day"]
        checker.expect(
            cumulative + susceptible == population,
            f"{path.name} {arm} day {day}: cumulative + susceptible != {population}",
        )
        checker.expect(
            cumulative >= previous.get(arm, 0), f"{path.name} {arm} day {day}: cumulative decreased"
        )
        previous[arm] = cumulative
    checker.expect(set(previous) == {"baseline", "app"}, f"{path.name}: missing an arm")


def run_outbreak(inputs: OutbreakInputs, tmp: Path, checker: Checker, clock: Clock) -> dict[str, float]:
    per_seed = []
    start = clock()
    for sim_seed in inputs.seeds:
        out = tmp / f"sim-{sim_seed}.csv"
        t0 = clock()
        rc = _cli([
            "simulate", "--arm", "both", "--population", str(inputs.population),
            "--jobs", "1", "--seed", str(sim_seed), "--out", str(out),
        ])
        per_seed.append(clock() - t0)
        checker.expect(rc == 0, f"simulate seed {sim_seed} exited {rc}")
        _check_sim_csv(checker, out, inputs.population)
        if sim_seed == 0:
            _check_pin(checker, inputs, "simulate_seed0_sha256", _sha256(out))
    return {"pass_s": clock() - start, "seed_s": per_seed}


def summarize_outbreak(passes: list[dict]) -> dict[str, float]:
    seed_s = [v for p in passes for v in p["seed_s"]]
    # Nearly the reciprocal of wall_s over the seed count: the pass is the
    # simulate calls and the CSV checks between them.
    seeds_per_s = len(seed_s) / sum(seed_s)
    return {
        "wall_s": statistics.mean(p["pass_s"] for p in passes),
        "throughput_per_s": seeds_per_s,
        "seeds_per_s": seeds_per_s,
    }


# =========================================================================
# registry
# =========================================================================

@dataclass
class Day:
    encounters: list[tuple]
    scans: list[tuple]
    reports: list
    ticks: list
    invalid: list[tuple]


@dataclass
class RegistryInputs:
    seed: int
    size: str
    raw_ids: list[str]
    days: list[Day]
    trace_cases: list
    encounters: int
    requests: int


def _distances(rng: np.random.Generator, count: int) -> list[float]:
    """Distances of pairs in range, as the simulator makes them.

    The simulator places agents uniformly on a plane and records every pair
    within Bluetooth range, so a pair's distance has density proportional
    to d on (0, range] away from the arena edges: range * sqrt(V), with V
    uniform on (0, 1].
    """
    return (DEFAULT_BLUETOOTH_RANGE_M * np.sqrt(1.0 - rng.random(count))).tolist()


def prepare_registry(seed: int, size: str) -> RegistryInputs:
    shape = SIZES[size]["registry"]
    rng = np.random.default_rng(seed)
    n = shape["devices"]
    raw_ids = [f"bench-{seed}-{i:06d}" for i in range(n)]
    devices = [hash_identifier(raw) for raw in raw_ids]
    strangers = [hash_identifier(f"stranger-{seed}-{i}") for i in range(16)]
    reporters = iter(rng.permutation(n).tolist())

    days = []
    for _ in range(shape["days"]):
        count = n * shape["encounters_per_device"] // 2  # each encounter involves two devices
        left = rng.integers(0, n, count)
        right = rng.integers(0, n - 1, count)
        right += right >= left
        # A share of rows repeats an earlier pair of the same day, so the
        # contact store merges them (min distance, summed duration).  The
        # simulator never repeats a pair within a day, so this share has no
        # measured source; it is kept small and only makes merges happen.
        repeats = np.flatnonzero(rng.random(count) < shape["repeat_share"])
        repeats = repeats[repeats > 0]
        source = (rng.random(repeats.size) * repeats).astype(np.int64)
        left[repeats], right[repeats] = left[source], right[source]
        encounters = [
            (devices[a], devices[b], d)
            for a, b, d in zip(left.tolist(), right.tolist(), _distances(rng, count))
        ]

        scans = []
        for _ in range(shape["scans"]):
            picked = rng.choice(n, size=shape["neighbours"] + 1, replace=False).tolist()
            distances = _distances(rng, len(picked) - 1)
            scans.append((devices[picked[0]], [(devices[i], d) for i, d in zip(picked[1:], distances)]))

        reports = [devices[next(reporters)] for _ in range(shape["reports"])]
        ticks = [devices[i] for i in rng.integers(0, n, shape["ticks"]).tolist()]

        requests = count + shape["scans"] + 2 * shape["reports"] + shape["ticks"]
        # Three kinds of invalid request (consumed code, unknown device,
        # out-of-range distance) in equal numbers, with out-of-range distances
        # sent both as encounters and as scans.
        invalid = []
        for j in range(max(1, round(shape["invalid_share"] * requests))):
            a, b = rng.choice(n, size=2, replace=False).tolist()
            too_far = DEFAULT_BLUETOOTH_RANGE_M + float(rng.uniform(0.01, 5.0))
            kind = j % 4
            if kind == 0:
                invalid.append(("consumed_otc", a, f"bench-{seed}-late-{len(days)}-{j}"))
            elif kind == 1:
                invalid.append(("unknown_device", strangers[j % len(strangers)], devices[b], 3.0))
            elif kind == 2:
                invalid.append(("encounter_range", devices[a], devices[b], too_far))
            else:
                invalid.append(("scan_range", devices[a], [(devices[b], too_far)]))
        days.append(Day(encounters, scans, reports, ticks, invalid))

    trace_cases = [devices[i] for i in rng.choice(n, size=shape["traces"], replace=False).tolist()]
    return RegistryInputs(
        seed, size, raw_ids, days, trace_cases,
        encounters=sum(len(day.encounters) for day in days),
        # issue_otc + register_user per device, issue_otc + update_status per report
        requests=2 * n + sum(
            len(d.encounters) + len(d.scans) + 2 * len(d.reports) + len(d.ticks) + len(d.invalid)
            for d in days
        ),
    )


def _expect_error(checker: Checker, error: type[Exception], what: str, call, *args) -> None:
    try:
        call(*args)
    except error:
        checker.expect(True, what)
    except ProxTraceError as exc:
        checker.expect(False, f"{what}: raised {exc!r}, wanted {error.__name__}")
    else:
        checker.expect(False, f"{what}: accepted, wanted {error.__name__}")


def run_registry(inputs: RegistryInputs, tmp: Path, checker: Checker, clock: Clock) -> dict[str, object]:
    start = clock()
    registry = Registry({STAFF}, seed=inputs.seed, log_events=True)
    codes = []
    for raw in inputs.raw_ids:
        otc = registry.issue_otc(STAFF)
        registry.register_user(otc.code, raw)
        codes.append(otc.code)
    checker.expect(len(registry.devices) == len(inputs.raw_ids), "registration count")

    ingest_s = 0.0
    scan_ms: list[float] = []
    update_ms: list[float] = []
    for day_index, day in enumerate(inputs.days):
        registry.advance_clock(SimClock(day_index))

        t0 = clock()
        record = registry.record_encounter
        unexpected = 0
        for left, right, distance in day.encounters:
            try:
                record(left, right, distance)
            except ProxTraceError:
                unexpected += 1
        ingest_s += clock() - t0
        checker.tally(len(day.encounters), unexpected, f"day {day_index} encounters")

        for scanner, neighbours in day.scans:
            t0 = clock()
            result = registry.scan_handshake(scanner, neighbours)
            scan_ms.append((clock() - t0) * 1e3)
            checker.expect(
                result.neighbors_seen == len(neighbours) and result.risk_class is not None,
                f"day {day_index}: scan saw {result.neighbors_seen} of {len(neighbours)}",
            )

        for device in day.reports:
            otc = registry.issue_otc(STAFF)
            t0 = clock()
            notes = registry.update_status(otc.code, device, Stage.INFECTED)
            update_ms.append((clock() - t0) * 1e3)
            checker.expect(
                any(n.recipient == device and n.kind is NotificationKind.STATUS_POSITIVE for n in notes),
                f"day {day_index}: report of {device.hex} emitted no status-positive notice",
            )

        for device in day.ticks:
            registry.status_checker_tick(device)  # a notice or none: both are valid
        checker.tally(len(day.ticks), 0, "status checks")

        for kind, *args in day.invalid:
            if kind == "consumed_otc":
                code, raw_id = codes[args[0]], args[1]
                _expect_error(checker, OtcReplayError, kind, registry.register_user, code, raw_id)
            elif kind == "unknown_device":
                _expect_error(checker, UnknownDeviceError, kind, registry.record_encounter, *args)
            elif kind == "encounter_range":
                _expect_error(checker, ValidationError, kind, registry.record_encounter, *args)
            else:
                _expect_error(checker, ValidationError, kind, registry.scan_handshake, *args)

    requests_s = clock() - start

    # Contact-graph round trip: write the live graph, trace it through the CLI.
    last_day = len(inputs.days) - 1
    graph_path = tmp / "graph.csv"
    t0 = clock()
    core.write_contact_graph(registry.contact_graph, graph_path)
    traced_paths = []
    for i, case in enumerate(inputs.trace_cases):
        traced_paths.append(tmp / f"traced-{i}.txt")
        rc = _cli([
            "trace", "--graph", str(graph_path), "--case", case.hex,
            "--day", str(last_day), "--out", str(traced_paths[-1]),
        ])
        checker.expect(rc == 0, f"trace {case.hex} exited {rc}")
    graph_roundtrip_s = clock() - t0

    # Audit-log round trip: write the log, rebuild through the CLI.
    live_digest = registry.state_digest()
    log_path, digest_path = tmp / "events.csv", tmp / "digest.txt"
    protocol.write_event_log(registry.events, log_path)
    t0 = clock()
    rc = _cli(["replay", "--log", str(log_path), "--credential", STAFF, "--out", str(digest_path)])
    replay_s = clock() - t0
    pass_s = clock() - start

    # The output checks run untimed: the trace oracle is proxtrace code too.
    live_graph = registry.contact_graph
    for case, path in zip(inputs.trace_cases, traced_paths):
        oracle = [d.hex for d in trace_co_contacts(case, live_graph, SimClock(last_day))]
        checker.expect(path.read_text().split() == oracle, f"trace {case.hex} differs from the oracle")
    checker.expect(rc == 0, f"replay exited {rc}")
    replayed = digest_path.read_text().strip()
    checker.expect(replayed == live_digest, "replay digest differs from the live digest")
    _check_pin(checker, inputs, "registry_digest", live_digest)
    return {
        "pass_s": pass_s,
        "requests": inputs.requests,
        "requests_s": requests_s,
        "encounters": inputs.encounters,
        "ingest_s": ingest_s,
        "scan_ms": scan_ms,
        "update_ms": update_ms,
        "replay_events": len(registry.events),
        "replay_s": replay_s,
        "graph_roundtrip_s": graph_roundtrip_s,
    }


def summarize_registry(passes: list[dict]) -> dict[str, float]:
    scans = [v for p in passes for v in p["scan_ms"]]
    updates = [v for p in passes for v in p["update_ms"]]
    return {
        "wall_s": statistics.mean(p["pass_s"] for p in passes),
        # Over the whole pass, so nearly the reciprocal of wall_s: over the
        # request loop alone (requests_per_s, about 3.5 s of the pass) ten
        # runs spread up to 0.24, too close to the bound to gate on.
        "throughput_per_s": _rate(passes, "requests", "pass_s"),
        "requests_per_s": _rate(passes, "requests", "requests_s"),
        "encounters_per_s": _rate(passes, "encounters", "ingest_s"),
        "scan_ms_p50": statistics.median(scans),
        "scan_ms_p99": _percentile(scans, 99),
        "status_update_ms_p50": statistics.median(updates),
        "status_update_ms_p90": _percentile(updates, 90),
        "replay_events_per_s": _rate(passes, "replay_events", "replay_s"),
        "graph_roundtrip_s": statistics.mean(p["graph_roundtrip_s"] for p in passes),
    }


# =========================================================================
# curve
# =========================================================================

@dataclass
class CurveInputs:
    seed: int
    size: str
    curve_argv: list[str]
    surface_argv: list[str]
    points: int
    cells: int


def prepare_curve(seed: int, size: str) -> CurveInputs:
    shape = SIZES[size]["curve"]
    n, k, n_max = shape["n"], shape["k"], shape["n_max"]
    return CurveInputs(
        seed, size,
        ["curve", "--n", str(n), "--k", str(k), "--seed", str(seed), "--jobs", "1"],
        ["surface", "--n-max", str(n_max), "--seed", str(seed), "--jobs", "1"],
        points=math.comb(n + k, k),
        cells=(n_max + 1) * (n_max + 2) // 2,
    )


def run_curve(inputs: CurveInputs, tmp: Path, checker: Checker, clock: Clock) -> dict[str, float]:
    curve_path, surface_path = tmp / "curve.csv", tmp / "surface.csv"
    start = clock()
    rc = _cli(inputs.curve_argv + ["--out", str(curve_path)])
    curve_s = clock() - start
    checker.expect(rc == 0, f"curve exited {rc}")
    t0 = clock()
    rc = _cli(inputs.surface_argv + ["--out", str(surface_path)])
    surface_s = clock() - t0
    checker.expect(rc == 0, f"surface exited {rc}")
    pass_s = clock() - start

    with open(curve_path, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    checker.expect(len(rows) == inputs.points, f"curve has {len(rows)} rows, wanted {inputs.points}")
    checker.expect(float(rows[0][-2]) == 1.0, f"curve first score {rows[0][-2]} != 1.0")
    last = rows[-1]
    checker.expect(
        all(int(c) == 0 for c in last[1:-2]) and float(last[-2]) == 0.0,
        f"curve last row {last} is not the empty row scored 0.0",
    )
    with open(surface_path, newline="") as handle:
        cells = sum(1 for _ in handle) - 1
    checker.expect(cells == inputs.cells, f"surface has {cells} cells, wanted {inputs.cells}")
    _check_pin(checker, inputs, "curve_sha256", _sha256(curve_path))
    _check_pin(checker, inputs, "surface_sha256", _sha256(surface_path))
    return {
        "pass_s": pass_s,
        "points": inputs.points,
        "curve_s": curve_s,
        "cells": inputs.cells,
        "surface_s": surface_s,
    }


def summarize_curve(passes: list[dict]) -> dict[str, float]:
    points_per_s = _rate(passes, "points", "curve_s")
    return {
        "wall_s": statistics.mean(p["pass_s"] for p in passes),
        "throughput_per_s": points_per_s,
        "curve_points_per_s": points_per_s,
        "surface_cells_per_s": _rate(passes, "cells", "surface_s"),
    }


WORKLOADS = {
    "outbreak": (prepare_outbreak, run_outbreak, summarize_outbreak),
    "registry": (prepare_registry, run_registry, summarize_registry),
    "curve": (prepare_curve, run_curve, summarize_curve),
}
