"""Registry behaviour: codes, registration, cascade, scans, audit replay.

Single-use code semantics are checked with a side model that tracks what
every code should be able to do next; the registry must agree after every
operation, successful or failed.
"""

import copy
import csv
import dataclasses
import gc
import hashlib
import inspect
import itertools
import json
import math
import pickle
import random
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from proxtrace import protocol
from proxtrace.core import (
    ContactList,
    ContactRecord,
    DeviceId,
    Quarantine,
    SimClock,
    Stage,
    hash_identifier,
    write_contact_graph,
)
from proxtrace.errors import (
    AlreadyRegisteredError,
    AuthorizationError,
    InvalidOtcError,
    OtcReplayError,
    ProxTraceError,
    TransitionError,
    UnknownDeviceError,
    ValidationError,
)
from proxtrace.protocol import (
    _DETAILS_JSON,
    EVENT_LOG_HEADER,
    Event,
    NotificationKind,
    Registry,
    RegistryPolicy,
    ScanResult,
    read_event_log,
    write_event_log,
)
from proxtrace.risk import DEFAULT_WEIGHTS, RiskClass, WeightConfig
from proxtrace.tracing import trace_co_contacts

CRED = "clinic"


def make_registry(**kwargs) -> Registry:
    kwargs.setdefault("seed", 1)
    return Registry([CRED], **kwargs)


def enroll(reg: Registry, tag: str):
    otc = reg.issue_otc(CRED)
    return reg.register_user(otc.code, f"user-{tag}").device


# -------------------------------------------------------------------------
# one-time codes
# -------------------------------------------------------------------------

def test_issue_requires_credential():
    reg = make_registry()
    with pytest.raises(AuthorizationError):
        reg.issue_otc("not-a-credential")
    assert reg.otcs == {}


def test_issued_codes_are_fresh_unique_hex():
    reg = make_registry()
    codes = {reg.issue_otc(CRED).code for _ in range(200)}
    assert len(codes) == 200
    for code in codes:
        assert len(code) == 32
        int(code, 16)
        assert not reg.otcs[code].consumed


def test_issue_stream_is_seed_deterministic():
    a = [make_registry(seed=9).issue_otc(CRED).code for _ in range(1)]
    b = [make_registry(seed=9).issue_otc(CRED).code for _ in range(1)]
    assert a == b


# -------------------------------------------------------------------------
# registration
# -------------------------------------------------------------------------

def test_register_consumes_code():
    reg = make_registry()
    otc = reg.issue_otc(CRED)
    record = reg.register_user(otc.code, "user-a")
    assert otc.consumed
    assert record.device in reg.devices
    assert reg.devices[record.device] == record
    assert record.stage is Stage.SUSCEPTIBLE
    # anything else is absent: an unregistered id, or not an id at all
    assert hash_identifier("user-b") not in reg.devices
    assert "x" not in reg.devices
    assert reg.devices.get("x") is None
    with pytest.raises(KeyError):
        reg.devices[hash_identifier("user-b")]


def test_register_unknown_code():
    reg = make_registry()
    with pytest.raises(InvalidOtcError):
        reg.register_user("00" * 16, "user-a")
    assert reg.devices == {}
    assert len(reg.devices) == 0


def test_register_replayed_code():
    reg = make_registry()
    otc = reg.issue_otc(CRED)
    reg.register_user(otc.code, "user-a")
    with pytest.raises(OtcReplayError):
        reg.register_user(otc.code, "user-b")
    assert len(reg.devices) == 1


def test_duplicate_device_leaves_code_usable():
    reg = make_registry()
    first = reg.issue_otc(CRED)
    reg.register_user(first.code, "user-a")
    second = reg.issue_otc(CRED)
    with pytest.raises(AlreadyRegisteredError):
        reg.register_user(second.code, "user-a")
    assert not second.consumed  # failure must not burn the code
    record = reg.register_user(second.code, "user-b")
    assert second.consumed
    assert record.device == hash_identifier("user-b")
    assert len(reg.devices) == 2


def test_devices_view_is_read_only_and_in_registration_order():
    # devices and contact_graph are the same kind of view: check both alike
    reg = make_registry()
    tags = ["q", "a", "z", "m"]
    ids = [enroll(reg, tag) for tag in tags]
    devices, graph = reg.devices, reg.contact_graph
    assert [record.device for record in devices.values()] == ids
    assert [contact_list.owner for contact_list in graph.values()] == ids
    for view in (devices, graph):
        assert list(view) == ids  # registration order, not digest order
        assert len(view) == len(ids) and all(device in view for device in ids)
        assert view == {device: view[device] for device in ids}
        with pytest.raises(TypeError):
            view[ids[0]] = view[ids[1]]
        with pytest.raises(TypeError):
            del view[ids[0]]
        # anything else is absent: not an id at all, or an unregistered id
        for other in ("x", hash_identifier("user-x")):
            assert other not in view and view.get(other) is None
            with pytest.raises(KeyError):
                view[other]
    # both views read live state, not a snapshot taken when they were made
    reg.record_encounter(ids[0], ids[2], 2.0)
    reg.update_status(reg.issue_otc(CRED).code, ids[2], Stage.INFECTED)
    assert devices[ids[2]].stage is Stage.INFECTED
    assert [record.peer for record in graph[ids[0]].records] == [ids[2]]
    assert [record.peer for record in graph[ids[2]].records] == [ids[0]]


# -------------------------------------------------------------------------
# hot paths run on handles and digest bytes
# -------------------------------------------------------------------------

@pytest.fixture
def device_id_calls(monkeypatch):
    """Count the Python-level DeviceId.__hash__ and __eq__ calls."""
    calls = {"hash": 0, "eq": 0}
    original_hash, original_eq = DeviceId.__hash__, DeviceId.__eq__

    def counting_hash(self):
        calls["hash"] += 1
        return original_hash(self)

    def counting_eq(self, other):
        calls["eq"] += 1
        return original_eq(self, other)

    monkeypatch.setattr(DeviceId, "__hash__", counting_hash)
    monkeypatch.setattr(DeviceId, "__eq__", counting_eq)
    return calls


def test_encounters_make_no_device_id_hash_or_eq(device_id_calls):
    reg = make_registry()
    people = [enroll(reg, str(i)) for i in range(20)]
    rnd = random.Random(3)
    device_id_calls.update(hash=0, eq=0)
    for n in range(1000):
        left, right = rnd.sample(people, 2)  # repeats merge into one record
        if n % 250 == 0:
            reg.advance_clock(SimClock(n // 250))
        reg.record_encounter(left, right, rnd.uniform(0.5, 9.5))
    assert device_id_calls == {"hash": 0, "eq": 0}
    assert reg.clock.current_day == 3


def test_scan_categorisation_makes_no_device_id_hash_or_eq(device_id_calls):
    # neighbours in every category: infected, contacts of it, their contacts
    # and bystanders, so categorisation walks the contact windows
    reg = make_registry()
    s, i, *others = (enroll(reg, str(n)) for n in range(11))
    reg.advance_clock(SimClock(4))
    for b in others[:3]:
        reg.record_encounter(i, b, 2.0)
    for c, b in zip(others[3:6], others[:3]):
        reg.record_encounter(b, c, 3.0)
    reg.advance_clock(SimClock(5))
    reg.update_status(reg.issue_otc(CRED).code, i, Stage.INFECTED)
    neighbours = [(peer, 1.0 + n / 2) for n, peer in enumerate([i, *others])]
    assert len(neighbours) == 10
    device_id_calls.update(hash=0, eq=0)
    result = reg.scan_handshake(s, neighbours)
    assert device_id_calls == {"hash": 0, "eq": 0}
    assert result.neighbors_seen == 10
    assert result.notification is not None  # the notification key was checked too


def test_trace_hashes_per_lookback_peer_not_per_traced_device(device_id_calls):
    # Two graphs with the same five lookback-day peers, whose today lists
    # differ tenfold and overlap (each also holds the index case and another
    # peer).  Graph lookups hash once per lookback peer; discovering a device
    # hashes and compares nothing, so both traces make the same calls.
    index = hash_identifier("trace-index")
    peers = [hash_identifier(f"trace-peer-{n}") for n in range(5)]
    pool = [hash_identifier(f"trace-pool-{n}") for n in range(120)]
    graphs = []
    for size in (8, 98):
        graph = {index: ContactList(index, tuple(ContactRecord(p, 3, 1.0, 60.0) for p in peers))}
        for n, peer in enumerate(peers):
            met = [index, peers[(n + 1) % 5], *pool[n * 4 : n * 4 + size]]
            graph[peer] = ContactList(peer, tuple(ContactRecord(m, 5, 2.0, 60.0) for m in met))
        graphs.append(graph)
    device_id_calls.update(hash=0, eq=0)
    hashes = []
    for graph, size in zip(graphs, (8, 98)):
        before = device_id_calls["hash"]
        traced = trace_co_contacts(index, graph, SimClock(5))
        hashes.append(device_id_calls["hash"] - before)
        assert len(traced) == 5 + size + 16
    assert hashes[0] == hashes[1]
    assert device_id_calls["eq"] == 0


# -------------------------------------------------------------------------
# status updates and the cascade
# -------------------------------------------------------------------------

def cascade_registry():
    """A--B on day 0, B--C on day 2, D idle; clock left at day 2."""
    reg = make_registry()
    a, b, c, d = (enroll(reg, t) for t in "abcd")
    reg.advance_clock(SimClock(0))
    reg.record_encounter(a, b, 2.0)
    reg.advance_clock(SimClock(2))
    reg.record_encounter(b, c, 2.0)
    return reg, a, b, c, d


def test_infection_cascade_notifies_and_quarantines():
    reg, a, b, c, d = cascade_registry()
    otc = reg.issue_otc(CRED)
    reg.advance_clock(SimClock(2))
    notes = reg.update_status(otc.code, a, Stage.INFECTED)

    by_kind = {(n.kind, n.recipient) for n in notes}
    assert (NotificationKind.STATUS_POSITIVE, a) in by_kind
    assert (NotificationKind.CONTACT_AT_RISK, b) in by_kind
    assert (NotificationKind.CONTACT_AT_RISK, c) in by_kind
    assert len(notes) == 3

    window = Quarantine(start_day=3, end_day=3 + reg.policy.quarantine_days)
    for dev in (a, b, c):
        assert reg.devices[dev].quarantine == window
    assert reg.devices[d].quarantine is None
    assert reg.devices[a].stage is Stage.INFECTED
    assert reg.devices[b].stage is Stage.SUSCEPTIBLE


def test_cascade_quarantine_set_is_exactly_device_plus_traced():
    reg, a, b, c, d = cascade_registry()
    otc = reg.issue_otc(CRED)
    reg.advance_clock(SimClock(2))
    reg.update_status(otc.code, a, Stage.INFECTED)
    quarantined = {dev for dev, rec in reg.devices.items() if rec.quarantine is not None}
    assert quarantined == {a, b, c}


def test_later_cascade_extends_quarantine():
    reg, a, b, c, d = cascade_registry()
    reg.advance_clock(SimClock(2))
    reg.update_status(reg.issue_otc(CRED).code, a, Stage.INFECTED)
    assert reg.devices[b].quarantine == Quarantine(3, 13)

    # another case traces b again two days later: window replaced, longer end
    reg.record_encounter(d, b, 2.0)
    reg.advance_clock(SimClock(4))
    reg.update_status(reg.issue_otc(CRED).code, d, Stage.INFECTED)
    assert reg.devices[b].quarantine == Quarantine(5, 15)
    assert reg.devices[a].quarantine == Quarantine(3, 13)  # untouched


# (operation, a, b): enrol a device, device a meets device b, device a reports
# infected, or the clock moves on a % 3 days; a = 7 jumps 2**63 - 3 days, so
# windows also end past, and start past, the int64 day columns' limit
mask_ops = st.lists(
    st.tuples(
        st.sampled_from(["enrol", "meet", "report", "advance"]),
        st.integers(0, 7), st.integers(0, 7),
    ),
    max_size=40,
)


def mask_probe_days(reg: Registry) -> list[int]:
    """Day 0, today, and the days around each window's bounds that the mask answers."""
    days = {0, reg.clock.current_day}
    for record in reg.devices.values():
        window = record.quarantine
        if window is not None:
            days |= {window.start_day - 1, window.start_day, window.end_day - 1, window.end_day}
    return sorted(day for day in days if 0 <= day < 2**63 - 1)


@settings(max_examples=150, deadline=None)
@given(quarantine_days=st.sampled_from([0, 1, 3, 10, 2**63]), ops=mask_ops)
def test_quarantine_mask_matches_each_record(quarantine_days, ops):
    reg = make_registry(policy=RegistryPolicy(quarantine_days=quarantine_days), log_events=False)
    people: list = []
    for op, a, b in ops:
        if op == "enrol" or not people:
            people.append(enroll(reg, str(len(people))))
        elif op == "meet":
            left, right = people[a % len(people)], people[b % len(people)]
            if left != right:
                reg.record_encounter(left, right, 2.0)
        elif op == "report":
            device = people[a % len(people)]
            if reg.devices[device].stage is Stage.SUSCEPTIBLE:
                reg.update_status(reg.issue_otc(CRED).code, device, Stage.INFECTED)
        else:
            reg.advance_clock(SimClock(reg.clock.current_day + (2**63 - 3 if a == 7 else a % 3)))
        for day in mask_probe_days(reg):
            mask = reg.quarantine_mask(day)
            assert mask.dtype == bool
            assert mask.tolist() == [rec.is_quarantined(day) for rec in reg.devices.values()]


def test_quarantine_mask_follows_an_extended_window_and_later_registrations():
    reg, a, b, c, d = cascade_registry()
    reg.advance_clock(SimClock(2))
    reg.update_status(reg.issue_otc(CRED).code, a, Stage.INFECTED)
    reg.record_encounter(d, b, 2.0)
    reg.advance_clock(SimClock(4))
    reg.update_status(reg.issue_otc(CRED).code, d, Stage.INFECTED)
    late = enroll(reg, "late")
    assert list(reg.devices) == [a, b, c, d, late]
    assert reg.quarantine_mask(2).tolist() == [False] * 5
    # b's window [3, 13) was replaced by [5, 15) when d's report traced it again
    assert reg.quarantine_mask(3).tolist() == [True, False, True, False, False]
    assert reg.quarantine_mask(5).tolist() == [True, True, True, True, False]
    assert reg.quarantine_mask(13).tolist() == [False, True, False, True, False]
    assert reg.quarantine_mask(15).tolist() == [False] * 5


def test_a_window_past_the_day_columns_stays_exact():
    # Windows ending past 2**63 - 1, one of them starting past it too: the
    # mask's columns saturate, but each record and device line stays exact.
    span = 2**63
    reg = make_registry(policy=RegistryPolicy(quarantine_days=span))
    a, b, c = (enroll(reg, tag) for tag in "abc")
    reg.record_encounter(a, b, 2.0)
    reg.advance_clock(SimClock(2))
    reg.update_status(reg.issue_otc(CRED).code, b, Stage.INFECTED)  # traces a
    near_window = Quarantine(3, 3 + span)
    assert reg.devices[a].quarantine == near_window
    far = span + 5
    reg.advance_clock(SimClock(far))
    reg.record_encounter(a, c, 2.0)
    reg.advance_clock(SimClock(far + 2))
    reg.update_status(reg.issue_otc(CRED).code, c, Stage.INFECTED)  # traces a again
    far_window = Quarantine(far + 3, far + 3 + span)
    windows = {a: far_window, b: near_window, c: far_window}
    assert {device: reg.devices[device].quarantine for device in windows} == windows
    stages = {a: "susceptible", b: "infected", c: "infected"}
    assert sorted(line for line in reg._state_lines() if line.startswith("device|")) == sorted(
        f"device|{device.hex}|{stages[device]}|{window.start_day},{window.end_day}|0"
        for device, window in windows.items()
    )
    assert reg.quarantine_mask(2).tolist() == [False, False, False]
    assert reg.quarantine_mask(3).tolist() == [False, True, False]
    assert reg.quarantine_mask(span - 2).tolist() == [False, True, False]
    assert Registry.replay(reg.events, [CRED], policy=reg.policy).state_digest() == reg.state_digest()


@pytest.mark.parametrize("day", [1.0, 2.5, "3", None, -1, 2**63 - 1, 2**64])
def test_quarantine_mask_rejects_a_day_it_cannot_answer(day):
    reg = make_registry()
    enroll(reg, "a")
    with pytest.raises(ValidationError, match="must be an integer"):
        reg.quarantine_mask(day)


def test_quarantine_mask_of_an_empty_registry_is_empty():
    mask = make_registry().quarantine_mask(np.int64(4))
    assert mask.dtype == bool and mask.shape == (0,)


def test_same_day_renotification_suppressed():
    reg = make_registry()
    a, b, c, d = (enroll(reg, t) for t in "abcd")
    reg.advance_clock(SimClock(0))
    reg.record_encounter(a, b, 2.0)
    reg.record_encounter(d, b, 2.0)
    reg.advance_clock(SimClock(2))
    reg.record_encounter(b, c, 2.0)
    reg.update_status(reg.issue_otc(CRED).code, a, Stage.INFECTED)
    # d's cascade traces b (met day 0, lookback 2) on the same day again
    notes = reg.update_status(reg.issue_otc(CRED).code, d, Stage.INFECTED)
    kinds = {(n.kind, n.recipient) for n in notes}
    assert (NotificationKind.CONTACT_AT_RISK, b) not in kinds
    assert (NotificationKind.STATUS_POSITIVE, d) in kinds


def test_infection_without_contacts_notifies_only_self():
    reg = make_registry()
    a = enroll(reg, "a")
    notes = reg.update_status(reg.issue_otc(CRED).code, a, Stage.INFECTED)
    assert [n.kind for n in notes] == [NotificationKind.STATUS_POSITIVE]
    assert reg.devices[a].quarantine is not None


def test_invalid_transition_keeps_code_fresh():
    reg = make_registry()
    a = enroll(reg, "a")
    reg.update_status(reg.issue_otc(CRED).code, a, Stage.INFECTED)
    otc = reg.issue_otc(CRED)
    with pytest.raises(TransitionError):
        reg.update_status(otc.code, a, Stage.SUSCEPTIBLE)
    assert not otc.consumed
    reg.update_status(otc.code, a, Stage.RECOVERED)  # same code, valid move
    assert otc.consumed
    assert reg.devices[a].stage is Stage.RECOVERED


def test_update_unknown_device_keeps_code_fresh():
    reg = make_registry()
    otc = reg.issue_otc(CRED)
    with pytest.raises(UnknownDeviceError):
        reg.update_status(otc.code, hash_identifier("ghost"), Stage.INFECTED)
    assert not otc.consumed


def test_registry_clock_is_forward_only():
    reg = make_registry()
    a = enroll(reg, "a")
    reg.advance_clock(SimClock(5))
    reg.update_status(reg.issue_otc(CRED).code, a, Stage.INFECTED)
    assert reg.clock.current_day == 5
    with pytest.raises(ValidationError):
        reg.advance_clock(SimClock(3))
    assert reg.clock.current_day == 5


def test_only_advance_clock_moves_the_clock():
    methods = (
        Registry.__init__, Registry.update_status, Registry.record_encounter,
        Registry.scan_handshake, Registry.status_checker_tick,
    )
    for method in methods:
        assert "clock" not in inspect.signature(method).parameters, method.__name__
    # the contact store seals the clock day when advance_clock leaves it, so
    # the clock cannot be set around it
    reg = make_registry()
    with pytest.raises(AttributeError):
        reg.clock = SimClock(3)
    assert reg.clock == SimClock(0)


class _DuckClock:
    """Has a SimClock's one field, but none of its checks."""

    def __init__(self, day):
        self.current_day = day


@pytest.mark.parametrize(
    "make_clock",
    [
        lambda: SimClock(float("nan")),
        lambda: SimClock(0.5),
        lambda: SimClock(2.5),
        lambda: SimClock("3"),
        lambda: 5,
        lambda: np.int64(5),
        lambda: _DuckClock(float("nan")),
        lambda: _DuckClock(0.5),
        lambda: _DuckClock(5),
    ],
    ids=["nan", "half", "fraction", "text", "int", "numpy-int", "duck-nan", "duck-half", "duck-5"],
)
def test_a_clock_that_is_not_a_whole_day_changes_no_state(make_clock):
    reg, a, b, c, d = cascade_registry()
    before = reg.state_digest()
    with pytest.raises(ValidationError):
        reg.advance_clock(make_clock())
    assert reg.clock == SimClock(2)
    assert reg.state_digest() == before
    # the clock day's contact still reads back, on its own day
    assert [(rec.peer, rec.day) for rec in reg.contact_list(c)] == [(b, 2)]
    assert reg.status_checker_tick(a) is None


def test_a_registry_on_numpy_days_replays_to_its_live_digest(tmp_path):
    reg = make_registry(policy=RegistryPolicy(quarantine_days=2**63))
    a, b, c = (enroll(reg, t) for t in "abc")
    for day in np.arange(1, 4, dtype=np.int64):
        reg.advance_clock(SimClock(day))
        reg.record_encounter(a, b, 2.0)
        reg.record_encounter(b, c, 1.0)
        reg.status_checker_tick(c)
    reg.update_status(reg.issue_otc(CRED).code, a, Stage.INFECTED)
    assert {type(event.day) for event in reg.events} == {int}
    assert reg.devices[b].quarantine == Quarantine(4, 4 + 2**63)
    path = tmp_path / "events.csv"
    write_event_log(reg.events, path)
    replayed = Registry.replay(read_event_log(path), [CRED], policy=reg.policy)
    assert replayed.state_digest() == reg.state_digest()


# -------------------------------------------------------------------------
# encounters
# -------------------------------------------------------------------------

def test_encounter_is_mutual():
    reg = make_registry()
    a, b = enroll(reg, "a"), enroll(reg, "b")
    reg.advance_clock(SimClock(1))
    reg.record_encounter(a, b, 3.5, 120.0)
    (rec_a,) = reg.contact_list(a).records
    (rec_b,) = reg.contact_list(b).records
    assert (rec_a.peer, rec_a.day, rec_a.distance, rec_a.duration) == (b, 1, 3.5, 120.0)
    assert (rec_b.peer, rec_b.day, rec_b.distance, rec_b.duration) == (a, 1, 3.5, 120.0)


def test_encounter_validation():
    reg = make_registry()
    a, b = enroll(reg, "a"), enroll(reg, "b")
    with pytest.raises(UnknownDeviceError):
        reg.record_encounter(a, hash_identifier("ghost"), 2.0)
    with pytest.raises(ValidationError):
        reg.record_encounter(a, a, 2.0)
    with pytest.raises(ValidationError):
        reg.record_encounter(a, b, 0.0)
    with pytest.raises(ValidationError):
        reg.record_encounter(a, b, reg.policy.bluetooth_range_m + 0.1)
    with pytest.raises(ValidationError):
        reg.record_encounter(a, b, 2.0, -1.0)
    assert reg.contact_list(a).records == ()


def test_non_finite_duration_is_rejected_and_logged():
    reg = make_registry()
    a, b = enroll(reg, "a"), enroll(reg, "b")
    digest = reg.state_digest()
    for duration in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="duration must be non-negative and finite"):
            reg.record_encounter(a, b, 2.0, duration)
        assert reg.events[-1].operation == "encounter_recorded"
        assert reg.events[-1].outcome == "ValidationError"
    assert reg.contact_list(a).records == ()
    assert reg.state_digest() == digest


def test_summed_duration_past_the_float_range_is_rejected_and_logged():
    reg = make_registry()
    a, b = enroll(reg, "a"), enroll(reg, "b")
    reg.record_encounter(a, b, 1.0, 1e308)
    digest = reg.state_digest()
    with pytest.raises(ValidationError, match="summed contact duration must stay finite"):
        reg.record_encounter(b, a, 0.5, 1e308)
    assert (reg.events[-1].operation, reg.events[-1].outcome) == ("encounter_recorded", "ValidationError")
    (record,) = reg.contact_list(a).records
    assert (record.distance, record.duration) == (1.0, 1e308)
    assert reg.state_digest() == digest


@pytest.mark.parametrize(
    "first, second",
    [([], ["b", "b"]), (["b"], ["c", "b"])],
    ids=["neighbour-listed-twice", "second-scan"],
)
def test_scan_summed_duration_past_the_float_range_books_nothing(first, second):
    reg = make_registry(policy=RegistryPolicy(encounter_duration_s=1e308))
    people = {tag: enroll(reg, tag) for tag in "sbc"}
    if first:
        reg.scan_handshake(people["s"], [(people[tag], 2.0) for tag in first])
    digest, notes = reg.state_digest(), list(reg.notifications)
    with pytest.raises(ValidationError, match="summed contact duration must stay finite"):
        reg.scan_handshake(people["s"], [(people[tag], 1.0) for tag in second])
    assert (reg.events[-1].operation, reg.events[-1].outcome) == ("scan", "ValidationError")
    assert reg.state_digest() == digest
    assert reg.notifications == notes
    assert len(reg.contact_list(people["s"])) == len(first)


def test_replay_rejects_a_summed_duration_past_the_float_range():
    reg = make_registry()
    a, b = enroll(reg, "a"), enroll(reg, "b")
    reg.record_encounter(a, b, 1.0, 1e308)
    events = reg.events + [reg.events[-1]]
    with pytest.raises(
        ValidationError,
        match=f"^event {len(events)}: cannot replay 'encounter_recorded' .*summed contact duration",
    ):
        Registry.replay(events, [CRED])


def test_booking_fresh_pairs_adds_at_most_one_tracked_object_per_device():
    # a booked pair is a slot index into two float columns, so the only
    # containers the collector tracks are each device's day store
    reg = make_registry(log_events=False)
    people = [enroll(reg, str(i)) for i in range(400)]
    pairs = list(itertools.islice(itertools.combinations(people, 2), 20_000))
    gc.collect()
    before = len(gc.get_objects())
    for left, right in pairs:
        reg.record_encounter(left, right, 2.0)
    assert len(gc.get_objects()) - before <= len(people)


def store_reads(reg: Registry, tmp_path) -> tuple:
    """Everything the registry reads from its contact store, for its devices
    and every day up to the clock's: graph bytes, digest, lists, peers,
    exposure categories."""
    write_contact_graph(reg.contact_graph, tmp_path / "graph.csv")
    days = range(reg.clock.current_day + 1)
    return (
        (tmp_path / "graph.csv").read_bytes(),
        reg.state_digest(),
        dict(reg.contact_graph),
        [[reg._peers_on(device, day) for day in days] for device in reg.devices],
        [[reg._categorize(handle, day) for day in days] for handle in range(len(reg.devices))],
    )


def test_sealing_a_day_changes_no_read(tmp_path):
    reg = make_registry(policy=RegistryPolicy(contact_window_days=3))
    people = [enroll(reg, str(i)) for i in range(7)]
    a, b, c = sorted(people[:3], key=lambda device: device.digest)

    def book_a_day():
        # a meets its peers against digest order, and one pair meets twice;
        # handles 3 and 4 meet no one, so each sealed day has owner-less
        # handles between two owners
        reg.record_encounter(a, c, 2.0, 10.0)
        reg.record_encounter(b, a, 3.0)
        reg.record_encounter(c, b, 1.0)
        reg.record_encounter(a, c, 1.5, 20.0)
        reg.record_encounter(people[5], people[6], 4.0)
        reg.record_encounter(people[6], a, 2.5)

    def advance_changes_no_read(day):
        before = store_reads(reg, tmp_path)
        reg.advance_clock(SimClock(day))
        after = store_reads(reg, tmp_path)
        assert after[:3] == before[:3]
        assert [peers[: len(before[3][0])] for peers in after[3]] == before[3]
        assert [cats[: len(before[4][0])] for cats in after[4]] == before[4]

    book_a_day()
    reg.advance_clock(SimClock(0))  # the same day: nothing is sealed, repeats still merge
    reg.record_encounter(people[5], people[6], 0.5, 1.0)
    assert not reg._sealed
    assert [(r.distance, r.duration) for r in reg.contact_list(people[5])] == [(0.5, 61.0)]
    reg.update_status(reg.issue_otc(CRED).code, people[6], Stage.INFECTED)
    advance_changes_no_read(2)
    assert list(reg._sealed) == [0]

    book_a_day()
    advance_changes_no_read(6)  # a jump of several days seals only day 2
    assert list(reg._sealed) == [0, 2]
    assert {r.day for device in people for r in reg.contact_list(device)} == {0, 2}

    # one pair, fewer rows than devices: the index lists only the day's
    # two owners, and the handles around them read nothing
    reg.record_encounter(people[4], people[1], 3.5)
    advance_changes_no_read(7)
    assert list(reg._sealed) == [0, 2, 6]
    assert [reg._sealed[day][0] is None for day in (0, 2, 6)] == [True, True, False]
    assert [len(reg._peers_on(device, 6)) for device in people] == [0, 1, 0, 0, 1, 0, 0]

    # a device registered after a day was sealed met no one on it
    late = enroll(reg, "late")
    handle = reg._handle[late.digest]
    assert reg.contact_list(late).records == ()
    assert all(reg._peers_on(late, day) == [] for day in range(8))
    assert not reg._met_infected(handle, 2)
    assert reg._categorize(handle, 2) == 3


def test_a_sealed_day_s_size_follows_its_contacts_not_the_devices():
    # a one-pair day among 10 000 devices: an index with an entry per
    # device would cost 10 000 bytes at least
    reg = make_registry(log_events=False)
    people = [enroll(reg, str(i)) for i in range(10_000)]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        reg.record_encounter(people[1], people[4000], 2.0)
        reg.advance_clock(SimClock(1))
        sealed = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert sealed < 3_000, sealed
    assert [r.peer for r in reg.contact_list(people[4000])] == [people[1]]


def test_a_sealed_day_holds_under_half_the_memory_its_booking_took():
    # At about 140 B a pair-day in dicts, booking 20 000 pairs takes about
    # 3 MB; sealed, a pair-day costs its two float columns and two rows of
    # a peer handle and a slot.  Both figures come from one process.
    reg = make_registry(log_events=False)
    people = [enroll(reg, str(i)) for i in range(400)]
    pairs = list(itertools.islice(itertools.combinations(people, 2), 20_000))
    record = reg.record_encounter
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for left, right in pairs:
            record(left, right, 2.0)
        booked = tracemalloc.get_traced_memory()[0] - start
        reg.advance_clock(SimClock(1))
        sealed = tracemalloc.get_traced_memory()[0] - start
        for day in range(2, 100):  # a day with no contact costs nothing
            reg.advance_clock(SimClock(day))
        empty_days = tracemalloc.get_traced_memory()[0] - start - sealed
    finally:
        tracemalloc.stop()
    assert sealed <= booked / 2, (booked, sealed)
    assert empty_days < 1_000, empty_days
    assert len(reg.contact_list(people[0])) == len(people) - 1


def test_a_contact_list_reads_only_the_days_its_device_met_someone():
    # 100 sealed days, two of them with a contact of a's: a's list reads
    # those two and the clock day, not every sealed day
    reg = make_registry(log_events=False)
    a, b, c, d = (enroll(reg, tag) for tag in "abcd")
    for day in range(100):
        reg.advance_clock(SimClock(day))
        reg.record_encounter(*((a, b) if day in (17, 60) else (c, d)), 2.0)
    reg.advance_clock(SimClock(100))
    assert len(reg._sealed) == 100
    with mock.patch.object(reg, "_pairs", wraps=reg._pairs) as pairs:
        records = reg.contact_list(a).records
    assert [(r.peer, r.day) for r in records] == [(b, 17), (b, 60)]
    assert pairs.call_count <= 3, pairs.call_args_list


def test_contact_list_requires_registration():
    reg = make_registry()
    with pytest.raises(UnknownDeviceError):
        reg.contact_list(hash_identifier("ghost"))


# -------------------------------------------------------------------------
# scans
# -------------------------------------------------------------------------

def scan_registry():
    """i infected; b1 met i, c1 met b1, d1 met nobody relevant; day 5."""
    reg = make_registry()
    s, i, b1, c1, d1 = (enroll(reg, t) for t in ("s", "i", "b1", "c1", "d1"))
    reg.advance_clock(SimClock(4))
    reg.record_encounter(i, b1, 2.0)
    reg.record_encounter(b1, c1, 2.0)
    reg.advance_clock(SimClock(5))
    reg.update_status(reg.issue_otc(CRED).code, i, Stage.INFECTED)
    return reg, s, i, b1, c1, d1


def test_scan_categories_drive_the_class():
    reg, s, i, b1, c1, d1 = scan_registry()
    # categories: b1 -> contact of infected, c1 -> contact of b1, d1 -> rest
    # score = (0.2 + 0.09 + 0.01) / (3 * 0.7) = 1/7 -> lowest band
    result = reg.scan_handshake(s, [(b1, 2.0), (c1, 2.0), (d1, 2.0)])
    assert result.neighbors_seen == 3
    assert result.risk_class is RiskClass.A
    assert result.notification.kind is NotificationKind.AREA_RISK
    assert result.notification.risk_class is RiskClass.A
    assert result.notification.recipient == s


def test_scan_with_infected_neighbor_scores_high():
    reg, s, i, b1, c1, d1 = scan_registry()
    # categories infected + contact: (0.7 + 0.2) / (2 * 0.7) = 0.642857 -> D
    result = reg.scan_handshake(s, [(i, 2.0), (b1, 2.0)])
    assert result.risk_class is RiskClass.D


def test_scan_records_mutual_contacts():
    reg, s, i, b1, c1, d1 = scan_registry()
    reg.scan_handshake(s, [(b1, 4.0)])
    assert any(r.peer == s and r.day == 5 for r in reg.contact_list(b1).records)
    assert any(r.peer == b1 and r.distance == 4.0 for r in reg.contact_list(s).records)


def test_scan_ignores_unregistered_neighbors():
    reg, s, i, b1, c1, d1 = scan_registry()
    ghost = hash_identifier("ghost")
    result = reg.scan_handshake(s, [(ghost, 2.0), (b1, 2.0)])
    assert result.neighbors_seen == 1
    assert all(r.peer != ghost for r in reg.contact_list(s).records)


def test_empty_scan_yields_no_data_result():
    reg = make_registry()
    s = enroll(reg, "s")
    assert reg.scan_handshake(s, []) == ScanResult(None, None, 0)
    assert reg.scan_handshake(s, [(hash_identifier("ghost"), 2.0)]) == ScanResult(None, None, 0)
    assert reg.notifications == []


def test_scan_distance_validated_before_anything_happens():
    reg, s, i, b1, c1, d1 = scan_registry()
    before = reg.contact_list(s).records
    with pytest.raises(ValidationError):
        reg.scan_handshake(s, [(b1, 2.0), (c1, 99.0)])
    assert reg.contact_list(s).records == before


def test_scan_requires_registered_scanner():
    reg = make_registry()
    with pytest.raises(UnknownDeviceError):
        reg.scan_handshake(hash_identifier("ghost"), [])


def test_repeat_scan_same_day_dedupes_notification():
    reg, s, i, b1, c1, d1 = scan_registry()
    first = reg.scan_handshake(s, [(b1, 2.0)])
    second = reg.scan_handshake(s, [(b1, 2.0)])
    assert first.notification is not None
    assert second.notification is None
    assert second.risk_class == first.risk_class


def test_scan_result_exposes_no_peer_status():
    # the scanner-visible surface carries a class and a count, nothing else
    names = {f.name for f in dataclasses.fields(ScanResult)}
    assert names == {"risk_class", "notification", "neighbors_seen"}


# -------------------------------------------------------------------------
# status checker
# -------------------------------------------------------------------------

def test_checker_reports_contact_at_risk():
    reg = make_registry()
    a, b = enroll(reg, "a"), enroll(reg, "b")
    reg.advance_clock(SimClock(4))
    reg.record_encounter(a, b, 2.0)
    assert reg.status_checker_tick(a) is None  # nothing to report yet
    reg.advance_clock(SimClock(5))
    reg.update_status(reg.issue_otc(CRED).code, b, Stage.INFECTED)
    note = reg.status_checker_tick(a)
    assert note is not None and note.kind is NotificationKind.CONTACT_AT_RISK
    assert reg.status_checker_tick(a) is None  # same day: suppressed


def test_checker_reports_stage_flip_once():
    reg = make_registry()
    a = enroll(reg, "a")
    reg.advance_clock(SimClock(3))
    reg.update_status(reg.issue_otc(CRED).code, a, Stage.INFECTED)
    reg.advance_clock(SimClock(4))
    note = reg.status_checker_tick(a)
    assert note is not None and note.kind is NotificationKind.STATUS_POSITIVE
    assert note.day == 4
    reg.advance_clock(SimClock(5))
    assert reg.status_checker_tick(a) is None


def test_a_notice_is_suppressed_only_on_its_own_day():
    reg = make_registry()
    a, b = enroll(reg, "a"), enroll(reg, "b")
    reg.record_encounter(a, b, 2.0)
    reg.update_status(reg.issue_otc(CRED).code, b, Stage.INFECTED)
    assert reg.status_checker_tick(a).kind is NotificationKind.CONTACT_AT_RISK
    assert reg.status_checker_tick(a) is None
    reg.advance_clock(SimClock(1))
    note = reg.status_checker_tick(a)
    assert (note.kind, note.day) == (NotificationKind.CONTACT_AT_RISK, 1)
    assert reg.status_checker_tick(a) is None
    for day in range(2, 52):
        reg.advance_clock(SimClock(day))
        assert reg.status_checker_tick(a) is not None
        assert reg.scan_handshake(a, [(b, 2.0)]).notification is not None
        assert reg.scan_handshake(a, [(b, 2.0)]).notification is None
    today = [n for n in reg.notifications if n.day == 51]
    assert len(today) == 2
    assert reg._notified == {(n.recipient.digest, n.kind.value) for n in today}


def test_checker_requires_registration():
    reg = make_registry()
    with pytest.raises(UnknownDeviceError):
        reg.status_checker_tick(hash_identifier("ghost"))


# -------------------------------------------------------------------------
# audit log and replay
# -------------------------------------------------------------------------

def busy_registry():
    """Exercise every operation, with failures deliberately interleaved."""
    reg = make_registry(seed=5)
    people = {}
    for tag in "abcdef":
        people[tag] = enroll(reg, tag)
    with pytest.raises(AuthorizationError):
        reg.issue_otc("wrong")
    spare = reg.issue_otc(CRED)
    with pytest.raises(AlreadyRegisteredError):
        reg.register_user(spare.code, "user-a")
    with pytest.raises(InvalidOtcError):
        reg.register_user("ff" * 16, "user-z")

    a, b, c, d, e, f = (people[t] for t in "abcdef")
    reg.advance_clock(SimClock(1))
    reg.record_encounter(a, b, 1.5)
    reg.advance_clock(SimClock(2))
    reg.record_encounter(b, c, 2.5, 300.0)
    with pytest.raises(ValidationError):
        reg.record_encounter(a, b, 50.0)
    reg.advance_clock(SimClock(3))
    reg.scan_handshake(d, [(a, 3.0), (e, 6.0)])
    reg.update_status(reg.issue_otc(CRED).code, a, Stage.INFECTED)
    used = reg.issue_otc(CRED)
    reg.advance_clock(SimClock(4))
    reg.update_status(used.code, b, Stage.INFECTED)
    with pytest.raises(OtcReplayError):
        reg.update_status(used.code, c, Stage.INFECTED)
    with pytest.raises(TransitionError):
        reg.update_status(reg.issue_otc(CRED).code, a, Stage.SUSCEPTIBLE)
    reg.advance_clock(SimClock(5))
    reg.scan_handshake(f, [(b, 2.0), (c, 4.0), (d, 8.0)])
    reg.status_checker_tick(c)
    reg.status_checker_tick(e)
    reg.advance_clock(SimClock(6))
    reg.update_status(reg.issue_otc(CRED).code, a, Stage.RECOVERED)
    return reg


def test_event_log_roundtrip(tmp_path):
    reg = busy_registry()
    path = tmp_path / "events.csv"
    write_event_log(reg.events, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(EVENT_LOG_HEADER)
    events = read_event_log(path)
    assert events == reg.events


def test_replay_reproduces_state_digest(tmp_path):
    reg = busy_registry()
    path = tmp_path / "events.csv"
    write_event_log(reg.events, path)
    replayed = Registry.replay(read_event_log(path), [CRED], policy=reg.policy)
    assert replayed.state_digest() == reg.state_digest()
    assert replayed.events == reg.events
    failures = [e for e in reg.events if e.outcome != "ok"]
    assert len(failures) == 6  # audit trail keeps every rejected operation


def test_replay_of_a_one_shot_iterator_keeps_every_event(tmp_path):
    reg = busy_registry()
    path = tmp_path / "events.csv"
    write_event_log(reg.events, path)
    for events in (iter(reg.events), (event for event in read_event_log(path))):
        replayed = Registry.replay(events, [CRED], policy=reg.policy)
        assert replayed.state_digest() == reg.state_digest()
        assert replayed.events == reg.events
    # the rebuilt registry logs into a list of its own, not the caller's
    replayed = Registry.replay(reg.events, [CRED], policy=reg.policy)
    assert replayed.events is not reg.events
    replayed.status_checker_tick(next(iter(replayed.devices)))
    assert len(replayed.events) == len(reg.events) + 1


def test_malformed_event_log_line(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("day,operation,actor_digest,outcome,details\nnot-a-day,x,y,ok,{}\n")
    with pytest.raises(ValidationError, match="line 2"):
        read_event_log(path)


def test_event_details_nested_too_deep_are_a_malformed_line(tmp_path):
    # json.loads raised a bare RecursionError here
    path = tmp_path / "events.csv"
    path.write_text(",".join(EVENT_LOG_HEADER) + '\n0,otc_issued,staff,ok,"' + "[" * 3000 + '"\n')
    with pytest.raises(ValidationError, match="line 2: malformed event row"):
        read_event_log(path)


def test_digest_reflects_state_changes():
    reg = make_registry()
    empty = reg.state_digest()
    a = enroll(reg, "a")
    after_enroll = reg.state_digest()
    assert after_enroll != empty
    b = enroll(reg, "b")
    reg.record_encounter(a, b, 2.0)
    assert reg.state_digest() != after_enroll
    # identical histories agree
    other = make_registry()
    x = enroll(other, "a")
    y = enroll(other, "b")
    other.record_encounter(x, y, 2.0)
    assert other.state_digest() == reg.state_digest()


def test_digest_and_graph_order_days_numerically(tmp_path):
    # Days 8-11 sort differently as numbers and as text ("10" < "8"), so
    # these pins break if either output orders its rows on formatted text.
    reg = make_registry(seed=3)
    a, b, c, d = (enroll(reg, tag) for tag in "abcd")
    for day in (8, 9, 10, 11):
        reg.advance_clock(SimClock(day))
        reg.record_encounter(a, b, 1.0 + day / 10, 30.0 * day)
        reg.record_encounter(c, a, 2.5, 45.0)
        if day % 2:
            reg.record_encounter(b, d, 0.5 * day, 60.0)
    path = tmp_path / "graph.csv"
    write_contact_graph(reg.contact_graph, path)
    assert reg.state_digest() == "e8f97f77964514340d580049acad227812e7863e3cfac7a43d753fc3871d5106"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "3d7ff12131f81ea3901adffa5a8eb8e52adec40c9f2431b9ab223d421f3459dd"
    )


# one day's encounters: (left, right, distance, whole-second duration) over 8 devices
day_encounters = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7), st.floats(0.1, 10.0), st.integers(0, 600))
    .filter(lambda e: e[0] != e[1]),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(st.lists(day_encounters, min_size=5, max_size=5), st.randoms(use_true_random=False),
       st.integers(0, 7))
def test_booking_order_never_reaches_an_output(tmp_path_factory, days, rnd, reporter):
    # the same encounters, shuffled within each day, booked into two
    # registries; whole-second durations keep every sum exact
    outputs = []
    for shuffled in (False, True):
        reg = make_registry()
        people = [enroll(reg, str(i)) for i in range(8)]
        for day, encounters in enumerate(days):
            reg.advance_clock(SimClock(day))
            if shuffled:
                encounters = rnd.sample(encounters, len(encounters))
            for left, right, distance, duration in encounters:
                reg.record_encounter(people[left], people[right], distance, float(duration))
        notes = reg.update_status(reg.issue_otc(CRED).code, people[reporter], Stage.INFECTED)
        path = tmp_path_factory.mktemp("graph") / "graph.csv"
        write_contact_graph(reg.contact_graph, path)
        lists = [reg.contact_graph[device] for device in people]
        outputs.append((path.read_bytes(), reg.state_digest(), lists, notes))
    assert outputs[0] == outputs[1]


def reference_graph_bytes(graph, path) -> bytes:
    """The contact graph as csv.writer wrote it, read through the ContactLists."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("owner_digest_hex", "peer_digest_hex", "day", "distance_m", "duration_s"))
        for owner in sorted(graph, key=lambda device: device.digest):
            writer.writerows(
                (owner.hex, rec.peer.hex, rec.day, rec.distance, rec.duration)
                for rec in graph[owner].records
            )
    return path.read_bytes()


def reference_state_lines(reg: Registry) -> list[str]:
    """state_digest's lines from the public views, its contact rows sorted as whole tuples."""
    lines = []
    for record in sorted(reg.devices.values(), key=lambda r: r.device.digest):
        q = record.quarantine
        q_text = f"{q.start_day},{q.end_day}" if q is not None else "-"
        lines.append(
            f"device|{record.device.hex}|{record.stage.value}|{q_text}|{record.registered_day}"
        )
    lines += [f"otc|{c}|{reg.otcs[c].issued_day}|{int(reg.otcs[c].consumed)}" for c in sorted(reg.otcs)]
    contacts = sorted(
        (owner.hex, rec.day, rec.peer.hex, rec.distance, rec.duration)
        for owner, contact_list in reg.contact_graph.items()
        for rec in contact_list.records
    )
    lines += [f"contact|{o}|{day}|{p}|{dist!r}|{dur!r}" for o, day, p, dist, dur in contacts]
    for note in sorted(reg.notifications, key=lambda n: (n.day, n.kind.value, n.recipient.hex)):
        cls = note.risk_class.name if note.risk_class is not None else "-"
        lines.append(f"notify|{note.day}|{note.kind.value}|{note.recipient.hex}|{cls}")
    return lines


def reference_digest(reg: Registry) -> str:
    return hashlib.sha256("\n".join(reference_state_lines(reg)).encode("utf-8")).hexdigest()


# (day, left, right, distance, duration, booked twice) over devices 0-4; device
# 5 never meets anyone, and days run past 9 so day 10 must sort after day 9
graph_encounters = st.lists(
    st.tuples(
        st.integers(0, 12), st.integers(0, 4), st.integers(0, 4), st.floats(0.1, 10.0),
        st.integers(0, 600) | st.floats(0.0, 600.0) | st.sampled_from([-0.0, 5e-324]),
        st.booleans(),
    ).filter(lambda e: e[1] != e[2]),
    max_size=40,
).map(sorted)
# how the plain mapping stores each field: ints and numpy scalars included
day_types = st.sampled_from([int, np.int64])
distance_types = st.sampled_from([float, np.float64, np.float32, math.ceil])
duration_types = st.sampled_from([float, np.float64, np.int64, int])


@settings(max_examples=80, deadline=None)
@given(graph_encounters, st.integers(0, 5), day_types, distance_types, duration_types)
def test_graph_writer_and_digest_match_their_references(
    tmp_path_factory, encounters, reporter, day_type, distance_type, duration_type
):
    tmp = tmp_path_factory.mktemp("graph")
    reg = make_registry()
    people = [enroll(reg, str(i)) for i in range(6)]
    for day, left, right, distance, duration, twice in encounters:
        reg.advance_clock(SimClock(day))
        for _ in range(1 + twice):
            reg.record_encounter(people[left], people[right], distance, duration)
    reg.advance_clock(SimClock(13))
    reg.update_status(reg.issue_otc(CRED).code, people[reporter], Stage.INFECTED)
    write_contact_graph(reg.contact_graph, tmp / "graph.csv")
    assert (tmp / "graph.csv").read_bytes() == reference_graph_bytes(reg.contact_graph, tmp / "ref.csv")
    assert reg.state_digest() == reference_digest(reg)
    # every stored float is the one booked, bit for bit: -0.0 and subnormals too
    booked: dict = {}
    for day, left, right, distance, duration, twice in encounters:
        for _ in range(1 + twice):
            for key in ((left, day, right), (right, day, left)):
                if key in booked:
                    closest, total = booked[key]
                    booked[key] = (min(closest, float(distance)), total + float(duration))
                else:
                    booked[key] = (float(distance), float(duration))
    stored = {
        (people.index(owner), r.day, people.index(r.peer)): (repr(r.distance), repr(r.duration))
        for owner in people for r in reg.contact_list(owner).records
    }
    assert stored == {key: tuple(map(repr, value)) for key, value in booked.items()}

    records: dict = {device: [] for device in people}
    for day, left, right, distance, duration, twice in encounters:
        for owner, peer in ((left, right), (right, left)):
            record = ContactRecord(
                people[peer], day_type(day), distance_type(distance), duration_type(duration)
            )
            records[people[owner]] += [record] * (1 + twice)
    plain = {owner: ContactList(owner, tuple(recs)) for owner, recs in records.items()}
    write_contact_graph(plain, tmp / "plain.csv")
    assert (tmp / "plain.csv").read_bytes() == reference_graph_bytes(plain, tmp / "ref.csv")


def registry_with_state_lines(count: int) -> Registry:
    """A registry whose state_digest hashes exactly `count` lines.

    Each enrolment adds a device and a consumed code (2 lines), each new
    pair-day adds a contact row per endpoint (2 lines), and a spare code
    makes up an odd count.
    """
    reg = make_registry(log_events=False)
    people = [enroll(reg, str(i)) for i in range(min(count // 2, 60))]
    pair_days = (
        (day, left, right)
        for day in itertools.count()
        for left in range(len(people))
        for right in range(left + 1, len(people))
    )
    for day, left, right in itertools.islice(pair_days, (count - 2 * len(people)) // 2):
        reg.advance_clock(SimClock(day))
        reg.record_encounter(people[left], people[right], 1.5, 30.0)
    if count % 2:
        reg.issue_otc(CRED)
    return reg


@pytest.mark.parametrize("count", [0, 1, 2, 4095, 4096, 4097, 8192])
def test_digest_matches_its_reference_at_any_line_count(count):
    reg = registry_with_state_lines(count)
    assert len(reference_state_lines(reg)) == count
    assert reg.state_digest() == reference_digest(reg)


def test_digest_of_an_empty_registry_hashes_no_bytes():
    reg = make_registry()
    assert reg.state_digest() == reference_digest(reg) == hashlib.sha256(b"").hexdigest()


def test_digest_memory_does_not_grow_with_the_contact_rows():
    # About 60 000 lines, nearly all contact rows, whose joined text is about
    # 5 MB.  Hashing them one line at a time holds about one line's text;
    # joining every line first held the lines, the text and its bytes.
    reg = registry_with_state_lines(60_000)
    text_bytes = len("\n".join(reference_state_lines(reg)).encode("utf-8"))
    bound = 2_000_000
    assert text_bytes > 2 * bound
    tracemalloc.start()
    try:
        reg.state_digest()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_logged_encounters_share_their_device_s_hex_text():
    reg = make_registry()
    a, b, c = (enroll(reg, tag) for tag in "abc")
    reg.record_encounter(a, b, 2.0)
    reg.record_encounter(a, c, 2.0)
    reg.record_encounter(c, b, 2.0)
    first, second, third = (e for e in reg.events if e.operation == "encounter_recorded")
    assert first.actor == a.hex
    assert first.actor is second.actor
    assert first.details["peer"] is third.details["peer"]


def test_logged_scan_neighbours_share_their_device_s_hex_text():
    reg = make_registry()
    scanner, b = enroll(reg, "s"), enroll(reg, "b")
    ghost = hash_identifier("ghost")
    reg.scan_handshake(scanner, [(b, 2.0), (scanner, 3.0), (ghost, 4.0)])
    (scan,) = (e for e in reg.events if e.operation == "scan")
    (b_text, _), (scanner_text, _), (ghost_text, _) = scan.details["neighbors"]
    assert b_text is reg._hexes[reg._handle[b.digest]]
    assert scanner_text is reg._hexes[reg._handle[scanner.digest]] is scan.actor
    assert ghost_text == ghost.hex


class _ReprFloat(float):
    """A float whose repr is not JSON's text for it."""

    def __repr__(self) -> str:
        return "not-json"


_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1e308, -1e308, 1e16, 0.1]
)
_detail_values = st.one_of(
    _finite,
    _finite.map(_ReprFloat),
    _finite.map(np.float64),
    st.integers(),
    st.booleans(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)
_log_texts = st.one_of(
    st.text("0123456789abcdef", min_size=1),
    st.text(),
    st.sampled_from(["", "ok", "é1", "a\"b", "a b", "a,b", "a\r\nb", "Ａ1"]),
)


def _events(values):
    """Random log events: encounters in and out of the one-line shape, and other rows."""
    details = st.fixed_dictionaries(
        {"distance": values, "duration": values, "peer": _log_texts}
    ) | st.dictionaries(st.sampled_from(["code", "peer", "status"]), values | _log_texts)
    return st.lists(
        st.builds(
            Event,
            st.integers(0, 10**20),
            st.sampled_from(["encounter_recorded", "scan", "status_updated"]),
            _log_texts,
            _log_texts,
            details,
        ),
        max_size=8,
    )


def _reference_log(events, path):
    """write_event_log without its one-line encounter path."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(EVENT_LOG_HEADER)
        for e in events:
            details = _DETAILS_JSON.encode(dict(e.details))
            writer.writerow((e.day, e.operation, e.actor, e.outcome, details))


_encounter = dict(distance=1.0, duration=2.0, peer="ab")


@settings(max_examples=300, deadline=None)
@given(_events(_detail_values))
@example([Event(0, "encounter_recorded", "ab01", "ok", dict(distance=-0.0, duration=5e-324, peer="cd"))])
@example([Event(1, "encounter_recorded", "ab", "ok", dict(distance=1e308, duration=1e16, peer="é1"))])
@example([Event(2, "encounter_recorded", "", "", dict(distance=0.5, duration=2.0, peer=""))])
@example([Event(3, "encounter_recorded", "a b", "ok", _encounter)])
@example([Event(3, "encounter_recorded", "ab", "ok", dict(_encounter, peer='a"b'))])
@example([Event(3, "encounter_recorded", "ab", "ok", dict(_encounter, peer="a\nb"))])
@example([Event(3, "encounter_recorded", "ab", "a,b", _encounter)])
@example([Event("1,2", "encounter_recorded", "ab", "ok", _encounter)])
@example([Event(3, "encounter_recorded", "ab", "ok", dict(_encounter, distance=_ReprFloat(1)))])
@example([Event(3, "encounter_recorded", "ab", "ok", dict(_encounter, distance=np.float64(1)))])
@example([Event(3, "encounter_recorded", "ab", "ok", dict(_encounter, duration=math.nan))])
@example([Event(3, "encounter_recorded", "ab", "ok", dict(_encounter, duration=5))])
@example([Event(3, "encounter_recorded", "ab", "ok", dict(_encounter, duration=True))])
@example([Event(3, "encounter_recorded", "ab", "ok", dict(_encounter, code=1))])
@example([Event(3, "encounter_recorded", "ab", "ok", dict(distance=1.0, duration=2.0))])
@example([Event(True, "encounter_recorded", "ab", "ok", _encounter)])
def test_event_log_lines_match_the_csv_writer(tmp_path_factory, events):
    # Whichever path a row takes, its bytes are csv.writer's over the encoder's text.
    folder = tmp_path_factory.mktemp("log")
    write_event_log(events, folder / "fast.csv")
    _reference_log(events, folder / "reference.csv")
    assert (folder / "fast.csv").read_bytes() == (folder / "reference.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(_events(_finite | _finite.map(_ReprFloat) | st.integers() | st.booleans()))
def test_read_event_log_returns_the_written_events(tmp_path_factory, events):
    path = tmp_path_factory.mktemp("log") / "events.csv"
    write_event_log(events, path)
    assert read_event_log(path) == events


def _decoded(tmp_path_factory, text):
    """read_event_log's details for one encounter row whose details column is `text`,
    and how many times it called json.loads."""
    path = tmp_path_factory.mktemp("log") / "events.csv"
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerow((0, "encounter_recorded", "ab", "ok", text))
    calls = []

    def loads(text, original=json.loads):
        calls.append(text)
        return original(text)

    with mock.patch.object(protocol.json, "loads", loads):
        (event,) = read_event_log(path)
    return event.details, len(calls)


def _same_dict(got, expected):
    """Equal values of the same types in the same key order; -0.0 is not 0.0."""
    assert list(got) == list(expected)
    assert [type(v) for v in got.values()] == [type(v) for v in expected.values()]
    assert repr(got) == repr(expected)


_json_numbers = st.from_regex(protocol._NUMBER, fullmatch=True) | st.sampled_from(
    ["1e400", "-1e400", "-0.0", "5e-324", "1E+5", "0.0e-0", "123456789012345678901234567890.5"]
)


@settings(max_examples=300, deadline=None)
@given(_json_numbers, _json_numbers, st.from_regex(r"[0-9A-Za-z]+", fullmatch=True))
def test_encounter_pattern_decodes_as_json_loads(tmp_path_factory, distance, duration, peer):
    text = f'{{"distance":{distance},"duration":{duration},"peer":"{peer}"}}'
    assert re.fullmatch(protocol._ENCOUNTER_DETAILS, text)
    details, loads_calls = _decoded(tmp_path_factory, text)
    assert loads_calls == 0
    _same_dict(details, json.loads(text))


@pytest.mark.parametrize(
    "text",
    [
        '{"distance":5,"duration":60.0,"peer":"ab"}',
        '{"distance":1.5,"duration":-0,"peer":"ab"}',
        '{"distance":01.5,"duration":60.0,"peer":"ab"}',
        '{"distance":.5,"duration":60.0,"peer":"ab"}',
        '{"distance":1.,"duration":60.0,"peer":"ab"}',
        '{"distance":Infinity,"duration":60.0,"peer":"ab"}',
        '{"distance":NaN,"duration":60.0,"peer":"ab"}',
        '{"distance": 1.5,"duration":60.0,"peer":"ab"}',
        '{"distance":1.5,"duration":60.0,"peer":"ab"} ',
        '{"distance":1.5,"duration":60.0,"peer":"\\u0061b"}',
        '{"distance":1.5,"duration":60.0,"peer":"é1"}',
        '{"distance":1.5,"duration":60.0,"peer":""}',
        '{"duration":60.0,"distance":1.5,"peer":"ab"}',
        '{"distance":1.5,"duration":60.0,"peer":"ab","code":"x"}',
        '{"distance":1.5,"duration":60.0}',
    ],
    ids=[
        "int", "int-zero", "leading-zero", "no-int-part", "no-fraction-digit", "infinity",
        "nan", "whitespace", "trailing-space", "escaped-peer", "non-ascii-peer", "empty-peer",
        "reordered", "extra-key", "missing-key",
    ],
)
def test_encounter_near_misses_fall_back_to_json_loads(tmp_path_factory, text):
    assert re.fullmatch(protocol._ENCOUNTER_DETAILS, text) is None
    try:
        expected = json.loads(text)
    except ValueError:
        with pytest.raises(ValidationError, match="line 1: malformed event row"):
            _decoded(tmp_path_factory, text)
        return
    details, loads_calls = _decoded(tmp_path_factory, text)
    assert loads_calls == 1
    _same_dict(details, expected)


def test_read_event_log_shares_repeated_text(tmp_path):
    reg = busy_registry()
    people = list(reg.devices)
    for left, right in itertools.permutations(people[:4], 2):
        reg.record_encounter(left, right, 2.0)
    path = tmp_path / "events.csv"
    write_event_log(reg.events, path)
    events = read_event_log(path)
    assert events == reg.events
    for field in ("operation", "actor", "outcome"):
        texts = [getattr(event, field) for event in events]
        assert len({id(text) for text in texts}) == len(set(texts))
    # one str object per distinct device text, whether it is read as an actor or a peer
    peers = [e.details["peer"] for e in events if e.operation == "encounter_recorded" and e.details]
    texts = peers + [event.actor for event in events]
    assert len(set(peers)) == 4
    assert len({id(text) for text in texts}) == len(set(texts))


def test_events_hold_no_instance_dict_and_copy_as_values():
    event = Event(3, "encounter_recorded", "ab", "ok", dict(_encounter))
    assert not hasattr(event, "__dict__")
    assert pickle.loads(pickle.dumps(event)) == event
    assert copy.deepcopy(event) == event
    assert dataclasses.replace(event, day=4) == Event(4, *dataclasses.astuple(event)[1:])
    with pytest.raises(dataclasses.FrozenInstanceError):
        event.day = 4


@pytest.fixture
def value_builds(monkeypatch):
    """Count the ContactList and ContactRecord constructions."""
    builds = {"ContactList": 0, "ContactRecord": 0}
    for cls in (ContactList, ContactRecord):

        def counting(self, original=cls.__post_init__, name=cls.__name__):
            builds[name] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    return builds


def test_writing_the_registry_graph_builds_no_contact_value(tmp_path, value_builds):
    reg = make_registry()
    people = [enroll(reg, str(i)) for i in range(20)]
    rnd = random.Random(5)
    for n in range(600):
        if n % 100 == 0:
            reg.advance_clock(SimClock(n // 100))
        left, right = rnd.sample(people, 2)
        reg.record_encounter(left, right, rnd.uniform(0.5, 9.5))
    value_builds.update(ContactList=0, ContactRecord=0)
    write_contact_graph(reg.contact_graph, tmp_path / "graph.csv")
    reg.state_digest()
    assert value_builds == {"ContactList": 0, "ContactRecord": 0}
    # the counters do see the lists the views build
    rows = len((tmp_path / "graph.csv").read_text().splitlines()) - 1
    assert sum(len(contacts) for contacts in reg.contact_graph.values()) == rows
    assert value_builds == {"ContactList": len(people), "ContactRecord": rows}


def test_a_cascade_builds_no_contact_value(value_builds):
    # the trace reads the contact store through the registry's peer reader,
    # under a policy that drops some of each index case's contacts as brief
    reg = Registry([CRED], seed=1, policy=RegistryPolicy(min_contact_duration_s=60.0))
    people = [enroll(reg, str(i)) for i in range(20)]
    rnd = random.Random(7)
    traced = 0
    for day in range(6):
        reg.advance_clock(SimClock(day))
        for _ in range(60):
            left, right = rnd.sample(people, 2)
            reg.record_encounter(left, right, rnd.uniform(0.5, 9.5), rnd.choice([30.0, 120.0]))
        if day >= 2:
            value_builds.update(ContactList=0, ContactRecord=0)
            notes = reg.update_status(reg.issue_otc(CRED).code, people[day], Stage.INFECTED)
            assert value_builds == {"ContactList": 0, "ContactRecord": 0}
            traced += sum(n.kind is NotificationKind.CONTACT_AT_RISK for n in notes)
    assert traced > 0


@pytest.mark.parametrize(
    "field, value",
    [
        ("quarantine_days", -2),
        ("quarantine_days", 2.5),
        ("contact_window_days", -1),
        ("contact_window_days", 1.5),
        ("bluetooth_range_m", 0.0),
        ("bluetooth_range_m", -1.0),
        ("bluetooth_range_m", float("inf")),
        ("bluetooth_range_m", float("nan")),
        ("min_contact_duration_s", -1.0),
        ("min_contact_duration_s", float("inf")),
        ("min_contact_duration_s", float("nan")),
        ("encounter_duration_s", -5.0),
        ("encounter_duration_s", float("inf")),
        ("encounter_duration_s", float("nan")),
        pytest.param("bluetooth_range_m", 10**400, id="bluetooth_range_m-10**400"),
        pytest.param("min_contact_duration_s", 10**400, id="min_contact_duration_s-10**400"),
        pytest.param("encounter_duration_s", 10**400, id="encounter_duration_s-10**400"),
    ],
)
def test_policy_validation_names_the_field(field, value):
    # A policy the registry cannot keep is refused up front; a -5 s scan
    # duration, say, would book a contact its own graph could not read back.
    with pytest.raises(ValidationError, match=f"invalid value for policy field '{field}'"):
        RegistryPolicy(**{field: value})


def test_min_duration_policy_filters_trace():
    policy = RegistryPolicy(min_contact_duration_s=60.0)
    reg = Registry([CRED], seed=1, policy=policy)
    a, b, c = (enroll(reg, t) for t in "abc")
    reg.advance_clock(SimClock(0))
    reg.record_encounter(a, b, 2.0, 30.0)   # too brief
    reg.record_encounter(a, c, 2.0, 120.0)  # long enough
    reg.advance_clock(SimClock(2))
    notes = reg.update_status(reg.issue_otc(CRED).code, a, Stage.INFECTED)
    at_risk = {n.recipient for n in notes if n.kind is NotificationKind.CONTACT_AT_RISK}
    assert at_risk == {c}


# Per day: encounters (left, right, distance, duration or None for the
# policy default) and at most one reporter index.
oracle_days = st.lists(
    st.tuples(
        st.lists(
            st.tuples(
                st.integers(0, 6),
                st.integers(0, 6),
                st.floats(0.1, 10.0),
                st.one_of(st.none(), st.sampled_from([0.0, 30.0, 60.0]), st.floats(0.0, 200.0)),
            ),
            max_size=12,
        ),
        st.one_of(st.none(), st.integers(0, 6)),
    ),
    min_size=1,
    max_size=7,
)


@settings(max_examples=60, deadline=None)
@given(oracle_days, st.sampled_from([0.0, 30.0, 60.0, 90.0]))
@example(
    # on day 0 the reporter meets 1, 4, 5 and 6 for exactly the minimum and 2
    # briefly; on day 2 peer 1 meets 3 briefly, and the reporter reports
    [([(0, 1, 1.0, 60.0), (0, 2, 1.0, 30.0), (0, 4, 1.0, 60.0), (0, 5, 1.0, 60.0),
       (0, 6, 1.0, 60.0)], None), ([], None), ([(1, 3, 1.0, 30.0)], 0)],
    60.0,
)
def test_cascade_agrees_with_trace_oracle(days, min_duration):
    # every report lands on a fresh day, so nothing is suppressed; the
    # oracle traces the full contact graph minus the reporter's brief contacts
    reg = Registry([CRED], seed=3, policy=RegistryPolicy(min_contact_duration_s=min_duration))
    people = [enroll(reg, str(i)) for i in range(7)]
    for day, (encounters, reporter) in enumerate(days):
        reg.advance_clock(SimClock(day))
        for left, right, distance, duration in encounters:
            if left != right:
                reg.record_encounter(people[left], people[right], distance, duration)
        if reporter is None or reg.devices[people[reporter]].stage is not Stage.SUSCEPTIBLE:
            continue
        case = people[reporter]
        graph = {dev: reg.contact_graph[dev] for dev in reg.contact_graph}
        # the public view reads the store and drops nothing, under any policy
        assert trace_co_contacts(case, reg.contact_graph, reg.clock) == trace_co_contacts(
            case, graph, reg.clock
        )
        graph[case] = ContactList(
            case, tuple(r for r in graph[case].records if r.duration >= min_duration)
        )
        expected = trace_co_contacts(case, graph, reg.clock)
        notes = reg.update_status(reg.issue_otc(CRED).code, case, Stage.INFECTED)
        window = Quarantine(day + 1, day + 1 + reg.policy.quarantine_days)
        quarantined = {dev for dev, rec in reg.devices.items() if rec.quarantine == window}
        assert quarantined == {case, *expected}
        at_risk = [n.recipient for n in notes if n.kind is NotificationKind.CONTACT_AT_RISK]
        assert at_risk == list(expected)


# -------------------------------------------------------------------------
# replay re-checks every ok event's preconditions
# -------------------------------------------------------------------------

def reported_registry():
    """a registered, then reported infected on day 1; events 1-4."""
    reg = make_registry()
    a = enroll(reg, "a")
    reg.advance_clock(SimClock(1))
    reg.update_status(reg.issue_otc(CRED).code, a, Stage.INFECTED)
    assert [e.operation for e in reg.events] == [
        "otc_issued", "user_registered", "otc_issued", "status_updated",
    ]
    return reg


FRESH = "ab" * 16  # a code issued by an appended otc_issued event


@pytest.mark.parametrize(
    "appended, day, error",
    [
        # a copy of the registration: its code is already consumed
        ([(1, {})], 1, "OtcReplayError"),
        # the same device registered again with a fresh code
        ([(0, {"code": FRESH}), (1, {"code": FRESH})], 1, "AlreadyRegisteredError"),
        # the report's consumed code reused to recover
        ([(3, {"status": "recovered"})], 1, "OtcReplayError"),
        # an illegal transition with a fresh code
        ([(0, {"code": FRESH}), (3, {"code": FRESH, "status": "susceptible"})], 1,
         "TransitionError"),
        # the report's code issued a second time, which would make it fresh again
        ([(2, {})], 1, "ValidationError: code already issued"),
        # a fresh code issued on day 0, after the day-1 report
        ([(0, {"code": FRESH})], 0, "dated day 0, but the log has reached day 1"),
    ],
    ids=[
        "duplicate-registration", "registered-device", "reused-code", "illegal-transition",
        "reissued-code", "backdated",
    ],
)
def test_replay_rejects_broken_preconditions(appended, day, error):
    # each appended event copies one of the log's events, dated `day`, with
    # some details replaced; the log's last event is dated day 1
    reg = reported_registry()
    extra = [
        dataclasses.replace(reg.events[i], day=day, details={**reg.events[i].details, **changes})
        for i, changes in appended
    ]
    position = len(reg.events) + len(extra)
    with pytest.raises(ValidationError, match=f"^event {position}: cannot replay .*{error}"):
        Registry.replay(reg.events + extra, [CRED])


@pytest.mark.parametrize(
    "actor, changes, error",
    [
        ("ghost", {}, ""),
        ("b", {}, ""),
        ("a", {"distance": 50.0}, "distance 50.0 m outside"),
        ("a", {"distance": -1.0}, "distance -1.0 m outside"),
        ("a", {"distance": float("nan")}, "distance nan m outside"),
        ("a", {"duration": -5.0}, "duration must be non-negative"),
    ],
    ids=[
        "unregistered", "self-meeting", "far", "negative-distance", "nan-distance",
        "negative-duration",
    ],
)
def test_replay_rejects_broken_encounter(actor, changes, error):
    reg = make_registry()
    people = {"a": enroll(reg, "a"), "b": enroll(reg, "b"), "ghost": hash_identifier("ghost")}
    reg.record_encounter(people["a"], people["b"], 2.0)
    last = reg.events[-1]
    tampered = dataclasses.replace(
        last, actor=people[actor].hex, details={**last.details, **changes}
    )
    events = reg.events[:-1] + [tampered]
    with pytest.raises(ValidationError, match=f"^event {len(events)}: cannot replay .*{error}"):
        Registry.replay(events, [CRED])


def test_replay_parses_each_id_once(monkeypatch):
    reg = make_registry()
    people = [enroll(reg, str(n)) for n in range(4)]
    rnd = random.Random(5)
    for n in range(200):
        left, right = rnd.sample(people, 2)
        reg.advance_clock(SimClock(n // 50))
        reg.record_encounter(left, right, rnd.uniform(0.5, 9.5))
        reg.scan_handshake(left, [(p, 3.0) for p in people])
        reg.status_checker_tick(right)
    calls = []
    from_hex = DeviceId.from_hex.__func__

    def counting_from_hex(cls, text):
        calls.append(text)
        return from_hex(cls, text)

    monkeypatch.setattr(DeviceId, "from_hex", classmethod(counting_from_hex))
    assert Registry.replay(reg.events, [CRED]).state_digest() == reg.state_digest()
    assert len(calls) <= len(people)

    # a malformed id still fails at its own event, however often it recurs
    bad = dataclasses.replace(reg.events[-1], actor="zz" + people[0].hex[2:])
    events = reg.events + [bad, bad]
    with pytest.raises(
        ValidationError, match=f"^event {len(events) - 1}: cannot replay 'status_check' "
        r"\(ValidationError: not a hex digest"
    ):
        Registry.replay(events, [CRED])


@pytest.mark.parametrize(
    "request_kind", ["short-weights", "int-distance", "numpy-distance"]
)
def test_replay_matches_live_on_edge_inputs(tmp_path, request_kind):
    # requests whose live handling once differed from their replay: a scan
    # whose weights cannot score a category-D neighbour, and encounter
    # distances that are not Python floats
    reg = make_registry()
    s, n = enroll(reg, "s"), enroll(reg, "n")
    if request_kind == "short-weights":
        with pytest.raises(ValidationError, match="category weights"):
            reg.scan_handshake(s, [(n, 3.0)], WeightConfig((0.7, 0.2)))
        assert reg.contact_list(s).records == ()
        assert reg.events[-1].outcome == "ValidationError"
    else:
        distance = 2 if request_kind == "int-distance" else np.float64(2.5)
        reg.advance_clock(SimClock(1))
        reg.record_encounter(s, n, distance)
        assert type(reg.contact_list(s).records[0].distance) is float
    path = tmp_path / "events.csv"
    write_event_log(reg.events, path)
    replayed = Registry.replay(read_event_log(path), [CRED])
    assert replayed.state_digest() == reg.state_digest()
    assert replayed.events == reg.events
    for registry in (reg, replayed):  # the rebuilt registry logs what follows
        registry.status_checker_tick(s)
    assert replayed.events == reg.events


# -------------------------------------------------------------------------
# replay invariant over random request sequences
# -------------------------------------------------------------------------

POOL = [f"machine-{i}" for i in range(5)]  # raw ids; any of them may be unregistered
UNKNOWN = "ff" * 16  # a code that is never issued

policies = st.builds(
    RegistryPolicy,
    quarantine_days=st.integers(0, 5),
    contact_window_days=st.integers(0, 3),
    bluetooth_range_m=st.sampled_from([5.0, 10.0]),
    min_contact_duration_s=st.sampled_from([0.0, 60.0]),
    encounter_duration_s=st.sampled_from([0.0, 60.0]),
)
# in range for some policies and out of it for others, plus non-float types
distances = st.one_of(
    st.floats(0.1, 10.0),
    st.sampled_from([0.0, -1.0, 7.5, 50.0, float("nan")]),
    st.integers(1, 12),
    st.floats(0.1, 10.0).map(np.float64),
)
weight_sets = st.sampled_from(
    [DEFAULT_WEIGHTS, WeightConfig((0.7, 0.2)), WeightConfig((0.5, 0.4, 0.3, 0.2, 0.1))]
)


def reference_category(reg: Registry, device: DeviceId, day: int) -> int:
    """A neighbour's scan category by a walk over the public views alone.

    A: infected; B: met an infected device in [day - window, day]; C: met a
    B device in that window; D: anything else.  Mirrors the registry's
    exposure rule one record at a time.
    """
    first_day = day - reg.policy.contact_window_days

    def infected(d):
        return reg.devices[d].stage is Stage.INFECTED

    def window_peers(d):
        return [r.peer for r in reg.contact_list(d).records if first_day <= r.day <= day]

    def met_infected(d):
        return any(infected(peer) for peer in window_peers(d))

    if infected(device):
        return 0
    if met_infected(device):
        return 1
    if any(peer != device and met_infected(peer) for peer in window_peers(device)):
        return 2
    return 3


_NEXT_STAGE = {Stage.SUSCEPTIBLE: Stage.INFECTED, Stage.INFECTED: Stage.RECOVERED}


@settings(max_examples=150, deadline=None)
@given(
    window=st.integers(0, 3),
    stages=st.lists(st.sampled_from(Stage), min_size=6, max_size=6),
    # (day, a, b): a meets b; a == b advances a's stage instead
    events=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 5), st.integers(0, 5)), max_size=30),
)
def test_categories_match_the_reference_on_random_graphs(window, stages, events):
    reg = Registry([CRED], policy=RegistryPolicy(contact_window_days=window))
    devices = [
        reg.register_user(reg.issue_otc(CRED).code, f"oracle-{i}", stage).device
        for i, stage in enumerate(stages)
    ]

    def check():
        day = reg.clock.current_day
        for handle, device in enumerate(devices):
            assert reg._categorize(handle, day) == reference_category(reg, device, day)

    for day, a, b in sorted(events, key=lambda event: event[0]):
        reg.advance_clock(SimClock(day))
        if a != b:
            reg.record_encounter(devices[a], devices[b], 1.0)
        else:
            stage = reg.devices[devices[a]].stage
            if stage in _NEXT_STAGE:
                reg.update_status(reg.issue_otc(CRED).code, devices[a], _NEXT_STAGE[stage])
        check()
    last_day = reg.clock.current_day
    for day in range(last_day + 1, last_day + window + 2):  # contacts age out of the window
        reg.advance_clock(SimClock(day))
        check()


class RegistryMachine(RuleBasedStateMachine):
    """Valid and invalid requests in any order; replay must always agree."""

    @initialize(policy=policies, seed=st.integers(0, 3))
    def start(self, policy, seed):
        self.registry = Registry([CRED], seed=seed, policy=policy)
        self.codes = [UNKNOWN]
        self.windows: dict = {}
        # the contact store's model: (owner, day, peer) -> (closest
        # distance, durations summed in arrival order), both directions
        self.contacts: dict = {}
        for raw in POOL[:3]:  # the last two start unregistered
            code = self.registry.issue_otc(CRED).code
            self.registry.register_user(code, raw)
            self.codes.append(code)

    def device(self, index):
        return hash_identifier(POOL[index])

    def attempt(self, call, *args) -> bool:
        try:
            call(*args)
        except ProxTraceError:
            return False  # a rejected request must leave state and log consistent too
        return True

    def book(self, left, right, distance, duration):
        day = self.registry.clock.current_day
        for key in ((left, day, right), (right, day, left)):
            if key in self.contacts:
                closest, total = self.contacts[key]
                self.contacts[key] = (min(closest, distance), total + duration)
            else:
                self.contacts[key] = (distance, duration)

    @rule(forged=st.booleans())
    def issue(self, forged):
        if forged:
            with pytest.raises(AuthorizationError):
                self.registry.issue_otc("forged")
        else:
            self.codes.append(self.registry.issue_otc(CRED).code)

    @rule(data=st.data(), person=st.integers(0, 4), stage=st.sampled_from(Stage))
    def register(self, data, person, stage):
        code = data.draw(st.sampled_from(self.codes))
        self.attempt(self.registry.register_user, code, POOL[person], stage)

    @rule(data=st.data(), person=st.integers(0, 4), stage=st.sampled_from(Stage))
    def update(self, data, person, stage):
        code = data.draw(st.sampled_from(self.codes))
        self.attempt(self.registry.update_status, code, self.device(person), stage)

    @rule(person=st.integers(0, 4), stage=st.sampled_from(Stage))
    def report(self, person, stage):
        # a fresh code, so stage changes happen often enough to give
        # neighbours every exposure category
        code = self.registry.issue_otc(CRED).code
        self.codes.append(code)
        self.attempt(self.registry.update_status, code, self.device(person), stage)

    @rule(
        left=st.integers(0, 4), right=st.integers(0, 4), distance=distances,
        duration=st.one_of(st.none(), st.sampled_from([0.0, 30.0, 90.0, -5.0])),
    )
    def encounter(self, left, right, distance, duration):
        left, right = self.device(left), self.device(right)
        if self.attempt(self.registry.record_encounter, left, right, distance, duration):
            if duration is None:
                duration = self.registry.policy.encounter_duration_s
            self.book(left, right, float(distance), float(duration))

    @rule(
        scanner=st.integers(0, 4),
        neighbors=st.lists(st.tuples(st.integers(0, 4), distances), max_size=4),
        weights=weight_sets,
    )
    def scan(self, scanner, neighbors, weights):
        neighbors = [(self.device(i), distance) for i, distance in neighbors]
        scanner = self.device(scanner)
        if self.attempt(self.registry.scan_handshake, scanner, neighbors, weights):
            for peer, distance in neighbors:
                if peer in self.registry.devices and peer != scanner:
                    duration = self.registry.policy.encounter_duration_s
                    self.book(scanner, peer, float(distance), duration)

    @rule(person=st.integers(0, 4))
    def check(self, person):
        self.attempt(self.registry.status_checker_tick, self.device(person))

    @rule(days=st.integers(1, 2))
    def next_day(self, days):
        self.registry.advance_clock(SimClock(self.registry.clock.current_day + days))

    @invariant()
    def replay_agrees(self):
        reg = self.registry
        replayed = Registry.replay(reg.events, [CRED], policy=reg.policy)
        assert replayed.state_digest() == reg.state_digest()
        assert replayed.events == reg.events

    @invariant()
    def categories_match_the_reference(self):
        reg = self.registry
        day = reg.clock.current_day
        for device in reg.devices:
            handle = reg._handle[device.digest]
            assert reg._categorize(handle, day) == reference_category(reg, device, day)

    @invariant()
    def contacts_match_the_model(self):
        reg = self.registry
        for device in reg.devices:
            records = tuple(
                ContactRecord(peer, day, closest, total)
                for (owner, day, peer), (closest, total) in self.contacts.items()
                if owner == device
            )
            assert reg.contact_list(device) == ContactList(device, records)

    @invariant()
    def contacts_are_mutual(self):
        graph = self.registry.contact_graph
        seen = {
            (owner, r.peer, r.day, r.distance, r.duration)
            for owner in graph for r in graph[owner].records
        }
        assert seen == {(peer, owner, day, d, t) for owner, peer, day, d, t in seen}

    @invariant()
    def quarantine_only_extends(self):
        for device, record in self.registry.devices.items():
            window = record.quarantine
            before = self.windows.get(device)
            if before is not None:
                assert window is not None and window.end_day >= before.end_day
            self.windows[device] = window


TestRegistryMachine = RegistryMachine.TestCase
TestRegistryMachine.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)


# -------------------------------------------------------------------------
# one failure point per operation
# -------------------------------------------------------------------------

HUGE = 10**400  # an int too large for any float
OVERFLOWING_WEIGHTS = WeightConfig((1e308, 1.0, 0.5, 0.1))

people = st.integers(0, 4)  # an index into POOL
code_picks = st.integers(0, 7)  # an index into the codes so far, the never-issued one first
registry_calls = st.one_of(
    st.tuples(st.just("issue"), st.sampled_from([CRED, "forged"])),
    # person None registers the empty raw id
    st.tuples(
        st.just("register"), code_picks, people | st.none(), st.sampled_from([*Stage, "infected"])
    ),
    st.tuples(st.just("update"), code_picks, people, st.sampled_from([*Stage, "infected"])),
    st.tuples(
        st.just("encounter"), people, people, distances | st.just(HUGE),
        st.sampled_from([None, 0.0, 30.0, 1e308, -5.0, math.inf, math.nan, HUGE]),
    ),
    st.tuples(
        st.just("scan"), people,
        st.lists(st.tuples(people, distances | st.just(HUGE)), max_size=4),
        weight_sets | st.just(OVERFLOWING_WEIGHTS),
    ),
    st.tuples(st.just("check"), people),
    st.tuples(st.just("advance"), st.integers(0, 2)),
)
policy_fields = st.fixed_dictionaries({}, optional={
    "bluetooth_range_m": st.sampled_from([5.0, 10.0, HUGE]),
    "min_contact_duration_s": st.sampled_from([0.0, 60.0, HUGE]),
    "encounter_duration_s": st.sampled_from([0.0, 60.0, 1e308, HUGE]),
})


POOL_IDS = [hash_identifier(raw) for raw in POOL]


def apply_call(reg: Registry, codes: list[str], call: tuple) -> None:
    kind, *args = call
    if kind == "issue":
        codes.append(reg.issue_otc(args[0]).code)
    elif kind == "register":
        code, person, stage = args
        reg.register_user(codes[code % len(codes)], "" if person is None else POOL[person], stage)
    elif kind == "update":
        code, person, stage = args
        reg.update_status(codes[code % len(codes)], POOL_IDS[person], stage)
    elif kind == "encounter":
        left, right, distance, duration = args
        reg.record_encounter(POOL_IDS[left], POOL_IDS[right], distance, duration)
    elif kind == "scan":
        scanner, neighbors, weights = args
        reg.scan_handshake(POOL_IDS[scanner], [(POOL_IDS[p], d) for p, d in neighbors], weights)
    else:
        reg.status_checker_tick(POOL_IDS[args[0]])


@settings(max_examples=200, deadline=None)
@given(policy_fields, st.lists(registry_calls, max_size=15))
# a score past the float range, found after both contacts were booked
@example({}, [("scan", 0, [(1, 10.0), (2, 9.0)], OVERFLOWING_WEIGHTS)])
# a duration float() cannot convert
@example({}, [("encounter", 0, 1, 2.0, HUGE)])
# a policy duration too large for the float columns
@example({"encounter_duration_s": HUGE}, [("scan", 0, [(1, 2.0)], DEFAULT_WEIGHTS)])
# an initial stage that is not a Stage, found after the device was registered
@example({}, [("issue", CRED), ("register", 4, 3, "infected")])
# a new stage that is not a Stage, for a registered device and a fresh code
@example({}, [("issue", CRED), ("update", 4, 0, "infected")])
def test_a_call_either_fails_untouched_or_succeeds_with_one_row(fields, calls):
    if HUGE in fields.values():
        with pytest.raises(ValidationError, match="invalid value for policy field"):
            RegistryPolicy(**fields)
        return
    reg = Registry([CRED], seed=1, policy=RegistryPolicy(**fields))
    codes = [UNKNOWN]
    for raw in POOL[:3]:  # the last two start unregistered
        codes.append(reg.issue_otc(CRED).code)
        reg.register_user(codes[-1], raw)
    for call in calls:
        if call[0] == "advance":
            reg.advance_clock(SimClock(reg.clock.current_day + call[1]))
            continue
        digest, logged = reg.state_digest(), len(reg.events)
        try:
            apply_call(reg, codes, call)
        except ProxTraceError as exc:
            assert reg.state_digest() == digest
            if call[0] == "register" and call[2] is None:
                # The one exception: hash_identifier refuses an empty raw id
                # before the registry is reached, so nothing is logged.
                assert len(reg.events) == logged
            else:
                assert len(reg.events) == logged + 1
                assert reg.events[-1].outcome == type(exc).__name__
        else:
            assert len(reg.events) == logged + 1
            assert reg.events[-1].outcome == "ok"
    replayed = Registry.replay(reg.events, [CRED], policy=reg.policy)
    assert replayed.state_digest() == reg.state_digest()


# -------------------------------------------------------------------------
# code linearity model
# -------------------------------------------------------------------------

def test_code_consumption_is_linear():
    reg = make_registry(seed=11)
    rnd = random.Random(23)
    fresh: list[str] = []
    consumed: set[str] = set()
    stages: dict = {}
    serial = 0

    for _ in range(1500):
        op = rnd.randrange(7)
        if op == 0 or not (fresh or consumed):
            fresh.append(reg.issue_otc(CRED).code)
        elif op == 1 and fresh:
            code = fresh.pop(rnd.randrange(len(fresh)))
            record = reg.register_user(code, f"model-user-{serial}")
            serial += 1
            consumed.add(code)
            stages[record.device] = Stage.SUSCEPTIBLE
        elif op == 2 and consumed:
            with pytest.raises(OtcReplayError):
                reg.register_user(rnd.choice(sorted(consumed)), "model-user-x")
        elif op == 3:
            with pytest.raises(InvalidOtcError):
                reg.register_user(f"{rnd.getrandbits(128):032x}", "model-user-x")
        elif op == 4 and fresh and stages:
            code = rnd.choice(fresh)
            device = rnd.choice(sorted(stages, key=lambda d: d.hex))
            stage = stages[device]
            target = Stage.INFECTED if stage is Stage.SUSCEPTIBLE else Stage.RECOVERED
            if stage is Stage.RECOVERED:
                with pytest.raises(TransitionError):
                    reg.update_status(code, device, Stage.INFECTED)
            else:
                reg.update_status(code, device, target)
                fresh.remove(code)
                consumed.add(code)
                stages[device] = target
        elif op == 5 and fresh and stages:
            # invalid move with a fresh code: must stay fresh
            code = rnd.choice(fresh)
            device = rnd.choice(sorted(stages, key=lambda d: d.hex))
            bad = Stage.SUSCEPTIBLE if stages[device] is not Stage.SUSCEPTIBLE else Stage.RECOVERED
            with pytest.raises(TransitionError):
                reg.update_status(code, device, bad)
        elif op == 6 and consumed and stages:
            device = rnd.choice(sorted(stages, key=lambda d: d.hex))
            with pytest.raises(OtcReplayError):
                reg.update_status(rnd.choice(sorted(consumed)), device, Stage.INFECTED)

        assert {c for c, o in reg.otcs.items() if o.consumed} == consumed
        assert all(not reg.otcs[c].consumed for c in fresh)

    assert consumed
    last = reg.issue_otc(CRED)
    assert not last.consumed
