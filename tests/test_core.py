"""Core type behavior: identities, health transitions, contact lists, CSV."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxtrace.core import (
    DIGEST_BYTES,
    ContactList,
    ContactRecord,
    DeviceId,
    Quarantine,
    SimClock,
    Stage,
    hash_identifier,
    read_contact_graph,
    validate_transition,
    write_contact_graph,
)
from proxtrace.errors import TransitionError, ValidationError

from conftest import bad_graph_cases, contacts, device, write_graph_csv


# -------------------------------------------------------------------------
# device identity
# -------------------------------------------------------------------------

def test_hash_is_deterministic_and_fixed_width():
    a = hash_identifier("bluetooth-mac-00:11:22")
    b = hash_identifier("bluetooth-mac-00:11:22")
    assert a == b
    assert len(a.digest) == DIGEST_BYTES
    assert a.hex == a.digest.hex()


def test_hash_distinguishes_inputs():
    assert hash_identifier("device-a") != hash_identifier("device-b")


def test_hash_rejects_empty():
    with pytest.raises(ValidationError):
        hash_identifier("")
    with pytest.raises(ValidationError):
        hash_identifier(b"")


def test_hash_collision_scan():
    # 10k random identifiers, all distinct digests.
    rnd = random.Random(0)
    raw = {rnd.randbytes(12) for _ in range(10_000)}
    digests = {hash_identifier(r).digest for r in raw}
    assert len(digests) == len(raw)


def test_hash_is_truncated_sha256():
    expected = hashlib.sha256(b"same-input").digest()[:DIGEST_BYTES]
    assert hash_identifier("same-input").digest == expected
    assert hash_identifier(b"same-input").digest == expected


def test_device_id_roundtrips_hex_and_compares_by_digest():
    a = hash_identifier("roundtrip")
    assert DeviceId.from_hex(a.hex) == a
    # equal digests behave identically as mapping keys
    lookup = {a: "row"}
    assert lookup[DeviceId.from_hex(a.hex)] == "row"


def test_device_id_width_enforced():
    with pytest.raises(ValidationError):
        DeviceId(b"short")


# -------------------------------------------------------------------------
# health stages
# -------------------------------------------------------------------------

def test_stage_chain_is_forward_only():
    validate_transition(Stage.SUSCEPTIBLE, Stage.INFECTED)
    validate_transition(Stage.INFECTED, Stage.RECOVERED)
    for bad in [
        (Stage.SUSCEPTIBLE, Stage.RECOVERED),
        (Stage.INFECTED, Stage.SUSCEPTIBLE),
        (Stage.RECOVERED, Stage.INFECTED),
        (Stage.RECOVERED, Stage.SUSCEPTIBLE),
        (Stage.SUSCEPTIBLE, Stage.SUSCEPTIBLE),
    ]:
        with pytest.raises(TransitionError):
            validate_transition(*bad)


def test_quarantine_window_semantics():
    q = Quarantine(5, 15)
    assert q.covers(5) and q.covers(14)
    assert not q.covers(4) and not q.covers(15)
    with pytest.raises(ValidationError):
        Quarantine(3, 3)


# -------------------------------------------------------------------------
# contact records and lists
# -------------------------------------------------------------------------

def test_contact_record_validation():
    peer = device("peer")
    with pytest.raises(ValidationError):
        ContactRecord(peer, day=-1, distance=1.0, duration=0.0)
    with pytest.raises(ValidationError):
        ContactRecord(peer, day=0, distance=0.0, duration=0.0)  # zero distance rejected
    with pytest.raises(ValidationError):
        ContactRecord(peer, day=0, distance=1.0, duration=-1.0)
    inf, nan = float("inf"), float("nan")
    for distance, duration in ((inf, 0.0), (nan, 0.0), (1.0, inf), (1.0, nan)):
        with pytest.raises(ValidationError, match="finite"):
            ContactRecord(peer, day=0, distance=distance, duration=duration)


def test_same_day_contacts_merge():
    owner, peer = device("o"), device("p")
    lst = contacts(owner, (peer, 4, 2.0, 60.0), (peer, 4, 1.5, 30.0))
    assert len(lst) == 1
    rec = lst.records[0]
    assert rec.distance == 1.5  # min of the two
    assert rec.duration == 90.0  # summed


def test_distinct_days_do_not_merge():
    owner, peer = device("o"), device("p")
    lst = contacts(owner, (peer, 1, 2.0, 10.0), (peer, 2, 2.0, 10.0))
    assert len(lst) == 2


def test_records_sorted_by_day_then_peer():
    owner = device("o")
    peers = sorted([device(i) for i in range(4)])
    lst = contacts(
        owner,
        (peers[3], 2, 1.0, 1.0),
        (peers[0], 2, 1.0, 1.0),
        (peers[1], 1, 1.0, 1.0),
        (peers[2], 1, 1.0, 1.0),
    )
    keys = [(rec.day, rec.peer) for rec in lst]
    assert keys == sorted(keys)


def test_merge_invariant_under_random_insertion():
    # no matter the insertion order, at most one record per (peer, day)
    rnd = random.Random(7)
    owner = device("owner")
    peers = [device(i) for i in range(5)]
    records = tuple(
        ContactRecord(
            peer=rnd.choice(peers),
            day=rnd.randrange(10),
            distance=rnd.uniform(0.1, 10.0),
            duration=rnd.uniform(0.0, 600.0),
        )
        for _ in range(300)
    )
    lst = ContactList(owner, records)
    seen = [(rec.day, rec.peer) for rec in lst]
    assert len(seen) == len(set(seen))


def test_on_day_and_since_filters():
    owner, a, b = device("o"), device("a"), device("b")
    lst = contacts(owner, (a, 1, 1.0, 1.0), (b, 3, 1.0, 1.0), (a, 5, 1.0, 1.0))
    assert [rec.peer for rec in lst.on_day(3)] == [b]
    assert [rec.peer for rec in lst.on_day(5)] == [a]
    assert lst.on_day(4) == ()


# -------------------------------------------------------------------------
# clock
# -------------------------------------------------------------------------

def test_clock_is_monotonic():
    assert SimClock().current_day == 0
    with pytest.raises(ValidationError):
        SimClock(-1)


@pytest.mark.parametrize(
    "day",
    [2.5, 3.0, float("nan"), float("inf"), "3", None, np.float64(3.0), np.int64(-1)],
    ids=["fraction", "whole-float", "nan", "inf", "text", "none", "numpy-float", "numpy-negative"],
)
def test_a_clock_day_is_a_non_negative_integer(day):
    with pytest.raises(ValidationError):
        SimClock(day)


def test_a_clock_stores_a_numpy_day_as_int():
    clock = SimClock(np.int64(5))
    assert type(clock.current_day) is int
    assert clock == SimClock(5)


# -------------------------------------------------------------------------
# CSV round trip
# -------------------------------------------------------------------------

def test_contact_graph_csv_roundtrip(tmp_path):
    a, b, c = device("a"), device("b"), device("c")
    graph = {
        a: contacts(a, (b, 2, 1.25, 120.0), (c, 3, 9.5, 30.0)),
        b: contacts(b, (a, 2, 1.25, 120.0)),
    }
    path = tmp_path / "graph.csv"
    write_contact_graph(graph, path)
    loaded = read_contact_graph(path)
    assert set(loaded) == {a, b}
    assert loaded[a].records == graph[a].records
    assert loaded[b].records == graph[b].records


# rows are (owner, peer, day, distance, duration) over a pool small enough
# that (owner, peer, day) keys repeat; an id may be written in upper case
graph_rows = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 3),
        st.integers(0, 2),
        st.floats(0.01, 10.0),
        # durations such as 0.1 + 0.2 + 0.3 round differently in another order
        st.one_of(st.sampled_from([0.1, 0.2, 0.3, 0.7]), st.floats(0.0, 600.0)),
        st.booleans(),
    ),
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(graph_rows, st.randoms(use_true_random=False))
def test_contact_graph_csv_matches_reference_merge(tmp_path_factory, rows, rnd):
    pool = [device(f"csv-{i}") for i in range(4)]
    rows = rows + rows[: len(rows) // 2]  # exact duplicate rows as well
    rnd.shuffle(rows)
    path = tmp_path_factory.mktemp("graph") / "graph.csv"
    lines = ["owner_digest_hex,peer_digest_hex,day,distance_m,duration_s"]
    for owner, peer, day, distance, duration, upper in rows:
        owner_hex = pool[owner].hex.upper() if upper else pool[owner].hex
        lines.append(f"{owner_hex},{pool[peer].hex},{day},{distance!r},{duration!r}")
    path.write_text("\n".join(lines) + "\n")

    # brute-force reference: min distance, durations summed in file order
    merged: dict = {}
    for owner, peer, day, distance, duration, _ in rows:
        key = (day, pool[peer].digest)
        slots = merged.setdefault(pool[owner].digest, {})
        if key in slots:
            slots[key] = (min(slots[key][0], distance), slots[key][1] + duration)
        else:
            slots[key] = (distance, duration)
    expected = {
        owner: [(day, peer, *slots[day, peer]) for day, peer in sorted(slots)]
        for owner, slots in merged.items()
    }

    loaded = read_contact_graph(path)
    assert all(contact_list.owner == owner for owner, contact_list in loaded.items())
    assert {
        owner.digest: [(r.day, r.peer.digest, r.distance, r.duration) for r in contact_list]
        for owner, contact_list in loaded.items()
    } == expected


def test_contact_graph_csv_reports_bad_line(tmp_path):
    for n, (rows, bad_line) in enumerate(bad_graph_cases()):
        path = tmp_path / f"graph-{n}.csv"
        write_graph_csv(path, rows)
        with pytest.raises(ValidationError, match=f"^line {bad_line}: malformed contact row"):
            read_contact_graph(path)
