"""Co-contact discovery against a naive oracle and on hand-built graphs."""

import random

import pytest

from proxtrace.core import ContactList, ContactRecord, SimClock, hash_identifier
from proxtrace.errors import UnknownDeviceError
from proxtrace.tracing import TRACE_LOOKBACK_DAYS, trace_co_contacts

from conftest import contacts, device


def naive_co_contacts(index_case, graph, today, lookback=TRACE_LOOKBACK_DAYS):
    """Double loop over the raw records, no shortcuts shared with the module."""
    found = []
    target_day = today - lookback
    for rec in graph[index_case].records:
        if rec.day != target_day:
            continue
        peer = rec.peer
        if peer in graph:
            for peer_rec in graph[peer].records:
                if peer_rec.day == today and peer_rec.peer != index_case:
                    if peer_rec.peer not in found:
                        found.append(peer_rec.peer)
        if peer not in found and peer != index_case:
            found.append(peer)
    return found


def test_two_hop_example():
    a, b, c, x, y = (device(t) for t in "abcxy")
    graph = {
        a: contacts(a, (b, 3, 1.0), (c, 3, 1.0)),
        b: contacts(b, (x, 5, 1.0)),
        c: contacts(c, (y, 5, 1.0)),
    }
    got = trace_co_contacts(a, graph, SimClock(5))
    assert got == (x, b, y, c)


def test_peers_met_today_are_not_expanded():
    # only day today-2 contacts of the index case seed the expansion
    a, b, x = device("a"), device("b"), device("x")
    graph = {
        a: contacts(a, (b, 5, 1.0)),
        b: contacts(b, (x, 5, 1.0)),
    }
    got = trace_co_contacts(a, graph, SimClock(5))
    assert list(got) == []


def test_no_contacts_yields_empty_list():
    a = device("a")
    graph = {a: ContactList(owner=a)}
    assert list(trace_co_contacts(a, graph, SimClock(9))) == []


def test_unknown_index_case_raises():
    a, b = device("a"), device("b")
    graph = {a: ContactList(owner=a)}
    with pytest.raises(UnknownDeviceError):
        trace_co_contacts(b, graph, SimClock(4))


def test_peer_without_contact_list_still_reported():
    a, b = device("a"), device("b")
    graph = {a: contacts(a, (b, 1, 2.0))}
    got = trace_co_contacts(a, graph, SimClock(3))
    assert list(got) == [b]


def test_index_case_never_in_result():
    a, b = device("a"), device("b")
    graph = {
        a: contacts(a, (b, 1, 2.0)),
        b: contacts(b, (a, 3, 2.0)),  # peer met the index case again today
    }
    got = trace_co_contacts(a, graph, SimClock(3))
    assert a not in got
    assert list(got) == [b]


def test_duplicates_collapse():
    a, b, c, x = (device(t) for t in "abcx")
    graph = {
        a: contacts(a, (b, 2, 1.0), (c, 2, 1.0)),
        b: contacts(b, (x, 4, 1.0)),
        c: contacts(c, (x, 4, 1.0), (b, 4, 1.0)),  # x and b rediscovered via c
    }
    got = trace_co_contacts(a, graph, SimClock(4))
    assert list(got) == [x, b, c]


def test_only_the_lookback_day_seeds_the_trace():
    a, b, c, d, x = (device(t) for t in "abcdx")
    lookback = 7 - TRACE_LOOKBACK_DAYS
    graph = {
        a: contacts(a, (b, lookback - 1, 1.0), (c, lookback, 1.0), (d, lookback + 1, 1.0)),
        b: contacts(b, (x, 7, 1.0)),
        d: contacts(d, (x, 7, 1.0)),
    }
    assert trace_co_contacts(a, graph, SimClock(7)) == (c,)


def test_result_is_deterministic_and_idempotent():
    rnd = random.Random(0)
    graph, people = random_graph(rnd, people=40, days=6)
    clock = SimClock(6)
    first = trace_co_contacts(people[0], graph, clock)
    second = trace_co_contacts(people[0], graph, clock)
    assert list(first) == list(second)


def random_graph(rnd, people=60, days=8, max_contacts=6):
    ids = [hash_identifier(f"person-{rnd.randrange(10**9)}-{i}") for i in range(people)]
    graph = {}
    for owner in ids:
        records = []
        for day in range(days + 1):
            for _ in range(rnd.randrange(max_contacts + 1)):
                peer = rnd.choice(ids)
                if peer == owner:
                    continue
                records.append(ContactRecord(peer, day, rnd.uniform(0.5, 9.5), 60.0))
        graph[owner] = ContactList(owner, tuple(records))
    return graph, ids


def test_matches_naive_oracle_on_random_graphs():
    rnd = random.Random(17)
    for trial in range(60):
        graph, ids = random_graph(rnd, people=rnd.randrange(2, 50), days=6)
        index = rnd.choice(ids)
        today = rnd.randrange(2, 7)
        got = list(trace_co_contacts(index, graph, SimClock(today)))
        want = naive_co_contacts(index, graph, today)
        assert set(got) == set(want), trial
        assert len(got) == len(set(got))
