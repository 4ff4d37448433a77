"""Golden outputs of one scripted Registry run, pinned by value and sha256.

The script mixes every kind of request the registry serves: same-day
repeated pairs (so records merge), scans that list an unregistered
neighbour and the scanner itself, reports that cascade, recoveries,
status checks and a few rejected requests.  It runs under the default
policy and under a 60 s minimum contact duration.  The pins are the
state digest, the bytes of the event log and of the contact graph CSV,
and the ordered (kind, recipient) list every update_status returned.
"""

import hashlib
import json
import random

import pytest

from proxtrace.core import SimClock, Stage, hash_identifier, write_contact_graph
from proxtrace.errors import ProxTraceError
from proxtrace.protocol import Registry, RegistryPolicy, write_event_log

CRED = "clinic"
DAYS = 8
DURATIONS = (None, 0.0, 10.0, 45.0, 60.0, 90.0, 300.0)


def scripted_run(min_duration: float) -> tuple[Registry, list[list[tuple[str, str]]]]:
    """Drive one logged registry through a fixed mixed request sequence."""
    rng = random.Random(2024)
    reg = Registry([CRED], seed=5, policy=RegistryPolicy(min_contact_duration_s=min_duration))
    people = [reg.register_user(reg.issue_otc(CRED).code, f"golden-{i:02d}").device for i in range(40)]
    stranger = hash_identifier("golden-unregistered")
    cascades: list[list[tuple[str, str]]] = []
    infected: list = []
    for day in range(DAYS):
        reg.advance_clock(SimClock(day))
        if day == 3:  # a late registration
            people.append(reg.register_user(reg.issue_otc(CRED).code, "golden-late").device)
        for _ in range(50):
            a, b = rng.sample(people, 2)
            distance = round(rng.uniform(0.05, 10.0), 3)
            duration = rng.choice(DURATIONS)
            reg.record_encounter(a, b, distance, duration)
            if rng.random() < 0.3:  # same pair again the same day: the records merge
                reg.record_encounter(b, a, round(rng.uniform(0.05, 10.0), 3), rng.choice(DURATIONS))
        for _ in range(3):
            scanner = rng.choice(people)
            neighbours = [(p, round(rng.uniform(0.05, 10.0), 3)) for p in rng.sample(people, 4)]
            neighbours += [(stranger, 1.5), (scanner, 2.5)]
            reg.scan_handshake(scanner, neighbours)
        if day >= 2:
            for case in rng.sample([p for p in people if p not in infected], 2):
                infected.append(case)
                notes = reg.update_status(reg.issue_otc(CRED).code, case, Stage.INFECTED)
                cascades.append([(n.kind.value, n.recipient.hex) for n in notes])
        if day >= 5:
            case = infected[day - 5]
            notes = reg.update_status(reg.issue_otc(CRED).code, case, Stage.RECOVERED)
            cascades.append([(n.kind.value, n.recipient.hex) for n in notes])
        for device in rng.sample(people, 6):
            reg.status_checker_tick(device)
        for bad in (
            lambda: reg.record_encounter(people[0], people[0], 1.0),
            lambda: reg.record_encounter(people[1], stranger, 1.0),
            lambda: reg.record_encounter(people[1], people[2], 11.0),
            lambda: reg.register_user(reg.issue_otc(CRED).code, "golden-00"),
            lambda: reg.update_status(reg.issue_otc(CRED).code, people[3], Stage.SUSCEPTIBLE),
        ):
            with pytest.raises(ProxTraceError):
                bad()
    return reg, cascades


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# min_contact_duration_s -> (state digest, event log sha256, contact graph sha256,
# sha256 of the JSON list of every update_status return)
PINS = {
    0.0: (
        "e7ec610b0bc5a2d3fca07b05f8f5296e04ecab4c4d0b579d033a04002d9df893",
        "a0e02525774d12d3d3557242e52d248fe6a49356043037c03913041f383d4b0b",
        "a15465afbdfd88245875b7268cb2c5ca547e5cd5878397a5b4e2450551363c0a",
        "6848aa14fe400c2c7a6c301575f75c1e1b03af6d98d665f7350f0e8ef66c4197",
    ),
    60.0: (
        "5ec1185bcc4ae8f2b635a61f9d60060c1ca99d61973007bb947394041497b567",
        "a0e02525774d12d3d3557242e52d248fe6a49356043037c03913041f383d4b0b",
        "a15465afbdfd88245875b7268cb2c5ca547e5cd5878397a5b4e2450551363c0a",
        "09a7b526efc41836ea697b402d93db1cf2e780a3c4855df3aa314121c01f9e64",
    ),
}


@pytest.mark.parametrize("min_duration", sorted(PINS))
def test_scripted_registry_matches_pins(tmp_path, min_duration):
    reg, cascades = scripted_run(min_duration)
    log = tmp_path / "events.csv"
    graph = tmp_path / "graph.csv"
    write_event_log(reg.events, log)
    write_contact_graph(reg.contact_graph, graph)
    notes = hashlib.sha256(json.dumps(cascades).encode()).hexdigest()
    assert (reg.state_digest(), sha256(log), sha256(graph), notes) == PINS[min_duration]
    replayed = Registry.replay(reg.events, [CRED], policy=reg.policy)
    assert replayed.state_digest() == reg.state_digest()
