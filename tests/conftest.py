"""Shared helpers for the test suite."""

from __future__ import annotations

import pytest

from proxtrace.core import ContactList, ContactRecord, DeviceId, hash_identifier


def device(tag: str | int) -> DeviceId:
    """Deterministic device identity for a short tag."""
    return hash_identifier(f"test-device-{tag}")


def contacts(owner: DeviceId, *records) -> ContactList:
    """Build a ContactList from (peer, day, distance[, duration]) tuples."""
    recs = tuple(
        ContactRecord(peer=r[0], day=r[1], distance=r[2], duration=r[3] if len(r) > 3 else 0.0)
        for r in records
    )
    return ContactList(owner, recs)


def write_graph_csv(path, rows: list[str]) -> None:
    """A contact graph CSV: the header, then `rows` as given."""
    header = "owner_digest_hex,peer_digest_hex,day,distance_m,duration_s"
    path.write_text("\n".join([header, *rows]) + "\n")


def bad_graph_cases() -> list[tuple[list[str], int]]:
    """Malformed contact graphs: (rows after the header, the line that must be named).

    Every good row is device a meeting device b on day 2; tracing a on day 4
    keeps it as a lookback row.
    """
    good = f"{device('a').hex},{device('b').hex},2,1.5,60.0"
    return [
        (["not-hex,xx,a,b,c"], 2),
        # the owner parsed fine on line 2; line 3 fails on its peer
        ([good, f"{device('a').hex},zz{device('b').hex[2:]},2,1.5,60.0"], 3),
        ([f"{device('a').hex[:30]},{device('b').hex},2,1.5,60.0"], 2),  # a 15-byte id
        ([good, good.replace(",2,", ",-1,")], 3),  # day -1
        ([good.replace(",1.5,", ",0,")], 2),  # distance 0
        ([good, good, good.replace(",60.0", ",-1.0")], 4),  # negative duration
        ([good, good.replace(",1.5,", ",inf,")], 3),  # infinite distance
        ([good.replace(",60.0", ",nan"), good], 2),  # NaN duration
        # after every row a trace of a on day 4 keeps: its lookback row, b's row today
        ([good, f"{device('b').hex},{device('c').hex},4,1.0,30.0", good.replace(",2,", ",x,")], 4),
    ]


@pytest.fixture
def devices():
    return [device(i) for i in range(8)]
