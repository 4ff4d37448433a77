"""Second-degree contact expansion around a confirmed case.

Given a contact graph and the current day, the trace collects every peer
the index case met exactly TRACE_LOOKBACK_DAYS ago, plus everyone each
such peer has met *today*.  The two-day offset targets the contacts made
right around the index case's likely exposure-to-symptoms gap; the inner
same-day expansion catches the people those contacts went on to meet.

The rule is stated once, in trace_co_contacts, over one accessor
`peers_on(device, day)`: the peers a device met that day, in digest order.
A registry view reads them from its contact store (a cascade's view drops
the index case's brief contacts), any other mapping from its ContactLists.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from pathlib import Path
from typing import Mapping

from .core import ContactList, DeviceId, SimClock, _contact_lists, _contact_rows
from .errors import UnknownDeviceError

# Days between a contact with the index case and the day the trace runs.
TRACE_LOOKBACK_DAYS = 2


def trace_co_contacts(
    index_case: DeviceId, graph: Mapping[DeviceId, ContactList], clock: SimClock
) -> tuple[DeviceId, ...]:
    """Expand the index case's lookback-day contacts into a notification set.

    For every peer the index case met exactly TRACE_LOOKBACK_DAYS before the
    clock, in digest order, that peer's same-day (today) contacts and then
    the peer itself enter the output; a peer with no contact list still
    contributes itself.  The index case never appears in its own trace and
    each device appears at most once, in first-discovery order.  A registry
    view hands over its own peer reader, so no ContactList is built for it.
    """
    if index_case not in graph:
        raise UnknownDeviceError(f"index case {index_case.hex} not present in the contact graph")
    peers_on = getattr(graph, "_peers_on", None) or partial(_listed_peers, graph)
    today = clock.current_day
    found: list[DeviceId] = []
    # Keyed on digest bytes, so discovering a device makes no Python-level
    # DeviceId hash or comparison; the index case is seen from the start.
    seen = {index_case.digest}
    for peer in peers_on(index_case, today - TRACE_LOOKBACK_DAYS):
        for device in (*peers_on(peer, today), peer):
            if device.digest not in seen:
                seen.add(device.digest)
                found.append(device)
    return tuple(found)


def _listed_peers(
    graph: Mapping[DeviceId, ContactList], device: DeviceId, day: int
) -> list[DeviceId]:
    """The peers of `device`'s records dated `day`, in record (digest) order."""
    return [rec.peer for rec in graph.get(device, ()) if rec.day == day]


def _two_hop_graph(path: str | Path, index_case: DeviceId, today: int) -> dict[DeviceId, ContactList]:
    """The part of a contact graph CSV that tracing `index_case` on `today` reads.

    Every row is parsed and checked as read_contact_graph checks it, but
    only the index case's rows dated the lookback day or today and other
    owners' rows dated today are kept.  The index case's kept rows and
    those of each peer it met on the lookback day go through
    read_contact_graph's builder; a case that owns rows, none of them
    kept, gets an empty list, and one that owns no row gives {}.
    """
    lookback_day = today - TRACE_LOOKBACK_DAYS
    case = index_case.digest
    case_owns_rows = False
    case_rows: list[tuple] = []
    today_rows: dict[bytes, list[tuple]] = {}
    for row in _contact_rows(path):
        owner, _, day, _, _ = row
        if owner.digest == case:
            case_owns_rows = True
            if day == lookback_day or day == today:
                case_rows.append(row)
        elif day == today:
            today_rows.setdefault(owner.digest, []).append(row)
    if not case_owns_rows:
        return {}
    peer_rows = [today_rows.pop(peer.digest, ()) for _, peer, day, _, _ in case_rows if day == lookback_day]
    return _contact_lists(chain(case_rows, *peer_rows)) or {index_case: ContactList(index_case)}
