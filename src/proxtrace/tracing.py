"""Second-degree contact expansion around a confirmed case.

Given a contact graph and the current day, the trace collects every peer
the index case met exactly TRACE_LOOKBACK_DAYS ago, plus everyone each
such peer has met *today*.  The two-day offset targets the contacts made
right around the index case's likely exposure-to-symptoms gap; the inner
same-day expansion catches the people those contacts went on to meet.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

from .core import ContactList, ContactRecord, DeviceId, SimClock, _contact_rows
from .errors import UnknownDeviceError

# Days between a contact with the index case and the day the trace runs.
TRACE_LOOKBACK_DAYS = 2

# One kept graph row, without its owner: a ContactRecord's fields.
_Row = tuple[DeviceId, int, float, float]


def trace_co_contacts(
    index_case: DeviceId, graph: Mapping[DeviceId, ContactList], clock: SimClock
) -> tuple[DeviceId, ...]:
    """Expand the index case's lookback-day contacts into a notification set.

    For every record of the index case dated exactly TRACE_LOOKBACK_DAYS
    before the clock, the record's peer and all of that peer's same-day
    (today) contacts enter the output.  A peer with no contact list of its
    own still contributes itself.  The index case never appears in its own
    trace and each device appears at most once, in first-discovery order.
    """
    if index_case not in graph:
        raise UnknownDeviceError(f"index case {index_case.hex} not present in the contact graph")
    today = clock.current_day
    lookback_day = today - TRACE_LOOKBACK_DAYS
    found: list[DeviceId] = []
    # Keyed on digest bytes, so discovering a device makes no Python-level
    # DeviceId hash or comparison; the index case is seen from the start.
    seen = {index_case.digest}

    def _add(device: DeviceId) -> None:
        if device.digest not in seen:
            seen.add(device.digest)
            found.append(device)

    for rec in graph[index_case].records:
        if rec.day != lookback_day:
            continue
        peer_list = graph.get(rec.peer)
        if peer_list is not None:
            for co in peer_list.records:
                if co.day == today:
                    _add(co.peer)
        _add(rec.peer)
    return tuple(found)


def _two_hop_graph(path: str | Path, index_case: DeviceId, today: int) -> dict[DeviceId, ContactList]:
    """The part of a contact graph CSV that tracing `index_case` on `today` reads.

    Every row is parsed and checked as read_contact_graph checks it, but
    only the index case's rows dated the lookback day or today and other
    owners' rows dated today are kept, as tuples.  Contact lists are built
    for the index case, if it owns a row, and for each peer it met on the
    lookback day that owns a row dated today.
    """
    lookback_day = today - TRACE_LOOKBACK_DAYS
    case = index_case.digest
    case_owns_rows = False
    case_rows: list[_Row] = []
    today_rows: dict[bytes, list[_Row]] = {}
    for owner, peer, day, distance, duration in _contact_rows(path):
        if owner.digest == case:
            case_owns_rows = True
            if day == lookback_day or day == today:
                case_rows.append((peer, day, distance, duration))
        elif day == today:
            today_rows.setdefault(owner.digest, []).append((peer, day, distance, duration))
    if not case_owns_rows:
        return {}

    def contact_list(owner: DeviceId, rows: list[_Row]) -> ContactList:
        return ContactList(owner, tuple(ContactRecord(*row) for row in rows))

    graph = {index_case: contact_list(index_case, case_rows)}
    for peer, day, _, _ in case_rows:
        rows = today_rows.pop(peer.digest, None) if day == lookback_day else None
        if rows is not None:
            graph[peer] = contact_list(peer, rows)
    return graph
