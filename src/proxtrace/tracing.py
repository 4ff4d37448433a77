"""Second-degree contact expansion around a confirmed case.

Given a contact graph and the current day, the trace collects every peer
the index case met exactly TRACE_LOOKBACK_DAYS ago, plus everyone each
such peer has met *today*.  The two-day offset targets the contacts made
right around the index case's likely exposure-to-symptoms gap; the inner
same-day expansion catches the people those contacts went on to meet.
"""

from __future__ import annotations

from typing import Mapping

from .core import ContactList, DeviceId, SimClock
from .errors import UnknownDeviceError

# Days between a contact with the index case and the day the trace runs.
TRACE_LOOKBACK_DAYS = 2


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
