"""Registration, verified status updates, proximity scans, notifications.

Every piece of shared state lives in a single Registry instance and all
mutations are serialized through its methods, so the rest of the package
can treat it as the one source of truth.  Staff-facing operations are
gated by single-use codes (OTCs): a code authorizes exactly one
successful registration or status update and is consumed atomically with
that operation.  Each operation makes every check before its first write,
so a failed one changes nothing, its code included, and logs one row.

The registry keeps an append-only event log.  Replaying a log into a
fresh registry reproduces the final state bit-exactly (state_digest is
the equality witness), which is what makes the log an audit trail rather
than just a diagnostic.  Replay re-runs each successful event through the
live method that logged it, so a tampered event is held to the same
preconditions as the original request: a consumed or never-issued code,
a code issued twice, a device registered twice, an illegal transition,
an unregistered endpoint, a self-meeting, a distance outside the
Bluetooth range, a negative or non-finite duration, a summed duration past
the float range and a weight vector too short for the scan categories are
all rejected, and so is any event dated before the event ahead of it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import compress
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import csv

import numpy as np

from .core import (
    CONTACT_WINDOW_DAYS,
    DEFAULT_BLUETOOTH_RANGE_M,
    DEFAULT_QUARANTINE_DAYS,
    Category,
    ContactList,
    ContactRecord,
    DeviceId,
    Quarantine,
    SimClock,
    Stage,
    _FLOAT_MAX,
    _is_day,
    _unreadable_text_is_invalid,
    hash_identifier,
    hex_interner,
    validate_transition,
)
from .errors import (
    AlreadyRegisteredError,
    AuthorizationError,
    InvalidOtcError,
    OtcReplayError,
    ProxTraceError,
    UnknownDeviceError,
    ValidationError,
)
from .risk import DEFAULT_WEIGHTS, RiskClass, WeightConfig, classify, score_from_arrays
from .tracing import trace_co_contacts

# Token space is 2**128: far beyond the 2**64 floor needed to make blind
# guessing pointless, while staying a compact 32-hex-char string.
_OTC_BITS = 128


# =========================================================================
# Value types
# =========================================================================

class NotificationKind(Enum):
    STATUS_POSITIVE = "status_positive"
    CONTACT_AT_RISK = "contact_at_risk"
    AREA_RISK = "area_risk"


@dataclass(frozen=True)
class Notification:
    """One message to one device; area-risk messages carry the class."""

    recipient: DeviceId
    kind: NotificationKind
    day: int
    risk_class: RiskClass | None = None


@dataclass
class Otc:
    """Single-use authorization code."""

    code: str
    issued_day: int
    consumed: bool = False


@dataclass(frozen=True)
class DeviceRecord:
    """A snapshot of one device's registry columns, built on read."""

    device: DeviceId
    stage: Stage
    quarantine: Quarantine | None
    registered_day: int

    def is_quarantined(self, day: int) -> bool:
        return self.quarantine is not None and self.quarantine.covers(day)


@dataclass(frozen=True)
class RegistryPolicy:
    """Tunable protocol constants."""

    quarantine_days: int = DEFAULT_QUARANTINE_DAYS
    contact_window_days: int = CONTACT_WINDOW_DAYS
    bluetooth_range_m: float = DEFAULT_BLUETOOTH_RANGE_M
    # Contacts below this cumulative duration are ignored when tracing a
    # confirmed case's own window; 0 keeps every contact.
    min_contact_duration_s: float = 0.0
    # Duration booked for a scan-observed encounter (scans are point events).
    encounter_duration_s: float = 60.0

    def __post_init__(self) -> None:
        checks = [
            ("quarantine_days", _is_day(self.quarantine_days)),
            ("contact_window_days", _is_day(self.contact_window_days)),
            ("bluetooth_range_m", 0 < self.bluetooth_range_m <= _FLOAT_MAX),
            ("min_contact_duration_s", 0 <= self.min_contact_duration_s <= _FLOAT_MAX),
            ("encounter_duration_s", 0 <= self.encounter_duration_s <= _FLOAT_MAX),
        ]
        for name, ok in checks:
            if not ok:
                raise ValidationError(f"invalid value for policy field {name!r}")


@dataclass(frozen=True)
class ScanResult:
    """What a scanning device learns: the area class and nothing else.

    Scanners never see per-neighbor health states; the only fields are the
    classified risk, the notification that delivered it, and how many
    registered neighbors contributed.
    """

    risk_class: RiskClass | None
    notification: Notification | None
    neighbors_seen: int


@dataclass(frozen=True, slots=True)
class Event:
    """One audit-log row."""

    day: int
    operation: str
    actor: str
    outcome: str
    details: Mapping[str, object] = field(default_factory=dict)


EVENT_LOG_HEADER = ("day", "operation", "actor_digest", "outcome", "details")


# =========================================================================
# Read-only views
# =========================================================================

_Row = TypeVar("_Row")


class _RegistryView(Mapping[DeviceId, _Row]):
    """Read-only mapping from each registered DeviceId to one of its rows.

    Keys are the registered DeviceIds in registration order; anything else,
    including a value that is not a DeviceId, is absent.  `row` turns a
    device handle into the value, read live on every lookup.  A contact graph
    view also carries the store's sorted rows and peer reader, which
    write_contact_graph and trace_co_contacts read instead of ContactLists.
    """

    def __init__(
        self,
        registry: "Registry",
        row: Callable[[int], _Row],
        sorted_rows: Callable | None = None,
        peers_on: Callable | None = None,
    ) -> None:
        self._handle = registry._handle
        self._ids = registry._ids
        self._row = row
        self._sorted_rows = sorted_rows
        self._peers_on = peers_on

    def __getitem__(self, device: DeviceId) -> _Row:
        handle = self._handle.get(device.digest) if isinstance(device, DeviceId) else None
        if handle is None:
            raise KeyError(device)
        return self._row(handle)

    def __contains__(self, device: object) -> bool:
        return isinstance(device, DeviceId) and device.digest in self._handle

    def __iter__(self) -> Iterator[DeviceId]:
        return iter(self._ids)

    def __len__(self) -> int:
        return len(self._ids)


# =========================================================================
# Registry
# =========================================================================

# One closed day of the contact store, in arrays: (owners, starts, peers,
# slots).  Owner handle h holds rows starts[i]:starts[i + 1] of the peer
# handle and slot columns.  With owners None the index is dense, i = h for
# every handle registered by the seal; otherwise owners lists the handles
# with a contact that day, ascending, and owners[i] == h.  Each array's item
# type is the smallest that holds its values.  A plain tuple, since
# unpacking a NamedTuple costs a sealed read about a tenth more.
_SealedDay = tuple[array | None, array, array, array]


# The (peers, slots) of an owner-day with no contact.
_NO_PAIRS: tuple[Sequence[int], Sequence[int]] = ((), ())


def _packed(values: np.ndarray, largest: int) -> array:
    """The non-negative ints as an array of the smallest unsigned type that holds `largest`."""
    dtype = np.min_scalar_type(largest)
    return array(dtype.char, values.astype(dtype, copy=False).tobytes())


def _summed_duration(total: float, duration: float) -> float:
    """A contact's duration after one more booking; one past the float range is rejected."""
    total += duration
    if total == math.inf:
        raise ValidationError("summed contact duration must stay finite")
    return total


class Registry:
    """Single logical owner of devices, codes, contacts, and notifications."""

    def __init__(
        self,
        staff_credentials: Iterable[str],
        *,
        seed: int = 0,
        policy: RegistryPolicy = RegistryPolicy(),
        log_events: bool = True,
    ) -> None:
        self._policy = policy
        self._clock = SimClock(0)
        self.otcs: dict[str, Otc] = {}
        self.notifications: list[Notification] = []
        self.events: list[Event] = []
        self._staff = frozenset(staff_credentials)
        self._rng = random.Random(seed)
        # (digest, kind value) of each notification sent on the clock day: the
        # kind's str value hashes in C, an Enum member through Enum.__hash__.
        self._notified: set[tuple[bytes, str]] = set()
        # Dense int handle per registered device digest, in registration
        # order; every per-device column below is indexed by it.
        self._handle: dict[bytes, int] = {}
        self._ids: list[DeviceId] = []
        # Each device's hex text, formatted once and shared by every log row
        # and contact row that names the device.
        self._hexes: list[str] = []
        self._stage: list[Stage] = []
        # Whether each device's stage is INFECTED, for the exposure scans.
        self._infected: list[bool] = []
        self._registered_day: list[int] = []
        self._last_checked: list[Stage] = []
        # The end day of each device's quarantine window, 0 for none.  Every
        # window lasts policy.quarantine_days, so it starts at end minus that.
        self._q_end = array("q")
        # The sealed days on which each device has a contact, ascending.
        self._contact_days: list[list[int]] = []
        # The contact graph.  A slot indexes the closest distance and summed
        # duration columns, and both endpoints of a pair-day share one.  Only
        # the clock day takes bookings: its contacts are owner handle -> peer
        # handle -> slot dicts, so a repeat merges in place, and each new
        # slot's two endpoints are appended to _day_ends.  advance_clock
        # seals that day into a _SealedDay, built from _day_ends, and empties
        # both; a day with no contact is not kept.  So a day's contacts live
        # either in the dicts or in its sealed arrays, and _pairs reads both.
        self._today: dict[int, dict[int, int]] = {}
        self._day_ends = array("q")
        self._sealed: dict[int, _SealedDay] = {}
        self._min_distance = array("d")
        self._total_duration = array("d")
        # The exposure column, None until a scan or status check reads it and
        # again after each seal: entry h counts h's (infected peer, day)
        # contacts in the window that ends on _exposure_day.  It has counted
        # the clock day's slots up to _day_ends[_exposure_ends] and every
        # infected flag as it is now.
        self._exposure: list[int] | None = None
        self._exposure_day = 0
        self._exposure_ends = 0
        self._log_events = log_events

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    @property
    def policy(self) -> RegistryPolicy:
        """The registry's policy, read-only: each quarantine window's start and
        the exposure column's window are derived from it."""
        return self._policy

    @property
    def clock(self) -> SimClock:
        """The registry's day, read-only: the contact store seals a day only
        when advance_clock moves past it."""
        return self._clock

    def advance_clock(self, clock: SimClock) -> SimClock:
        """Move the clock forward to a SimClock's day; moving to a later day
        seals the clock day's contacts and forgets which notifications it sent."""
        if not isinstance(clock, SimClock):
            raise ValidationError(f"registry clock must be a SimClock, got {clock!r}")
        if clock.current_day < self._clock.current_day:
            raise ValidationError("registry clock cannot move backwards")
        if clock.current_day > self._clock.current_day:
            self._seal()
            self._notified.clear()
        self._clock = clock
        return self._clock

    def _seal(self) -> None:
        """Move the clock day's contacts from its dicts into a _SealedDay.

        The day's slots are the last ones appended, one per pair in
        _day_ends order, so row k of the interleaved endpoints is owned by
        ends[k], met ends[k ^ 1] and shares slot base + k // 2.  One sort
        groups the rows by owner: numpy's stable sort, a radix sort for keys
        of up to 16 bits, over keys of the smallest type that holds a
        handle.  The index is dense, one entry per device, when that is no
        more entries than the day has rows, so a read indexes it instead of
        searching it; otherwise it lists only the day's owners.  Either way
        a sealed day's size is proportional to its contacts.  The day joins
        each owner's contact days.  The exposure column is dropped: its
        cursor reads the clock day's _day_ends, which start again here.
        """
        ends = np.frombuffer(self._day_ends, dtype=np.int64)
        for owner in self._today:
            self._contact_days[owner].append(self._clock.current_day)
        if ends.size:
            devices = len(self._ids)
            handles = ends.astype(np.min_scalar_type(devices - 1))
            order = np.argsort(handles, kind="stable")
            owners = handles[order]
            peers = handles[order ^ 1]
            if devices < ends.size:
                index = None
                starts = np.searchsorted(owners, np.arange(devices + 1))
            else:
                starts = np.flatnonzero(owners[1:] != owners[:-1]) + 1
                starts = np.concatenate(([0], starts, [ends.size]))
                index = _packed(owners[starts[:-1]], devices - 1)
            order >>= 1
            order += len(self._min_distance) - ends.size // 2  # the day's first slot
            self._sealed[self._clock.current_day] = (
                index,
                _packed(starts, ends.size),
                _packed(peers, devices - 1),
                _packed(order, len(self._min_distance) - 1),
            )
        self._today = {}
        self._day_ends = array("q")
        self._exposure = None

    def _pairs(self, owner: int, day: int) -> tuple[Sequence[int], Sequence[int]]:
        """The peer handles and slots of the owner's contacts on `day`, in
        one order: the clock day's from its dicts, an earlier day's from its
        sealed rows."""
        if day == self._clock.current_day:
            peers = self._today.get(owner)
            return (peers, peers.values()) if peers else _NO_PAIRS
        sealed = self._sealed.get(day)
        if sealed is None:
            return _NO_PAIRS
        owners, starts, peers, slots = sealed
        row = owner
        if owners is not None:
            row = bisect_left(owners, owner)
            if row == len(owners) or owners[row] != owner:
                return _NO_PAIRS
        try:
            start, end = starts[row], starts[row + 1]
        except IndexError:  # a device registered after the seal
            return _NO_PAIRS
        return peers[start:end], slots[start:end]

    def _log(self, operation: str, actor: str, outcome: str, **details: object) -> None:
        if self._log_events:
            self.events.append(Event(self.clock.current_day, operation, actor, outcome, details))

    def _fail(self, operation: str, actor: str, error: ProxTraceError) -> None:
        self._log(operation, actor, type(error).__name__)

    def _resolve(self, device: DeviceId, noun: str = "device") -> int:
        """The device's handle; an unregistered device raises UnknownDeviceError."""
        handle = self._handle.get(device.digest)
        if handle is None:
            raise UnknownDeviceError(f"{noun} {device.hex} is not registered")
        return handle

    def _emit(
        self, recipient: DeviceId, kind: NotificationKind, risk_class: RiskClass | None = None
    ) -> Notification | None:
        """Notify on the clock day, unless the recipient got this kind today."""
        key = (recipient.digest, kind._value_)
        if key in self._notified:
            return None
        self._notified.add(key)
        note = Notification(recipient, kind, self._clock.current_day, risk_class)
        self.notifications.append(note)
        return note

    @property
    def devices(self) -> Mapping[DeviceId, DeviceRecord]:
        return _RegistryView(self, self._record)

    def _record(self, handle: int) -> DeviceRecord:
        """The device's columns as a DeviceRecord."""
        end = self._q_end[handle]
        window = Quarantine(end - self._policy.quarantine_days, end) if end else None
        return DeviceRecord(self._ids[handle], self._stage[handle], window, self._registered_day[handle])

    @property
    def contact_graph(self) -> Mapping[DeviceId, ContactList]:
        """Every registered device is present, possibly with an empty list,
        so tracing can tell "no contacts" from "unknown device"."""
        return _RegistryView(self, self._contact_list, self._sorted_contact_rows, self._peers_on)

    def contact_list(self, device: DeviceId) -> ContactList:
        return self._contact_list(self._resolve(device))

    def _owner_days(self, owner: int) -> Iterator[tuple[int, Sequence[int], Sequence[int]]]:
        """(day, peers, slots) of the owner's sealed contact days, ascending, then
        of the clock day: the one walk over an owner's contacts."""
        for day in (*self._contact_days[owner], self.clock.current_day):
            yield day, *self._pairs(owner, day)

    def _contact_list(self, owner: int) -> ContactList:
        """The owner's records as a ContactList."""
        ids = self._ids
        distances = self._min_distance
        durations = self._total_duration
        records = tuple(
            ContactRecord(
                peer=ids[peer], day=day, distance=distances[slot], duration=durations[slot]
            )
            for day, peers, slots in self._owner_days(owner)
            for peer, slot in zip(peers, slots)
        )
        return ContactList(ids[owner], records)

    def _peers_on(self, device: DeviceId, day: int, brief_of: int = -1) -> list[DeviceId]:
        """The peers a registered device met on `day` in digest order, its
        ContactList's record order; if its handle is `brief_of`, only those
        met for at least the policy's min_contact_duration_s."""
        owner = self._handle[device.digest]
        peers, slots = self._pairs(owner, day)
        if owner == brief_of:
            least, durations = self._policy.min_contact_duration_s, self._total_duration
            peers = [peer for peer, slot in zip(peers, slots) if durations[slot] >= least]
        return [self._ids[peer] for peer in sorted(peers, key=self._hexes.__getitem__)]

    def _sorted_contact_rows(self) -> Iterator[tuple[str, str, int, float, float]]:
        """Every contact row as (owner_hex, peer_hex, day, distance, duration).

        Owners come in digest order, each owner's rows by (day, peer digest):
        the one row order the graph CSV and state_digest share.  Days sort as
        numbers, so day 10 follows day 9; fixed-width lower-case hex sorts like
        the digest bytes.  The hex texts are the registry's per-device column,
        and rows are sorted one owner-day at a time, so no list of every row
        is built.  Each owner's walk reads only its sealed contact days and
        the clock day, however many days hold none of its contacts.
        """
        hexes = self._hexes
        distances = self._min_distance
        durations = self._total_duration
        for owner in sorted(range(len(hexes)), key=hexes.__getitem__):
            owner_hex = hexes[owner]
            for day, peers, slots in self._owner_days(owner):
                for peer_hex, slot in sorted(zip(map(hexes.__getitem__, peers), slots)):
                    yield owner_hex, peer_hex, day, distances[slot], durations[slot]

    # ------------------------------------------------------------------
    # one-time codes
    # ------------------------------------------------------------------

    def issue_otc(self, staff_credential: str) -> Otc:
        """Mint a fresh single-use code; staff credential required."""
        try:
            if staff_credential not in self._staff:
                raise AuthorizationError("credential not accepted")
        except ProxTraceError as exc:
            self._fail("otc_issued", "staff", exc)
            raise
        code = f"{self._rng.getrandbits(_OTC_BITS):032x}"
        while code in self.otcs:  # collision chance ~2**-128, but be exact
            code = f"{self._rng.getrandbits(_OTC_BITS):032x}"
        otc = self.otcs[code] = Otc(code=code, issued_day=self.clock.current_day)
        self._log("otc_issued", "staff", "ok", code=code)
        return otc

    def _checked_otc(self, code: str) -> Otc:
        otc = self.otcs.get(code)
        if otc is None:
            raise InvalidOtcError("code was never issued")
        if otc.consumed:
            raise OtcReplayError("code already consumed")
        return otc

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def register_user(
        self,
        otc_code: str,
        device_raw_id: bytes | str,
        initial_stage: Stage = Stage.SUSCEPTIBLE,
    ) -> DeviceRecord:
        """Create a device record; consumes the code only on success."""
        return self._register(otc_code, hash_identifier(device_raw_id), initial_stage)

    def _register(self, otc_code: str, device: DeviceId, stage: Stage) -> DeviceRecord:
        try:
            otc = self._checked_otc(otc_code)
            if device.digest in self._handle:
                raise AlreadyRegisteredError(f"device {device.hex} is already registered")
            if not isinstance(stage, Stage):
                raise ValidationError(f"initial stage {stage!r} is not a Stage")
        except ProxTraceError as exc:
            self._fail("user_registered", device.hex, exc)
            raise
        otc.consumed = True
        hex_text = device.hex
        handle = self._handle[device.digest] = len(self._ids)
        self._ids.append(device)
        self._hexes.append(hex_text)
        self._stage.append(stage)
        self._infected.append(stage is Stage.INFECTED)
        self._registered_day.append(self.clock.current_day)
        self._last_checked.append(stage)
        self._q_end.append(0)
        self._contact_days.append([])
        self._log("user_registered", hex_text, "ok", code=otc_code, status=stage.value)
        return self._record(handle)

    # ------------------------------------------------------------------
    # status updates and the notification cascade
    # ------------------------------------------------------------------

    def update_status(
        self,
        otc_code: str,
        device: DeviceId,
        new_stage: Stage,
    ) -> list[Notification]:
        """Verified stage change.  An infection triggers the full cascade:

        quarantine for the device, a co-contact trace over its recent
        contacts, quarantine plus a contact-at-risk notification for every
        traced device, and a status-positive notification to the reporter.
        Returns the notifications actually emitted (duplicates for the same
        recipient, kind, and day are suppressed).
        """
        try:
            handle = self._resolve(device)
            otc = self._checked_otc(otc_code)
            if not isinstance(new_stage, Stage):
                raise ValidationError(f"new stage {new_stage!r} is not a Stage")
            validate_transition(self._stage[handle], new_stage)
        except ProxTraceError as exc:
            self._fail("status_updated", device.hex, exc)
            raise
        otc.consumed = True
        day = self.clock.current_day
        self._stage[handle] = new_stage
        infected = new_stage is Stage.INFECTED
        if infected is not self._infected[handle] and self._exposure is not None:
            # The column counts the flag as it was, so it catches up first.
            self._catch_up()
            self._shift(handle, 1 if infected else -1)
        self._infected[handle] = infected
        notes: list[Notification | None] = []
        if new_stage is Stage.INFECTED:
            self._quarantine(handle, day)
            notes.append(self._emit(device, NotificationKind.STATUS_POSITIVE))
            # Brief contacts are dropped from the index case's own records only.
            brief = partial(self._peers_on, brief_of=handle)
            graph = _RegistryView(self, self._contact_list, peers_on=brief)
            for contact in trace_co_contacts(device, graph, self.clock):
                self._quarantine(self._handle[contact.digest], day)
                notes.append(self._emit(contact, NotificationKind.CONTACT_AT_RISK))
        self._log(
            "status_updated", self._hexes[handle], "ok", code=otc_code, status=new_stage.value
        )
        return [note for note in notes if note is not None]

    def _quarantine(self, handle: int, day: int) -> None:
        # Isolation takes effect the day after notification and runs for the
        # policy duration; a later notification replaces a window that ends
        # sooner.  A zero-day policy means notify-only, no isolation window.
        end = day + 1 + self._policy.quarantine_days
        if self._policy.quarantine_days and end > self._q_end[handle]:
            self._q_end[handle] = end

    def quarantine_mask(self, day: int) -> np.ndarray:
        """Whether each device is quarantined on `day`, in registration order.

        Equal to `[rec.is_quarantined(day) for rec in devices.values()]`,
        read as one comparison over the end-day column: a window is active
        from end - quarantine_days up to, not including, end.  A day that is
        not an integer in [0, 2**62) raises ValidationError.
        """
        if not _is_day(day):
            raise ValidationError(f"day {day!r} must be an integer in [0, 2**62)")
        end = np.frombuffer(self._q_end, dtype=np.int64)
        return (day < end) & (end <= int(day) + self._policy.quarantine_days)

    # ------------------------------------------------------------------
    # encounters and scans
    # ------------------------------------------------------------------

    def record_encounter(
        self,
        left: DeviceId,
        right: DeviceId,
        distance: float,
        duration: float | None = None,
    ) -> None:
        """Log one mutual encounter; both endpoints get mirror records."""
        try:
            left_handle = self._handle.get(left.digest)
            right_handle = self._handle.get(right.digest)
            if left_handle is None or right_handle is None:
                raise UnknownDeviceError("both encounter endpoints must be registered")
            if left_handle == right_handle:
                raise ValidationError("device cannot meet itself")
            if not 0 < distance <= self._policy.bluetooth_range_m:
                raise ValidationError(
                    f"distance {distance} m outside (0, {self._policy.bluetooth_range_m}] m"
                )
            distance = float(distance)
            if duration is None:
                dur = self._policy.encounter_duration_s
            elif 0 <= duration <= _FLOAT_MAX:
                dur = float(duration)
            else:
                raise ValidationError("duration must be non-negative and finite")
            # The last check: _book books nothing if the summed duration overflows.
            self._book(left_handle, right_handle, distance, dur)
        except ProxTraceError as exc:
            self._fail("encounter_recorded", left.hex, exc)
            raise
        if self._log_events:
            self._log(
                "encounter_recorded", self._hexes[left_handle], "ok",
                peer=self._hexes[right_handle], distance=distance, duration=dur,
            )

    def _book(self, left: int, right: int, distance: float, duration: float) -> None:
        """Book one encounter of the clock day on both endpoints: min
        distance, summed duration.

        A new pair-day appends one slot to the distance and duration columns,
        and the two endpoints share its index, so a repeat updates both
        records in place; durations are summed in arrival order.  A repeat
        whose summed duration would overflow raises ValidationError and books
        nothing.
        """
        today = self._today
        left_peers = today.get(left)
        if left_peers is None:
            left_peers = today[left] = {}
        slot = left_peers.get(right)
        if slot is None:
            slot = len(self._min_distance)
            self._min_distance.append(distance)
            self._total_duration.append(duration)
            self._day_ends.append(left)
            self._day_ends.append(right)
            left_peers[right] = slot
            right_peers = today.get(right)
            if right_peers is None:
                today[right] = {left: slot}
            else:
                right_peers[left] = slot
        else:
            durations = self._total_duration
            total = _summed_duration(durations[slot], duration)
            if distance < self._min_distance[slot]:
                self._min_distance[slot] = distance
            durations[slot] = total

    def scan_handshake(
        self,
        scanner: DeviceId,
        neighbors: Sequence[tuple[DeviceId, float]],
        weights: WeightConfig = DEFAULT_WEIGHTS,
    ) -> ScanResult:
        """One proximity sweep: record encounters, score the area.

        Unregistered neighbors are ignored entirely.  With no registered
        neighbor in range there is nothing to score and the result carries
        a null class (the documented no-data outcome).  The scanner learns
        only the classified area risk, never any neighbor's status.
        """
        try:
            own = self._resolve(scanner, "scanner")
            if len(weights) < len(Category):
                raise ValidationError(
                    f"a scan needs {len(Category)} category weights, got {len(weights)}"
                )
            # Logged text for each neighbour: the hex column's for a registered one.
            hexes = self._hexes
            logged = []
            registered = []
            for peer, distance in neighbors:
                if not 0 < distance <= self._policy.bluetooth_range_m:
                    raise ValidationError(
                        f"neighbor at {distance} m outside (0, {self._policy.bluetooth_range_m}] m"
                    )
                handle = self._handle.get(peer.digest)
                logged.append([peer.hex if handle is None else hexes[handle], distance])
                if handle is not None and handle != own:
                    registered.append((handle, float(distance)))
            day = self.clock.current_day
            duration = self._policy.encounter_duration_s
            # Every sum the bookings below make is checked before the first one.
            booked = dict(zip(*self._pairs(own, day)))
            durations = self._total_duration
            sums = {h: durations[booked[h]] if h in booked else 0.0 for h, _ in registered}
            for handle, _ in registered:
                sums[handle] = _summed_duration(sums[handle], duration)
            distances = [distance for _, distance in registered]
            if registered:
                # Scored as if every neighbour were infected: no weight tops the first and
                # rounding is monotone, so this bounds the score the bookings below lead to.
                score_from_arrays([0] * len(distances), distances, weights)
        except ProxTraceError as exc:
            self._fail("scan", scanner.hex, exc)
            raise
        for handle, distance in registered:
            self._book(own, handle, distance, duration)
        risk_class = note = None
        if registered:
            categories = [self._categorize(handle, day) for handle, _ in registered]
            risk_class = classify(score_from_arrays(categories, distances, weights))
            note = self._emit(scanner, NotificationKind.AREA_RISK, risk_class)
        self._log("scan", hexes[own], "ok", neighbors=logged, weights=list(weights.weights))
        return ScanResult(risk_class=risk_class, notification=note, neighbors_seen=len(registered))

    def _categorize(self, handle: int, day: int) -> int:
        """Category of one observed neighbor, judged on current knowledge."""
        if self._infected[handle]:
            return 0  # infected
        exposure = self._exposure_on(day)
        if exposure[handle]:
            return 1  # contact of an infected device within the window
        met_infected = exposure.__getitem__
        for d in self._window(day):
            if any(map(met_infected, self._pairs(handle, d)[0])):
                return 2  # contact of a category-B device within the window
        return 3

    def _window(self, day: int) -> range:
        """The days of the contact window ending on `day`; none is negative,
        so a window of up to 2**62 days ending early is a short range."""
        return range(max(day - self._policy.contact_window_days, 0), day + 1)

    def _exposure_on(self, day: int) -> list[int]:
        """The exposure column of the window ending on `day`: entry h is
        nonzero when h met a device that is infected now in that window.

        The first read for a day builds it from the infected devices' window
        rows; a read for another day builds it again.  A later read catches
        it up first, if a slot was booked or a device registered since.
        """
        exposure = self._exposure
        if exposure is None or self._exposure_day != day:
            exposure = self._exposure = [0] * len(self._ids)
            self._exposure_day = day
            self._exposure_ends = len(self._day_ends)
            for handle in compress(range(len(self._ids)), self._infected):
                self._shift(handle, 1)
        elif self._exposure_ends != len(self._day_ends) or len(exposure) != len(self._ids):
            self._catch_up()
        return exposure

    def _catch_up(self) -> None:
        """Count into the exposure column the devices registered and the clock
        day's slots booked since it last read them, under the flags as they are."""
        exposure = self._exposure
        exposure += [0] * (len(self._ids) - len(exposure))
        ends = self._day_ends
        if self._clock.current_day in self._window(self._exposure_day):
            infected = self._infected
            for k in range(self._exposure_ends, len(ends), 2):
                left, right = ends[k], ends[k + 1]
                if infected[left]:
                    exposure[right] += 1
                if infected[right]:
                    exposure[left] += 1
        self._exposure_ends = len(ends)

    def _shift(self, handle: int, delta: int) -> None:
        """Move the exposure count of each of the device's peers in the
        column's window by delta, as the device's infected flag flips."""
        exposure = self._exposure
        for d in self._window(self._exposure_day):
            for peer in self._pairs(handle, d)[0]:
                exposure[peer] += delta

    # ------------------------------------------------------------------
    # status checker
    # ------------------------------------------------------------------

    def status_checker_tick(self, device: DeviceId) -> Notification | None:
        """Periodic per-device check.

        Emits a status-positive notification when the stage flipped to
        infected since the previous tick; otherwise re-evaluates the recent
        contact window and emits contact-at-risk if any windowed contact is
        currently infected.
        """
        try:
            handle = self._resolve(device)
        except ProxTraceError as exc:
            self._fail("status_check", device.hex, exc)
            raise
        day = self.clock.current_day
        stage = self._stage[handle]
        previous = self._last_checked[handle]
        self._last_checked[handle] = stage
        if stage is Stage.INFECTED and previous is not Stage.INFECTED:
            note = self._emit(device, NotificationKind.STATUS_POSITIVE)
        elif self._exposure_on(day)[handle]:
            note = self._emit(device, NotificationKind.CONTACT_AT_RISK)
        else:
            note = None
        self._log("status_check", self._hexes[handle], "ok")
        return note

    # ------------------------------------------------------------------
    # audit: digest, log persistence, replay
    # ------------------------------------------------------------------

    def state_digest(self) -> str:
        """Order-independent digest of the full registry state.

        The SHA-256 of its state lines joined by newlines, UTF-8 encoded,
        hashed one line at a time, so no list or text of every line is held.
        """
        digest = hashlib.sha256()
        separator = ""
        for line in self._state_lines():
            digest.update((separator + line).encode("utf-8"))
            separator = "\n"
        return digest.hexdigest()

    def _state_lines(self) -> Iterator[str]:
        """state_digest's lines: devices, codes, contacts, notifications, each sorted."""
        hexes = self._hexes
        for handle in sorted(range(len(hexes)), key=hexes.__getitem__):
            record = self._record(handle)
            q = record.quarantine
            q_text = f"{q.start_day},{q.end_day}" if q is not None else "-"
            yield f"device|{hexes[handle]}|{record.stage.value}|{q_text}|{record.registered_day}"
        for code in sorted(self.otcs):
            otc = self.otcs[code]
            yield f"otc|{code}|{otc.issued_day}|{int(otc.consumed)}"
        for owner_hex, peer_hex, day, distance, duration in self._sorted_contact_rows():
            yield f"contact|{owner_hex}|{day}|{peer_hex}|{distance!r}|{duration!r}"
        for note in sorted(
            self.notifications, key=lambda n: (n.day, n.kind.value, n.recipient.hex)
        ):
            cls = note.risk_class.name if note.risk_class is not None else "-"
            yield f"notify|{note.day}|{note.kind.value}|{note.recipient.hex}|{cls}"

    @classmethod
    def replay(
        cls,
        events: Iterable[Event],
        staff_credentials: Iterable[str],
        *,
        policy: RegistryPolicy = RegistryPolicy(),
    ) -> "Registry":
        """Rebuild a registry from its event log.

        Only successful events change state; failed ones are audit-only.
        Each successful event is re-run through the live method that logged
        it, with logging off, so it passes the same precondition checks; the
        rebuilt registry keeps the log's own events, in a list of its own.
        Its state_digest matches the live one's.  An event that cannot be
        applied, or that is dated before the event ahead of it, raises
        ValidationError naming its position.  Each distinct id text in the
        log is parsed once.
        """
        events = list(events)
        registry = cls._rebuilt(events, staff_credentials, policy)
        registry.events = events
        registry._log_events = True
        return registry

    @classmethod
    def _rebuilt(
        cls,
        events: Iterable[Event],
        staff_credentials: Iterable[str],
        policy: RegistryPolicy = RegistryPolicy(),
    ) -> "Registry":
        """replay's registry with logging off and no events kept: each event
        is applied and dropped, so a stream of events is rebuilt in the
        memory of the state alone."""
        registry = cls(staff_credentials, policy=policy, log_events=False)
        parse_id = hex_interner()
        for position, event in enumerate(events, start=1):
            today = registry.clock.current_day
            try:
                if type(event.day) is not int or event.day != today:
                    clock = SimClock(event.day)  # a day SimClock refuses fails here
                    if clock.current_day < today:
                        raise ValidationError(
                            f"dated day {event.day}, but the log has reached day {today}"
                        )
                    registry.advance_clock(clock)
                if event.outcome == "ok":
                    registry._replay_one(event, parse_id)
            except (KeyError, ValueError, TypeError, ArithmeticError, ProxTraceError) as exc:
                raise ValidationError(
                    f"event {position}: cannot replay {event.operation!r} "
                    f"({type(exc).__name__}: {exc})"
                ) from exc
        return registry

    def _replay_one(self, event: Event, parse_id: Callable[[str], DeviceId]) -> None:
        op = event.operation
        details = event.details
        if op == "otc_issued":
            # The code is the logged one, not a fresh draw from the stream.
            code = str(details["code"])
            if code in self.otcs:
                raise ValidationError("code already issued")
            self.otcs[code] = Otc(code=code, issued_day=self.clock.current_day)
        elif op == "user_registered":
            self._register(
                str(details["code"]), parse_id(event.actor), Stage(str(details["status"]))
            )
        elif op == "status_updated":
            self.update_status(
                str(details["code"]), parse_id(event.actor), Stage(str(details["status"]))
            )
        elif op == "encounter_recorded":
            self.record_encounter(
                parse_id(event.actor),
                parse_id(str(details["peer"])),
                float(details["distance"]),  # type: ignore[arg-type]
                float(details["duration"]),  # type: ignore[arg-type]
            )
        elif op == "scan":
            neighbors = [
                (parse_id(str(peer)), float(distance))
                for peer, distance in details["neighbors"]  # type: ignore[union-attr]
            ]
            weights = WeightConfig(tuple(float(w) for w in details["weights"]))  # type: ignore[union-attr]
            self.scan_handshake(parse_id(event.actor), neighbors, weights)
        elif op == "status_check":
            self.status_checker_tick(parse_id(event.actor))
        else:
            raise ValidationError(f"unknown event operation {op!r}")


# =========================================================================
# Event log CSV
# =========================================================================

# One encoder for every event: json.dumps with these options builds a new one per call.
_DETAILS_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_ENCOUNTER_KEYS = frozenset(("distance", "duration", "peer"))
# An encounter's details text in the one shape write_event_log gives it.  A
# JSON number with a fraction or an exponent is one json.loads reads as
# float(text), and ASCII alphanumeric text holds no escape, so a match
# decodes to the dict json.loads gives.  Compiled by the first read, not at
# import: only replay reads a log.
_NUMBER = r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)"
_ENCOUNTER_DETAILS = rf'\{{"distance":({_NUMBER}),"duration":({_NUMBER}),"peer":"([0-9A-Za-z]+)"\}}'


def write_event_log(events: Sequence[Event], path: str | Path) -> None:
    """Write the events as CSV rows of EVENT_LOG_HEADER; details are _DETAILS_JSON's text.

    Most rows of a registry's log are encounters, so one whose day is an
    int, whose actor, outcome and peer hold only ASCII letters and digits and
    whose numbers are finite floats is written as one pre-quoted line: JSON
    writes such a float as its repr and escapes nothing in such text, and
    csv.writer quotes none of those columns, so the line is the bytes
    csv.writer gives for the encoder's text.  Every other row goes through
    both.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(EVENT_LOG_HEADER)
        write = handle.write
        isfinite = math.isfinite
        for event in events:
            details = event.details
            if event.operation == "encounter_recorded" and details.keys() == _ENCOUNTER_KEYS:
                day, actor, outcome = event.day, event.actor, event.outcome
                distance, duration, peer = details["distance"], details["duration"], details["peer"]
                if (
                    type(day) is int
                    and type(actor) is type(outcome) is type(peer) is str
                    and (text := actor + outcome + peer).isascii() and text.isalnum()
                    and type(distance) is float and isfinite(distance)
                    and type(duration) is float and isfinite(duration)
                ):
                    write(
                        f'{day},encounter_recorded,{actor},{outcome},"{{""distance"":{distance!r},'
                        f'""duration"":{duration!r},""peer"":""{peer}""}}"\r\n'
                    )
                    continue
            writer.writerow((
                event.day, event.operation, event.actor, event.outcome,
                _DETAILS_JSON.encode(dict(details)),
            ))


def read_event_log(path: str | Path) -> list[Event]:
    """The events of a log written by write_event_log, in file order.

    A row with more or fewer columns than EVENT_LOG_HEADER is malformed.
    The operation, actor and outcome columns and the encounters' peers
    repeat the same few thousand texts, so each distinct text is kept once
    per read and shared by every event that carries it.  Details in
    _ENCOUNTER_DETAILS's shape are decoded by the pattern, all others by
    json.loads.
    """
    return list(_read_events(path))


def _read_events(path: str | Path) -> Iterator[Event]:
    """read_event_log's events one at a time: a malformed row raises
    ValidationError when the reader reaches it, after every event ahead of
    it has been yielded."""
    shared = {}.setdefault
    encounter = re.compile(_ENCOUNTER_DETAILS).fullmatch
    with open(path, newline="") as handle, _unreadable_text_is_invalid(path):
        reader = csv.reader(handle)
        for lineno, row in enumerate(reader, start=1):
            if not row or (lineno == 1 and tuple(row) == EVENT_LOG_HEADER):
                continue
            try:  # the columns of EVENT_LOG_HEADER, in order
                if len(row) != len(EVENT_LOG_HEADER):
                    raise ValueError(f"{len(row)} columns, not {len(EVENT_LOG_HEADER)}")
                day_text, operation, actor, outcome, details = row
                match = encounter(details)
                if match is not None:
                    distance, duration, peer = match.groups()
                    parsed = {
                        "distance": float(distance), "duration": float(duration),
                        "peer": shared(peer, peer),
                    }
                else:
                    parsed = json.loads(details) if details else {}
                event = Event(
                    int(day_text), shared(operation, operation), shared(actor, actor),
                    shared(outcome, outcome), parsed,
                )
            except (ValueError, RecursionError) as exc:  # too deeply nested JSON
                raise ValidationError(f"line {lineno}: malformed event row ({exc})") from exc
            yield event
