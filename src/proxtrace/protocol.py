"""Registration, verified status updates, proximity scans, notifications.

Every piece of shared state lives in a single Registry instance and all
mutations are serialized through its methods, so the rest of the package
can treat it as the one source of truth.  Staff-facing operations are
gated by single-use codes (OTCs): a code authorizes exactly one
successful registration or status update and is consumed atomically with
that operation.  Failed operations leave the code fresh, except that
presenting an already-consumed code is itself the failure.

The registry keeps an append-only event log.  Replaying a log into a
fresh registry reproduces the final state bit-exactly (state_digest is
the equality witness), which is what makes the log an audit trail rather
than just a diagnostic.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import csv

from .core import (
    CONTACT_WINDOW_DAYS,
    DEFAULT_BLUETOOTH_RANGE_M,
    DEFAULT_QUARANTINE_DAYS,
    ContactList,
    ContactRecord,
    DeviceId,
    HealthStatus,
    Quarantine,
    SimClock,
    Stage,
    hash_identifier,
    validate_transition,
)
from .errors import (
    AlreadyRegisteredError,
    AuthorizationError,
    InvalidOtcError,
    OtcReplayError,
    UnknownDeviceError,
    ValidationError,
)
from .risk import (
    DEFAULT_WEIGHTS,
    AreaObservation,
    Observation,
    RiskClass,
    WeightConfig,
    assess_area,
    classify,
)
from .tracing import CoContactList, trace_co_contacts

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
    """Registry row for one device: identity, health, registration day."""

    device: DeviceId
    status: HealthStatus
    registered_day: int


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


@dataclass(frozen=True)
class Event:
    """One audit-log row."""

    day: int
    operation: str
    actor: str
    outcome: str
    details: Mapping[str, object] = field(default_factory=dict)


EVENT_LOG_HEADER = ("day", "operation", "actor_digest", "outcome", "details")


# =========================================================================
# Contact storage
# =========================================================================

class _ContactStore:
    """Mutable contact graph: owner -> day -> peer -> [min_dist, total_dur].

    The registry owns exactly one of these; immutable ContactList views are
    materialized on demand so tracing and serialization see value types.
    """

    def __init__(self) -> None:
        self._entries: dict[DeviceId, dict[int, dict[DeviceId, list[float]]]] = {}

    def add(self, owner: DeviceId, peer: DeviceId, day: int, distance: float, duration: float) -> None:
        days = self._entries.setdefault(owner, {})
        peers = days.setdefault(day, {})
        slot = peers.get(peer)
        if slot is None:
            peers[peer] = [distance, duration]
        else:
            slot[0] = min(slot[0], distance)
            slot[1] += duration

    def window_peers(self, owner: DeviceId, first_day: int, last_day: int) -> Iterator[DeviceId]:
        days = self._entries.get(owner)
        if not days:
            return
        for day in range(first_day, last_day + 1):
            yield from days.get(day, ())

    def contact_list(self, owner: DeviceId) -> ContactList:
        records = []
        for day, peers in self._entries.get(owner, {}).items():
            for peer, (distance, duration) in peers.items():
                records.append(ContactRecord(peer=peer, day=day, distance=distance, duration=duration))
        return ContactList(owner, tuple(records))

    def rows(self) -> list[tuple[str, int, str, float, float]]:
        out = []
        for owner, days in self._entries.items():
            for day, peers in days.items():
                for peer, (distance, duration) in peers.items():
                    out.append((owner.hex, day, peer.hex, distance, duration))
        out.sort()
        return out


class ContactGraphView(Mapping[DeviceId, ContactList]):
    """Read-only mapping over the registry's contact graph.

    Every registered device is present (possibly with an empty list), so
    tracing can distinguish "no contacts" from "unknown device".
    """

    def __init__(self, registry: "Registry") -> None:
        self._registry = registry

    def __getitem__(self, device: DeviceId) -> ContactList:
        if device not in self._registry.devices:
            raise KeyError(device)
        return self._registry._store.contact_list(device)

    def __iter__(self) -> Iterator[DeviceId]:
        return iter(self._registry.devices)

    def __len__(self) -> int:
        return len(self._registry.devices)

    def __contains__(self, device: object) -> bool:
        return device in self._registry.devices


class _MinDurationView(Mapping[DeviceId, ContactList]):
    """Graph view that drops the index case's brief contacts before tracing."""

    def __init__(self, base: ContactGraphView, index_case: DeviceId, min_duration: float) -> None:
        self._base = base
        self._index = index_case
        self._min = min_duration

    def __getitem__(self, device: DeviceId) -> ContactList:
        contacts = self._base[device]
        if device != self._index:
            return contacts
        kept = tuple(rec for rec in contacts.records if rec.duration >= self._min)
        return ContactList(device, kept)

    def __iter__(self) -> Iterator[DeviceId]:
        return iter(self._base)

    def __len__(self) -> int:
        return len(self._base)

    def __contains__(self, device: object) -> bool:
        return device in self._base


# =========================================================================
# Registry
# =========================================================================

class Registry:
    """Single logical owner of devices, codes, contacts, and notifications."""

    def __init__(
        self,
        staff_credentials: Iterable[str],
        *,
        seed: int = 0,
        policy: RegistryPolicy = RegistryPolicy(),
        clock: SimClock = SimClock(0),
        log_events: bool = True,
    ) -> None:
        self.policy = policy
        self.clock = clock
        self.devices: dict[DeviceId, DeviceRecord] = {}
        self.otcs: dict[str, Otc] = {}
        self.notifications: list[Notification] = []
        self.events: list[Event] = []
        self._staff = frozenset(staff_credentials)
        self._rng = random.Random(seed)
        self._notified: set[tuple[DeviceId, NotificationKind, int]] = set()
        self._last_checked: dict[DeviceId, Stage] = {}
        self._store = _ContactStore()
        self._log_events = log_events

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def advance_clock(self, clock: SimClock | None) -> SimClock:
        if clock is not None:
            if clock.current_day < self.clock.current_day:
                raise ValidationError("registry clock cannot move backwards")
            self.clock = clock
        return self.clock

    def _log(self, operation: str, actor: str, outcome: str, **details: object) -> None:
        if self._log_events:
            self.events.append(Event(self.clock.current_day, operation, actor, outcome, details))

    def _fail(self, operation: str, actor: str, error: Exception, **details: object) -> Exception:
        self._log(operation, actor, type(error).__name__, **details)
        return error

    def _emit(
        self,
        recipient: DeviceId,
        kind: NotificationKind,
        day: int,
        risk_class: RiskClass | None = None,
    ) -> Notification | None:
        key = (recipient, kind, day)
        if key in self._notified:
            return None
        self._notified.add(key)
        note = Notification(recipient, kind, day, risk_class)
        self.notifications.append(note)
        return note

    @property
    def contact_graph(self) -> ContactGraphView:
        return ContactGraphView(self)

    def contact_list(self, device: DeviceId) -> ContactList:
        if device not in self.devices:
            raise UnknownDeviceError(f"device {device.hex} is not registered")
        return self._store.contact_list(device)

    # ------------------------------------------------------------------
    # one-time codes
    # ------------------------------------------------------------------

    def issue_otc(self, staff_credential: str) -> Otc:
        """Mint a fresh single-use code; staff credential required."""
        if staff_credential not in self._staff:
            raise self._fail("otc_issued", "staff", AuthorizationError("credential not accepted"))
        code = f"{self._rng.getrandbits(_OTC_BITS):032x}"
        while code in self.otcs:  # collision chance ~2**-128, but be exact
            code = f"{self._rng.getrandbits(_OTC_BITS):032x}"
        otc = self._insert_otc(code, self.clock.current_day)
        self._log("otc_issued", "staff", "ok", code=code)
        return otc

    def _insert_otc(self, code: str, issued_day: int) -> Otc:
        otc = Otc(code=code, issued_day=issued_day)
        self.otcs[code] = otc
        return otc

    def _checked_otc(self, code: str, operation: str, actor: str) -> Otc:
        otc = self.otcs.get(code)
        if otc is None:
            raise self._fail(operation, actor, InvalidOtcError("code was never issued"))
        if otc.consumed:
            raise self._fail(operation, actor, OtcReplayError("code already consumed"))
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
        device = hash_identifier(device_raw_id)
        otc = self._checked_otc(otc_code, "user_registered", device.hex)
        if device in self.devices:
            raise self._fail(
                "user_registered",
                device.hex,
                AlreadyRegisteredError(f"device {device.hex} is already registered"),
            )
        otc.consumed = True
        record = self._insert_device(device, initial_stage, self.clock.current_day)
        self._log(
            "user_registered", device.hex, "ok",
            code=otc_code, status=initial_stage.value,
        )
        return record

    def _insert_device(self, device: DeviceId, stage: Stage, day: int) -> DeviceRecord:
        record = DeviceRecord(device=device, status=HealthStatus(stage), registered_day=day)
        self.devices[device] = record
        self._last_checked[device] = stage
        return record

    # ------------------------------------------------------------------
    # status updates and the notification cascade
    # ------------------------------------------------------------------

    def update_status(
        self,
        otc_code: str,
        device: DeviceId,
        new_stage: Stage,
        clock: SimClock | None = None,
    ) -> list[Notification]:
        """Verified stage change.  An infection triggers the full cascade:

        quarantine for the device, a co-contact trace over its recent
        contacts, quarantine plus a contact-at-risk notification for every
        traced device, and a status-positive notification to the reporter.
        Returns the notifications actually emitted (duplicates for the same
        recipient, kind, and day are suppressed).
        """
        self.advance_clock(clock)
        actor = device.hex
        if device not in self.devices:
            raise self._fail(
                "status_updated", actor, UnknownDeviceError(f"device {actor} is not registered")
            )
        otc = self._checked_otc(otc_code, "status_updated", actor)
        record = self.devices[device]
        try:
            validate_transition(record.status.stage, new_stage)
        except ValidationError as exc:
            raise self._fail("status_updated", actor, exc)
        otc.consumed = True
        notes = self._apply_status_update(device, new_stage)
        self._log(
            "status_updated", actor, "ok",
            code=otc_code, status=new_stage.value,
        )
        return notes

    def _apply_status_update(self, device: DeviceId, new_stage: Stage) -> list[Notification]:
        day = self.clock.current_day
        record = self.devices[device]
        self.devices[device] = DeviceRecord(
            device=device,
            status=record.status.with_stage(new_stage),
            registered_day=record.registered_day,
        )
        if new_stage is not Stage.INFECTED:
            return []
        emitted: list[Notification] = []
        self._quarantine(device, day)
        note = self._emit(device, NotificationKind.STATUS_POSITIVE, day)
        if note is not None:
            emitted.append(note)
        for contact in self._traced_set(device):
            self._quarantine(contact, day)
            note = self._emit(contact, NotificationKind.CONTACT_AT_RISK, day)
            if note is not None:
                emitted.append(note)
        return emitted

    def _traced_set(self, device: DeviceId) -> CoContactList:
        graph: Mapping[DeviceId, ContactList] = self.contact_graph
        if self.policy.min_contact_duration_s > 0:
            graph = _MinDurationView(self.contact_graph, device, self.policy.min_contact_duration_s)
        return trace_co_contacts(device, graph, self.clock)

    def _quarantine(self, device: DeviceId, day: int) -> None:
        # Isolation takes effect the day after notification and runs for the
        # policy duration; a later notification replaces a shorter window.
        if self.policy.quarantine_days <= 0:
            return  # zero-day policy means notify-only, no isolation window
        window = Quarantine.starting(day + 1, self.policy.quarantine_days)
        record = self.devices[device]
        current = record.status.quarantine
        if current is not None and current.end_day >= window.end_day:
            return
        self.devices[device] = DeviceRecord(
            device=device,
            status=record.status.with_quarantine(window),
            registered_day=record.registered_day,
        )

    # ------------------------------------------------------------------
    # encounters and scans
    # ------------------------------------------------------------------

    def record_encounter(
        self,
        left: DeviceId,
        right: DeviceId,
        distance: float,
        duration: float | None = None,
        clock: SimClock | None = None,
    ) -> None:
        """Log one mutual encounter; both endpoints get mirror records."""
        self.advance_clock(clock)
        if left not in self.devices or right not in self.devices:
            raise self._fail(
                "encounter_recorded", left.hex,
                UnknownDeviceError("both encounter endpoints must be registered"),
            )
        if left == right:
            raise self._fail(
                "encounter_recorded", left.hex, ValidationError("device cannot meet itself")
            )
        if not 0 < distance <= self.policy.bluetooth_range_m:
            raise self._fail(
                "encounter_recorded", left.hex,
                ValidationError(
                    f"distance {distance} m outside (0, {self.policy.bluetooth_range_m}] m"
                ),
            )
        dur = self.policy.encounter_duration_s if duration is None else float(duration)
        if dur < 0:
            raise self._fail(
                "encounter_recorded", left.hex, ValidationError("duration must be non-negative")
            )
        self._record_encounter_core(left, right, self.clock.current_day, distance, dur)
        self._log(
            "encounter_recorded", left.hex, "ok",
            peer=right.hex, distance=distance, duration=dur,
        )

    def _record_encounter_core(
        self, left: DeviceId, right: DeviceId, day: int, distance: float, duration: float
    ) -> None:
        self._store.add(left, right, day, distance, duration)
        self._store.add(right, left, day, distance, duration)

    def scan_handshake(
        self,
        scanner: DeviceId,
        neighbors: Sequence[tuple[DeviceId, float]],
        weights: WeightConfig = DEFAULT_WEIGHTS,
        clock: SimClock | None = None,
    ) -> ScanResult:
        """One proximity sweep: record encounters, score the area.

        Unregistered neighbors are ignored entirely.  With no registered
        neighbor in range there is nothing to score and the result carries
        a null class (the documented no-data outcome).  The scanner learns
        only the classified area risk, never any neighbor's status.
        """
        self.advance_clock(clock)
        actor = scanner.hex
        if scanner not in self.devices:
            raise self._fail(
                "scan", actor, UnknownDeviceError(f"scanner {actor} is not registered")
            )
        for peer, distance in neighbors:
            if not 0 < distance <= self.policy.bluetooth_range_m:
                raise self._fail(
                    "scan", actor,
                    ValidationError(
                        f"neighbor at {distance} m outside (0, {self.policy.bluetooth_range_m}] m"
                    ),
                )
        result = self._scan_core(scanner, [(p, float(d)) for p, d in neighbors], weights)
        self._log(
            "scan", actor, "ok",
            neighbors=[[p.hex, d] for p, d in neighbors],
            weights=list(weights.weights),
        )
        return result

    def _scan_core(
        self,
        scanner: DeviceId,
        neighbors: list[tuple[DeviceId, float]],
        weights: WeightConfig,
    ) -> ScanResult:
        day = self.clock.current_day
        registered = [(peer, d) for peer, d in neighbors if peer in self.devices and peer != scanner]
        for peer, distance in registered:
            self._record_encounter_core(
                scanner, peer, day, distance, self.policy.encounter_duration_s
            )
        if not registered:
            return ScanResult(risk_class=None, notification=None, neighbors_seen=0)
        observations = tuple(
            Observation(peer=peer, category=int(self._categorize(peer, day)), distance=d)
            for peer, d in registered
        )
        area = AreaObservation(radius=self.policy.bluetooth_range_m, observations=observations)
        risk_class = classify(assess_area(area, weights))
        note = self._emit(scanner, NotificationKind.AREA_RISK, day, risk_class=risk_class)
        return ScanResult(risk_class=risk_class, notification=note, neighbors_seen=len(registered))

    def _categorize(self, device: DeviceId, day: int) -> int:
        """Category of one observed neighbor, judged on current knowledge."""
        if self.devices[device].status.stage is Stage.INFECTED:
            return 0  # infected
        if self._met_infected(device, day):
            return 1  # contact of an infected device within the window
        window = self._store.window_peers(
            device, day - self.policy.contact_window_days, day
        )
        for peer in window:
            if peer != device and self._met_infected(peer, day):
                return 2  # contact of a category-B device within the window
        return 3

    def _met_infected(self, device: DeviceId, day: int) -> bool:
        window = self._store.window_peers(device, day - self.policy.contact_window_days, day)
        for peer in window:
            record = self.devices.get(peer)
            if record is not None and record.status.stage is Stage.INFECTED:
                return True
        return False

    # ------------------------------------------------------------------
    # status checker
    # ------------------------------------------------------------------

    def status_checker_tick(self, device: DeviceId, clock: SimClock | None = None) -> Notification | None:
        """Periodic per-device check.

        Emits a status-positive notification when the stage flipped to
        infected since the previous tick; otherwise re-evaluates the recent
        contact window and emits contact-at-risk if any windowed contact is
        currently infected.
        """
        self.advance_clock(clock)
        actor = device.hex
        if device not in self.devices:
            raise self._fail(
                "status_check", actor, UnknownDeviceError(f"device {actor} is not registered")
            )
        note = self._status_check_core(device)
        self._log("status_check", actor, "ok")
        return note

    def _status_check_core(self, device: DeviceId) -> Notification | None:
        day = self.clock.current_day
        stage = self.devices[device].status.stage
        previous = self._last_checked.get(device)
        self._last_checked[device] = stage
        if stage is Stage.INFECTED and previous is not Stage.INFECTED:
            return self._emit(device, NotificationKind.STATUS_POSITIVE, day)
        if self._met_infected(device, day):
            return self._emit(device, NotificationKind.CONTACT_AT_RISK, day)
        return None

    # ------------------------------------------------------------------
    # audit: digest, log persistence, replay
    # ------------------------------------------------------------------

    def state_digest(self) -> str:
        """Order-independent digest of the full registry state."""
        lines: list[str] = []
        for device in sorted(self.devices):
            record = self.devices[device]
            q = record.status.quarantine
            q_text = f"{q.start_day},{q.end_day}" if q is not None else "-"
            lines.append(
                f"device|{device.hex}|{record.status.stage.value}|{q_text}|{record.registered_day}"
            )
        for code in sorted(self.otcs):
            otc = self.otcs[code]
            lines.append(f"otc|{code}|{otc.issued_day}|{int(otc.consumed)}")
        for owner_hex, day, peer_hex, distance, duration in self._store.rows():
            lines.append(f"contact|{owner_hex}|{day}|{peer_hex}|{distance!r}|{duration!r}")
        for note in sorted(
            self.notifications, key=lambda n: (n.day, n.kind.value, n.recipient.hex)
        ):
            cls = note.risk_class.name if note.risk_class is not None else "-"
            lines.append(f"notify|{note.day}|{note.kind.value}|{note.recipient.hex}|{cls}")
        blob = "\n".join(lines).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    @classmethod
    def replay(
        cls,
        events: Sequence[Event],
        staff_credentials: Iterable[str],
        *,
        policy: RegistryPolicy = RegistryPolicy(),
    ) -> "Registry":
        """Rebuild a registry from its event log.

        Only successful events change state; failed ones are audit-only.
        The rebuilt registry's state_digest matches the live one's.  An
        event that cannot be applied raises ValidationError naming its position.
        """
        registry = cls(staff_credentials, policy=policy, log_events=True)
        for position, event in enumerate(events, start=1):
            if event.day > registry.clock.current_day:
                registry.clock = SimClock(event.day)
            if event.outcome != "ok":
                registry.events.append(event)
                continue
            try:
                registry._replay_one(event)
            except (KeyError, ValueError, TypeError) as exc:
                raise ValidationError(
                    f"event {position}: cannot replay {event.operation!r} "
                    f"({type(exc).__name__}: {exc})"
                ) from exc
        return registry

    def _replay_one(self, event: Event) -> None:
        op = event.operation
        details = event.details
        if op == "otc_issued":
            self._insert_otc(str(details["code"]), event.day)
        elif op == "user_registered":
            code = str(details["code"])
            self.otcs[code].consumed = True
            self._insert_device(
                DeviceId.from_hex(event.actor), Stage(str(details["status"])), event.day
            )
        elif op == "status_updated":
            code = str(details["code"])
            self.otcs[code].consumed = True
            self._apply_status_update(DeviceId.from_hex(event.actor), Stage(str(details["status"])))
        elif op == "encounter_recorded":
            self._record_encounter_core(
                DeviceId.from_hex(event.actor),
                DeviceId.from_hex(str(details["peer"])),
                event.day,
                float(details["distance"]),  # type: ignore[arg-type]
                float(details["duration"]),  # type: ignore[arg-type]
            )
        elif op == "scan":
            neighbors = [
                (DeviceId.from_hex(str(peer)), float(distance))
                for peer, distance in details["neighbors"]  # type: ignore[union-attr]
            ]
            weights = WeightConfig(tuple(float(w) for w in details["weights"]))  # type: ignore[union-attr]
            self._scan_core(DeviceId.from_hex(event.actor), neighbors, weights)
        elif op == "status_check":
            self._status_check_core(DeviceId.from_hex(event.actor))
        else:
            raise ValidationError(f"unknown event operation {op!r}")
        self.events.append(event)


# =========================================================================
# Event log CSV
# =========================================================================

def write_event_log(events: Sequence[Event], path: str | Path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(EVENT_LOG_HEADER)
        for event in events:
            writer.writerow(
                [
                    event.day,
                    event.operation,
                    event.actor,
                    event.outcome,
                    json.dumps(dict(event.details), sort_keys=True, separators=(",", ":")),
                ]
            )


def read_event_log(path: str | Path) -> list[Event]:
    events: list[Event] = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        for lineno, row in enumerate(reader, start=1):
            if not row or (lineno == 1 and tuple(row) == EVENT_LOG_HEADER):
                continue
            try:
                events.append(
                    Event(
                        day=int(row[0]),
                        operation=row[1],
                        actor=row[2],
                        outcome=row[3],
                        details=json.loads(row[4]) if row[4] else {},
                    )
                )
            except (IndexError, ValueError) as exc:
                raise ValidationError(f"line {lineno}: malformed event row ({exc})") from exc
    return events
