"""Shared domain types for proximity tracing.

Hashed device identities, health stages and quarantine windows, contact
records and per-device contact lists, and the day-granularity clock the
rest of the package runs on.  Everything here is an immutable value type,
so snapshots can be shared freely.  Also the process-pool fan-out the
curve, surface and replicate runs share.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum, IntEnum
from numbers import Integral
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import TransitionError, ValidationError

# Width of every device digest, in bytes.
DIGEST_BYTES = 16

# Policy constants shared across modules.
DEFAULT_BLUETOOTH_RANGE_M = 10.0
DEFAULT_QUARANTINE_DAYS = 10
CONTACT_WINDOW_DAYS = 2

# `x <= _FLOAT_MAX` fails for an int too large for a float, where `x < math.inf` holds.
_FLOAT_MAX = sys.float_info.max


# =========================================================================
# Device identity
# =========================================================================

@dataclass(frozen=True, order=True)
class DeviceId:
    """Opaque fixed-width digest standing in for a raw radio identifier.

    Equality and ordering are defined on the digest bytes alone; the
    pre-image is hashed at construction time and never stored, so no API
    in this package can leak it.
    """

    digest: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.digest, bytes) or len(self.digest) != DIGEST_BYTES:
            raise ValidationError(
                f"device digest must be exactly {DIGEST_BYTES} bytes"
            )

    @property
    def hex(self) -> str:
        return self.digest.hex()

    @classmethod
    def from_hex(cls, text: str) -> "DeviceId":
        try:
            raw = bytes.fromhex(text.strip())
        except ValueError as exc:
            raise ValidationError(f"not a hex digest: {text!r}") from exc
        return cls(raw)

    def __repr__(self) -> str:  # keep logs short but unambiguous
        return f"DeviceId({self.digest.hex()})"


def hash_identifier(raw_id: bytes | str) -> DeviceId:
    """Map a raw device identifier onto its SHA-256 digest, truncated to DIGEST_BYTES."""
    if isinstance(raw_id, str):
        raw_id = raw_id.encode("utf-8")
    if not raw_id:
        raise ValidationError("empty identifier cannot be hashed")
    return DeviceId(hashlib.sha256(raw_id).digest()[:DIGEST_BYTES])


def hex_interner() -> Callable[[str], DeviceId]:
    """DeviceId.from_hex that parses each distinct text once per interner."""
    ids: dict[str, DeviceId] = {}

    def parse(text: str) -> DeviceId:
        device = ids.get(text)
        if device is None:
            device = ids[text] = DeviceId.from_hex(text)
        return device

    return parse


# =========================================================================
# Health state
# =========================================================================

class Stage(Enum):
    """Epidemiological stage of one individual."""

    SUSCEPTIBLE = "susceptible"
    INFECTED = "infected"
    RECOVERED = "recovered"


# The only admissible stage changes: susceptible -> infected -> recovered.
_VALID_TRANSITIONS = {
    (Stage.SUSCEPTIBLE, Stage.INFECTED),
    (Stage.INFECTED, Stage.RECOVERED),
}


def validate_transition(old: Stage, new: Stage) -> None:
    if (old, new) not in _VALID_TRANSITIONS:
        raise TransitionError(f"illegal status transition {old.value} -> {new.value}")


@dataclass(frozen=True)
class Quarantine:
    """Half-open isolation window: active on days start_day <= d < end_day."""

    start_day: int
    end_day: int

    def __post_init__(self) -> None:
        if self.start_day < 0 or self.end_day <= self.start_day:
            raise ValidationError("quarantine window must be non-empty and non-negative")

    def covers(self, day: int) -> bool:
        return self.start_day <= day < self.end_day


# =========================================================================
# Contact taxonomy
# =========================================================================

class Category(IntEnum):
    """Observed-individual risk category, highest risk first.

    A: infected; B: contact of an infected individual; C: contact of a
    category-B individual; D: no known exposure.  The integer value is
    the 0-based index into a weight vector, so generalized taxonomies
    with more than four levels can use plain ints alongside these.
    """

    A = 0
    B = 1
    C = 2
    D = 3

    @classmethod
    def from_letter(cls, letter: str) -> "Category":
        try:
            return cls[letter.strip().upper()]
        except KeyError as exc:
            raise ValidationError(f"unknown category {letter!r}") from exc


# =========================================================================
# Contacts
# =========================================================================

@dataclass(frozen=True)
class ContactRecord:
    """One (peer, day) encounter: closest distance and accumulated duration."""

    peer: DeviceId
    day: int
    distance: float
    duration: float

    def __post_init__(self) -> None:
        _check_contact(self.day, self.distance, self.duration)


def _check_contact(day: int, distance: float, duration: float) -> None:
    """The range checks of one ContactRecord, also run on graph rows that build none."""
    if day < 0:
        raise ValidationError("contact day must be non-negative")
    if not 0 < distance < math.inf:
        raise ValidationError("contact distance must be strictly positive and finite")
    if not 0 <= duration < math.inf:
        raise ValidationError("contact duration must be non-negative and finite")


def _merge_records(records: Iterable[ContactRecord]) -> tuple[ContactRecord, ...]:
    """Collapse duplicates per (peer, day): keep min distance, sum duration.

    Keys and order are (day, peer digest), which is the (day, peer) order
    without a Python-level DeviceId hash or comparison per record.
    """
    merged: dict[tuple[int, bytes], ContactRecord] = {}
    for rec in records:
        key = (rec.day, rec.peer.digest)
        prior = merged.get(key)
        if prior is None:
            merged[key] = rec
        else:
            merged[key] = ContactRecord(
                peer=rec.peer,
                day=rec.day,
                distance=min(prior.distance, rec.distance),
                duration=prior.duration + rec.duration,
            )
    return tuple(merged[key] for key in sorted(merged))


@dataclass(frozen=True)
class ContactList:
    """All encounters one device has logged, at most one record per (peer, day).

    Records are kept sorted by (day, peer); construction merges duplicates,
    keeping the minimum distance and summing durations.
    """

    owner: DeviceId
    records: tuple[ContactRecord, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", _merge_records(self.records))

    def on_day(self, day: int) -> tuple[ContactRecord, ...]:
        return tuple(rec for rec in self.records if rec.day == day)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[ContactRecord]:
        return iter(self.records)


# =========================================================================
# Clock
# =========================================================================

@dataclass(frozen=True)
class SimClock:
    """Integer day counter, stored as int; within-day time exists only as encounter duration."""

    current_day: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.current_day, Integral):
            raise ValidationError(f"clock day {self.current_day!r} is not an integer")
        if self.current_day < 0:
            raise ValidationError("day counter cannot be negative")
        object.__setattr__(self, "current_day", int(self.current_day))


# =========================================================================
# Contact graph CSV
# =========================================================================

GRAPH_CSV_HEADER = ("owner_digest_hex", "peer_digest_hex", "day", "distance_m", "duration_s")


def write_contact_graph(graph: Mapping[DeviceId, ContactList], path: str | Path) -> None:
    """Serialize a contact graph, one row per record, sorted for stable bytes.

    The bytes: the GRAPH_CSV_HEADER line, then one
    `owner_hex,peer_hex,day,distance,duration` line per record, each field
    written as its str() (no field ever needs quoting) and every line ended
    by CRLF.  Owners come in digest order, each owner's records by (day,
    peer digest).  A registry's contact_graph hands over its sorted rows
    directly (Registry.state_digest reads the same ones), so no ContactList
    is built for it; any other mapping is read through its lists' records.
    """
    sorted_rows = getattr(graph, "_sorted_rows", None)
    rows = sorted_rows() if sorted_rows is not None else (
        (owner.hex, rec.peer.hex, rec.day, rec.distance, rec.duration)
        for owner in sorted(graph, key=lambda device: device.digest)
        for rec in graph[owner].records
    )
    with open(path, "w", newline="") as handle:
        handle.write(",".join(GRAPH_CSV_HEADER) + "\r\n")
        handle.writelines(
            f"{owner},{peer},{day!s},{distance!s},{duration!s}\r\n"
            for owner, peer, day, distance, duration in rows
        )


@contextlib.contextmanager
def _unreadable_text_is_invalid(path: str | Path) -> Iterator[None]:
    """Re-raise a read that meets undecodable bytes or an over-long csv field
    as ValidationError naming the file.

    Wraps a whole reader loop, so the rows themselves pay nothing for it.
    """
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not {exc.encoding} text ({exc.reason})") from exc
    except csv.Error as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _contact_rows(path: str | Path) -> Iterator[tuple[DeviceId, DeviceId, int, float, float]]:
    """Each data row of a contact graph CSV as (owner, peer, day, distance, duration).

    Every row gets ContactRecord's range checks; each distinct id text is
    parsed once.  Raises ValidationError naming the first malformed line.
    """
    parse = hex_interner()
    with open(path, newline="") as handle, _unreadable_text_is_invalid(path):
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or (lineno == 1 and tuple(row) == GRAPH_CSV_HEADER):
                continue
            try:
                owner_text, peer_text, day_text, distance_text, duration_text = row
            except ValueError:
                raise ValidationError(
                    f"line {lineno}: malformed contact row "
                    f"({len(row)} columns, not {len(GRAPH_CSV_HEADER)})"
                ) from None
            try:
                owner, peer = parse(owner_text), parse(peer_text)
                day, distance, duration = int(day_text), float(distance_text), float(duration_text)
                _check_contact(day, distance, duration)
            except (ValueError, ValidationError) as exc:
                raise ValidationError(f"line {lineno}: malformed contact row ({exc})") from exc
            yield owner, peer, day, distance, duration


def read_contact_graph(path: str | Path) -> dict[DeviceId, ContactList]:
    """Parse a contact graph CSV written by write_contact_graph.

    Raises ValidationError naming the offending line on malformed input.
    """
    return _contact_lists(_contact_rows(path))


def _contact_lists(rows: Iterable[tuple]) -> dict[DeviceId, ContactList]:
    """Graph rows (owner, peer, day, distance, duration) as one ContactList per owner."""
    records: dict[bytes, tuple[DeviceId, list[ContactRecord]]] = {}
    for owner, peer, day, distance, duration in rows:
        record = ContactRecord(peer, day, distance, duration)
        records.setdefault(owner.digest, (owner, []))[1].append(record)
    return {owner: ContactList(owner, tuple(recs)) for owner, recs in records.values()}


# =========================================================================
# Process fan-out
# =========================================================================

def _pool_map(fn: Callable, tasks: Sequence, jobs: int) -> list:
    """[fn(task) for task in tasks], over at most `jobs` worker processes.

    The pool asks for no more workers than there are tasks or CPUs this
    process may run on (where the OS reports them), since the fork start
    method starts every worker at the first submit.  With at most one
    worker the tasks run in this process.  A `jobs` below 1 is rejected.
    """
    if jobs < 1:
        raise ValidationError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, len(tasks))
    if workers > 1 and hasattr(os, "sched_getaffinity"):
        workers = min(workers, len(os.sched_getaffinity(0)))
    if workers <= 1:
        return [fn(task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))
