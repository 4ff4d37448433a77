"""Span tracing for the benchmark's traced run.

The tracer wraps public functions and methods of every proxtrace layer
from here, without editing the package: each wrapper records one span
(name, start, end, parent, failed) in flat in-memory arrays, and the
spans are written out once the run is over.  A function re-imported into
another module (``proxtrace.protocol.trace_co_contacts``,
``proxtrace.cli.risk_curve``, ...) is wrapped under every name that binds
it, so calls reach the wrapper whichever module makes them.

Self time is a span's duration minus the time covered by its child spans.
The benchmark is single-threaded, so children of one span never overlap
and the covered time is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Callable

import numpy as np

_ARM = {True: "app", False: "baseline"}


def _run_arm(args):
    return _ARM[bool(args[0].app_enabled)]


def _step_arm(args):
    return _ARM[bool(args[0].config.app_enabled)]


# (module, function, labeller): the span is "<module>.<function>", plus a
# suffix the labeller derives from the call's arguments (the simulation arm).
FUNCTIONS = (
    ("cli", "main", None),
    ("sim", "build_world", None),
    ("sim", "run", _run_arm),
    ("sim", "step", _step_arm),
    ("protocol", "write_event_log", None),
    ("protocol", "read_event_log", None),
    ("tracing", "trace_co_contacts", None),
    ("risk", "risk_curve", None),
    ("risk", "risk_surface", None),
    ("risk", "write_curve_csv", None),
    ("risk", "write_surface_csv", None),
    ("risk", "assess_area", None),
    ("risk", "classify", None),
    ("core", "hash_identifier", None),
    ("core", "write_contact_graph", None),
    ("core", "read_contact_graph", None),
)

REGISTRY_METHODS = (
    "register_user", "issue_otc", "record_encounter", "update_status", "scan_handshake",
    "status_checker_tick", "advance_clock", "state_digest", "replay",
)

# Value types whose constructions are counted (no span: they are too many
# and too small to time one by one).
BUILT = (("ContactList", "core.ContactList.built"), ("ContactRecord", "core.ContactRecord.built"))

_FULL = ("calls", "s", "self_s", "failed")

# Every per-layer metric, in report order: (span name, stat) pairs.
SPAN_METRICS = (
    [("sim.build_world", st) for st in ("calls", "s")]
    + [("sim.run.baseline", "s"), ("sim.run.app", "s")]
    + [(f"sim.step.{arm}", st) for arm in ("baseline", "app") for st in ("calls", "s", "self_s")]
    + [(f"protocol.{m}", st) for m in REGISTRY_METHODS for st in _FULL]
    + [("protocol.write_event_log", "s"), ("protocol.read_event_log", "s")]
    + [("tracing.trace_co_contacts", st) for st in ("calls", "s")]
    + [
        (f"risk.{f}", "s")
        for f in ("risk_curve", "risk_surface", "write_curve_csv", "write_surface_csv")
    ]
    + [(f"risk.{f}", st) for f in ("assess_area", "classify") for st in ("calls", "s")]
    + [("core.hash_identifier", st) for st in ("calls", "s")]
    + [("core.write_contact_graph", "s"), ("core.read_contact_graph", "s")]
    + [("cli.main", st) for st in _FULL[:3]]
)
DERIVED_METRICS = (
    ("protocol.notify.emitted_per_traced", "ratio"),
    ("tracing.traced_per_call", "ratio"),
    ("core.ContactList.built", "count"),
    ("core.ContactRecord.built", "count"),
)
STAT_UNITS = {"calls": "count", "failed": "count", "s": "s", "self_s": "s"}


def layer_metric_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric the traced run reports."""
    units = {f"{span}.{stat}": STAT_UNITS[stat] for span, stat in SPAN_METRICS}
    units.update(DERIVED_METRICS)
    return units


class Tracer:
    """Installs span wrappers on enter and restores the originals on exit."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.failed = array("b")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------

    def _open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self.failed.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int, failed: bool) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()
        if failed:
            self.failed[index] = 1

    def _inside(self, name: str) -> bool:
        name_id = self._name_ids.get(name)
        return name_id is not None and any(self.name_id[i] == name_id for i in self._stack)

    def _wrap(self, fn: Callable, name: str, labeller, observe) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if labeller is None else f"{name}.{labeller(args)}"
            index = tracer._open(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(index, True)
                raise
            tracer._close(index, False)
            if observe is not None:
                observe(result)
            return result

        return traced

    def _counting(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    # -- result observers (counts measured where the work happens) ------

    def _observe_trace(self, result) -> None:
        self.counts["tracing.traced"] += len(result)
        if self._inside("protocol.update_status"):
            self.counts["notify.traced"] += len(result)

    def _observe_update(self, result) -> None:
        self.counts["notify.emitted"] += sum(1 for note in result if note.kind is self._at_risk)

    # -- installation ---------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        # A class keeps its raw attribute (e.g. the classmethod object itself).
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        import proxtrace.cli  # noqa: F401  (loads every layer)
        from proxtrace import core, protocol

        self._at_risk = protocol.NotificationKind.CONTACT_AT_RISK
        observers = {"tracing.trace_co_contacts": self._observe_trace}
        modules = [
            module for key, module in sys.modules.items()
            if key == "proxtrace" or key.startswith("proxtrace.")
        ]
        for module_name, attr, labeller in FUNCTIONS:
            name = f"{module_name}.{attr}"
            original = getattr(sys.modules[f"proxtrace.{module_name}"], attr)
            wrapper = self._wrap(original, name, labeller, observers.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

        registry = protocol.Registry
        for method in REGISTRY_METHODS:
            raw = registry.__dict__[method]
            observe = self._observe_update if method == "update_status" else None
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, f"protocol.{method}", None, observe))
            else:
                wrapped = self._wrap(raw, f"protocol.{method}", None, observe)
            self._patch(registry, method, wrapped)

        for cls_name, key in BUILT:
            cls = getattr(core, cls_name)
            self._patch(cls, "__post_init__", self._counting(cls.__dict__["__post_init__"], key))
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, dict[str, object]]:
        """Every per-layer metric, as {"value": ..., "unit": ...}."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(duration)
        )
        self_time = duration - covered
        failed = np.frombuffer(self.failed, dtype=np.int8)
        by_name = {name: name_id == i for i, name in enumerate(self.names)}

        metrics: dict[str, dict[str, object]] = {}
        for span, stat in SPAN_METRICS:
            mask = by_name.get(span)
            if mask is None:
                value: float = 0
            elif stat == "calls":
                value = int(mask.sum())
            elif stat == "failed":
                value = int(failed[mask].sum())
            elif stat == "s":
                value = float(duration[mask].sum()) / 1e9
            else:
                value = float(self_time[mask].sum()) / 1e9
            metrics[f"{span}.{stat}"] = {"value": value, "unit": STAT_UNITS[stat]}

        traces = metrics["tracing.trace_co_contacts.calls"]["value"]
        derived = {
            "protocol.notify.emitted_per_traced": _ratio(
                self.counts["notify.emitted"], self.counts["notify.traced"]
            ),
            "tracing.traced_per_call": _ratio(self.counts["tracing.traced"], traces),
            "core.ContactList.built": self.counts["core.ContactList.built"],
            "core.ContactRecord.built": self.counts["core.ContactRecord.built"],
        }
        for name, unit in DERIVED_METRICS:
            metrics[name] = {"value": derived[name], "unit": unit}
        return metrics

    def write(self, path: Path) -> None:
        """Write every recorded span (parent -1 marks a root span)."""
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            failed=np.frombuffer(self.failed, dtype=np.int8),
        )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
