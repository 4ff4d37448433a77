"""Proximity-based contact tracing toolkit.

Area risk scoring with five classification bands, distribution
enumeration and curve/surface generation, two-day co-contact tracing,
a one-time-code registration protocol with a replayable audit log, and
a deterministic epidemic simulator comparing app-on against app-off.
"""

__version__ = "0.1.0"

from .core import (
    Category,
    ContactList,
    ContactRecord,
    DeviceId,
    Quarantine,
    SimClock,
    Stage,
    hash_identifier,
    read_contact_graph,
    write_contact_graph,
)
from .errors import (
    AlreadyRegisteredError,
    AuthorizationError,
    InvalidOtcError,
    NoObservationsError,
    OtcError,
    OtcReplayError,
    ProxTraceError,
    ScoreRangeError,
    TransitionError,
    UnknownDeviceError,
    ValidationError,
)
from .protocol import (
    DeviceRecord,
    Event,
    Notification,
    NotificationKind,
    Otc,
    Registry,
    RegistryPolicy,
    ScanResult,
    read_event_log,
    write_event_log,
)
from .risk import (
    DEFAULT_WEIGHTS,
    CategoryDistribution,
    CurvePoint,
    RiskClass,
    SurfaceCell,
    WeightConfig,
    assess_area,
    classify,
    count_distributions,
    enumerate_distributions,
    risk_curve,
    risk_surface,
)
from .sim import (
    CompareResult,
    CompareSummary,
    DayStats,
    SimConfig,
    WorldState,
    build_world,
    compare,
    replicate_compare,
    run,
    step,
)
from .tracing import trace_co_contacts

__all__ = [
    "__version__",
    "AlreadyRegisteredError", "AuthorizationError", "Category",
    "CategoryDistribution", "CompareResult", "CompareSummary", "ContactList",
    "ContactRecord", "CurvePoint", "DayStats", "DEFAULT_WEIGHTS", "DeviceId",
    "DeviceRecord", "Event", "InvalidOtcError", "NoObservationsError",
    "Notification", "NotificationKind", "Otc",
    "OtcError", "OtcReplayError", "ProxTraceError", "Quarantine", "Registry",
    "RegistryPolicy", "RiskClass", "ScanResult", "ScoreRangeError", "SimClock",
    "SimConfig", "Stage", "SurfaceCell", "TransitionError",
    "UnknownDeviceError", "ValidationError", "WeightConfig", "WorldState",
    "assess_area", "build_world", "classify", "compare", "count_distributions",
    "enumerate_distributions", "hash_identifier", "read_contact_graph",
    "read_event_log", "replicate_compare", "risk_curve", "risk_surface", "run",
    "step", "trace_co_contacts", "write_contact_graph", "write_event_log",
]
