"""The package's public surface is pinned: changing it means editing this list."""

import proxtrace

PUBLIC_NAMES = [
    "AlreadyRegisteredError", "AuthorizationError", "Category", "CategoryDistribution",
    "CompareResult", "CompareSummary", "ContactList", "ContactRecord", "CurvePoint",
    "DEFAULT_WEIGHTS", "DayStats", "DeviceId", "DeviceRecord", "Event", "InvalidOtcError",
    "NoObservationsError", "Notification", "NotificationKind", "Otc",
    "OtcError", "OtcReplayError", "ProxTraceError", "Quarantine", "Registry",
    "RegistryPolicy", "RiskClass", "ScanResult", "ScoreRangeError", "SimClock",
    "SimConfig", "Stage", "SurfaceCell", "TransitionError", "UnknownDeviceError",
    "ValidationError", "WeightConfig", "WorldState", "__version__", "assess_area",
    "build_world", "classify", "compare", "count_distributions", "enumerate_distributions",
    "hash_identifier", "read_contact_graph", "read_event_log", "replicate_compare",
    "risk_curve", "risk_surface", "run", "step", "trace_co_contacts", "write_contact_graph",
    "write_event_log",
]


def test_public_api_is_pinned():
    assert sorted(proxtrace.__all__) == PUBLIC_NAMES
    assert len(set(proxtrace.__all__)) == len(proxtrace.__all__)
    for name in proxtrace.__all__:
        getattr(proxtrace, name)
