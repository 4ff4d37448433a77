"""The benchmark's span tracer still fits the package it wraps.

perfbench/spans.py patches module functions, Registry methods and the
contact value types' constructors by name for the benchmark's traced run,
which this suite does not execute.  A refactor that renames or removes
one of them breaks that run; this test catches it on a tiny registry.
"""

import importlib.util
import sys
from pathlib import Path

import proxtrace.cli  # noqa: F401  (loads every module the tracer patches)
from proxtrace import core
from proxtrace.core import SimClock, Stage
from proxtrace.protocol import Registry

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patched_names(spans) -> dict:
    """Every attribute the tracer replaces, by (owner, name)."""
    names = {
        (module, attr): getattr(sys.modules[f"proxtrace.{module}"], attr)
        for module, attr, _ in spans.FUNCTIONS
    }
    names.update({("Registry", m): Registry.__dict__[m] for m in spans.REGISTRY_METHODS})
    for cls, _ in spans.BUILT:
        names[(cls, "__post_init__")] = getattr(core, cls).__dict__["__post_init__"]
    return names


def test_benchmark_tracer_installs_and_restores():
    spans = load_spans()
    originals = patched_names(spans)
    with spans.Tracer() as tracer:
        installed = patched_names(spans)
        reg = Registry(["clinic"], seed=1)
        a, b, c = (
            reg.register_user(reg.issue_otc("clinic").code, f"tracer-{tag}").device for tag in "abc"
        )
        reg.record_encounter(a, b, 2.0)
        reg.scan_handshake(c, [(a, 3.0), (b, 4.0)])
        reg.advance_clock(SimClock(2))
        reg.update_status(reg.issue_otc("clinic").code, a, Stage.INFECTED)
        reg.status_checker_tick(b)
        replayed = Registry.replay(reg.events, ["clinic"])
    assert all(installed[key] is not original for key, original in originals.items())
    assert patched_names(spans) == originals
    assert replayed.state_digest() == reg.state_digest()

    metrics = tracer.layer_metrics()
    assert set(metrics) == set(spans.layer_metric_units())
    value = {name: metric["value"] for name, metric in metrics.items()}
    # replay re-runs each logged operation through the live method
    for method in ("record_encounter", "scan_handshake", "update_status", "status_checker_tick"):
        assert value[f"protocol.{method}.calls"] == 2
    assert value["protocol.register_user.calls"] == 3
    assert value["protocol.replay.calls"] == 1
    assert value["risk.classify.calls"] == 2
    assert value["risk.assess_area.calls"] == 0
