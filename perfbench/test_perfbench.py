"""Smoke-size tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``; the
package's own suite under ``tests/`` does not collect them.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_package()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The workload-specific metrics each workload prints by name.
DETAILS = {
    "outbreak": ["seeds_per_s"],
    "registry": [
        "requests_per_s", "encounters_per_s", "scan_ms_p50", "scan_ms_p99", "status_update_ms_p50",
        "status_update_ms_p90", "replay_events_per_s", "graph_roundtrip_s",
    ],
    "curve": ["curve_points_per_s", "surface_cells_per_s"],
}


def _run(*argv: str, seed: int = 0) -> tuple[int, list[str], dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--size", "smoke", "--seed", str(seed), "--seconds", "0", *argv])
    lines = out.getvalue().splitlines()
    return rc, lines, json.loads(lines[-1])


def test_spec_matches_the_code():
    import spans
    import workloads

    assert WORKLOADS == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    layer_units = spans.layer_metric_units()
    layer_units[run.TRACE_OVERHEAD] = "s"
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layer_units
    assert sorted(DETAILS) == sorted(WORKLOADS)
    assert sorted(n for names in DETAILS.values() for n in names) == sorted(run.DETAIL_UNITS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_emitted(workload):
    rc, lines, result = _run("--workload", workload, "--trace", "0")
    assert rc == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"] == {
        name: {"value": result["metrics"][name]["value"], "unit": unit}
        for name, unit in run.END_TO_END.items()
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in DETAILS[workload]:
        assert any(
            line.startswith(f"{workload} {name} ") and line.endswith(f" {run.DETAIL_UNITS[name]}")
            for line in lines
        ), name
    assert f"{workload} error_ratio 0.0 fraction" in lines
    assert any(line.startswith("machine ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics_are_emitted(workload):
    rc, lines, result = _run("--workload", workload, "--trace", "1")
    assert rc == 0, lines
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["cli.main.calls"] > 0
    if workload == "curve":
        untouched = [n for n in values if n.split(".")[0] in {"protocol", "tracing", "sim"}]
        assert untouched and all(values[n] == 0 for n in untouched)
    else:
        assert values["protocol.record_encounter.calls"] > 0
        assert values["tracing.trace_co_contacts.calls"] > 0
    if workload == "registry":
        for op in ("register_user", "record_encounter", "scan_handshake"):
            assert values[f"protocol.{op}.failed"] > 0, op  # the deliberately invalid requests


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(
    "workload, pin",
    [("outbreak", "simulate_seed0_sha256"), ("registry", "registry_digest"), ("curve", "surface_sha256")],
)
def test_a_wrong_pinned_digest_is_caught(monkeypatch, workload, pin, seed):
    import workloads

    monkeypatch.setitem(workloads.PINS["smoke"], pin, "0" * 64)
    rc, lines, result = _run("--workload", workload, "--trace", "0", seed=seed)
    assert rc != 0
    assert result["correct"] is False and result["failed"] >= 1
    assert any(pin in line for line in lines if "check failed" in line)


def test_scaled_times_exclude_the_sampling():
    import hostspeed

    speed = hostspeed.HostSpeed()
    wall, clock = run.time.perf_counter(), speed.clock()
    first = speed.mark()
    last = speed.mark()
    assert speed.clock() - clock < run.time.perf_counter() - wall
    mean = (speed.samples[first] + speed.samples[last]) / 2
    assert speed.scale(first, last) == pytest.approx(hostspeed.REFERENCE_S / mean)
    assert run._scaled(2.0, "s", 0.5) == 1.0 and run._scaled(2.0, "1/s", 0.5) == 4.0


def test_without_sources_the_command_fails():
    (run.ROOT / ".bench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_tmp") as scratch:
        bare = Path(scratch)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            SPEC["command"] + ["--workload", "curve", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert proc.returncode != 0
    assert proc.stdout == ""
