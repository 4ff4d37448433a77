"""proxtrace benchmark: one workload per invocation, result as a JSON line.

Usage, from the root of a source checkout (nothing needs installing):

    python3 perfbench/run.py --workload outbreak|registry|curve \\
        --seed N --seconds S --trace 0|1 [--size full|smoke]

The package is imported from ``src/`` of the checkout this file sits in;
without it the command fails before measuring.  ``--trace 0`` repeats the
workload's timed pass until ``--seconds`` is used up and reports the
end-to-end metrics (means over passes), every time scaled to a fixed host
speed (hostspeed.py); ``--trace 1`` runs one untraced and one traced pass
and reports the per-layer metrics, including the tracing overhead,
unscaled.  Every run first makes one smoke-size pass at seed 0, untimed,
and compares its outputs with the digests pinned in pins.json.
Human-readable lines come first; the last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``.  Scratch files go to a
temporary directory under ``.bench_tmp/`` that is removed on exit; the
spans of a traced run are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# End-to-end metrics, reported on every workload (units as in BENCHMARK.json).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
}

# The workload-specific metrics behind them, printed by name for the
# workloads they apply to.
DETAIL_UNITS = {
    "seeds_per_s": "1/s",
    "requests_per_s": "1/s",
    "encounters_per_s": "1/s",
    "scan_ms_p50": "ms",
    "scan_ms_p99": "ms",
    "status_update_ms_p50": "ms",
    "status_update_ms_p90": "ms",
    "replay_events_per_s": "1/s",
    "graph_roundtrip_s": "s",
    "curve_points_per_s": "1/s",
    "surface_cells_per_s": "1/s",
}

# Per-layer metric added to the tracer's: traced pass wall minus untraced.
TRACE_OVERHEAD = "bench.trace_overhead_s"

# Set-up is repeated and its median taken, for a steadier setup_s.
SETUP_REPEATS = 3

# Imports proxtrace.cli in a fresh interpreter (argv[1] is src/).
_IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import proxtrace.cli"


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("outbreak", "registry", "curve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative (numpy seeds the inputs)")
    return args


def _import_package() -> None:
    """Import proxtrace from this checkout's src/."""
    if not (SRC / "proxtrace" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no proxtrace sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import proxtrace.cli  # noqa: F401

    if Path(proxtrace.cli.__file__).resolve().parent != SRC / "proxtrace":
        raise SystemExit(f"benchmark: imported proxtrace from {proxtrace.cli.__file__}, not {SRC}")


def _fresh_import_s(clock) -> float:
    """Seconds a fresh interpreter takes to start and import proxtrace.cli."""
    start = clock()
    subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        stdout=subprocess.DEVNULL, check=True, timeout=120,
    )
    return clock() - start


def _loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def _machine(load_start: str, speed: hostspeed.HostSpeed) -> dict[str, object]:
    import numpy
    import scipy

    machine: dict[str, object] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": load_start,
        "loadavg_end": _loadavg(),
    }
    if speed.samples:  # how fast and how steady the host ran: reference() times
        machine["reference_ms"] = {
            "samples": len(speed.samples),
            "mean": statistics.fmean(speed.samples) * 1e3,
            "min": min(speed.samples) * 1e3,
            "max": max(speed.samples) * 1e3,
        }
    return machine


def _measure(run_pass, inputs, tmp: Path, checker, clock, seconds: float) -> list[dict]:
    """Repeat the pass while another one of typical length still fits."""
    passes = []
    start = clock()
    while True:
        passes.append(run_pass(inputs, tmp, checker, clock))
        typical = statistics.median(p["pass_s"] for p in passes)
        if clock() - start + typical > seconds:
            return passes


def _scaled(value: float, unit: str, scale: float) -> float:
    """A time or rate measured on this host, at the reference host speed."""
    if unit in ("s", "ms"):
        return value * scale
    if unit == "1/s":
        return value / scale
    return value


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    load_start = _loadavg()
    speed = hostspeed.HostSpeed()
    # The traced run reports unscaled span times, so it samples nothing.
    with contextlib.nullcontext() if args.trace else speed:
        _import_package()

        import spans
        import workloads

        # Set-up is the package import (in a fresh interpreter, as a user
        # starting the CLI pays it) plus input generation, each repeated
        # and reported as its median; one input set is in memory at a time.
        import_s = statistics.median(_fresh_import_s(speed.clock) for _ in range(SETUP_REPEATS))
        prepare, run_pass, summarize = workloads.WORKLOADS[args.workload]
        prepare_times = []
        for _ in range(SETUP_REPEATS):
            inputs = None
            start = speed.clock()
            inputs = prepare(args.seed, args.size)
            prepare_times.append(speed.clock() - start)
        setup_s = import_s + statistics.median(prepare_times)

        checker = workloads.Checker()
        (ROOT / ".bench_tmp").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_tmp") as scratch:
            tmp = Path(scratch)
            # Whatever --seed is, compare seed-0 outputs with their pins (untimed).
            run_pass(prepare(0, "smoke"), tmp, checker, speed.clock)
            if args.trace:
                untraced = run_pass(inputs, tmp, checker, time.perf_counter)
                with spans.Tracer() as tracer:
                    traced = run_pass(inputs, tmp, checker, time.perf_counter)
                metrics = tracer.layer_metrics()
                overhead = traced["pass_s"] - untraced["pass_s"]
                metrics[TRACE_OVERHEAD] = {"value": overhead, "unit": "s"}
                out_dir = ROOT / ".bench_out"
                out_dir.mkdir(exist_ok=True)
                tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
                report = {
                    "untraced_wall_s": (untraced["pass_s"], "s"),
                    "traced_wall_s": (traced["pass_s"], "s"),
                }
            else:
                timed_from = speed.mark()
                passes = _measure(run_pass, inputs, tmp, checker, speed.clock, args.seconds)
                # One factor for the whole run: scaling each stretch by the
                # speed sampled during it spread more, most likely because the
                # workload's own phases change how fast reference() runs beside
                # it.  The timed section's samples also scale set-up: the few
                # dozen taken during set-up gave a scale that varied far more.
                scale = speed.scale(timed_from, speed.mark())
                summary = summarize(passes)
                values = {
                    "setup_s": setup_s * scale,
                    "wall_s": summary["wall_s"] * scale,
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "throughput_per_s": summary["throughput_per_s"] / scale,
                }
                metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
                report = {
                    name: (_scaled(value, DETAIL_UNITS[name], scale), DETAIL_UNITS[name])
                    for name, value in summary.items() if name in DETAIL_UNITS
                }
                report["passes"] = (len(passes), "count")
                report["unscaled_setup_s"] = (setup_s, "s")
                report["unscaled_wall_s"] = (summary["wall_s"], "s")
                report["speed_scale"] = (scale, "ratio")

    report["error_ratio"] = (checker.failed / max(checker.attempted, 1), "fraction")
    for name, (value, unit) in report.items():
        print(f"{args.workload} {name} {value} {unit}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']} {metric['unit']}")
    for problem in checker.problems:
        print(f"{args.workload} check failed: {problem}")
    print("machine " + json.dumps(_machine(load_start, speed), sort_keys=True))
    correct = checker.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
