"""Command-line front end.

Subcommands: risk, curve, surface, trace, simulate, replay.  Exit codes
are 0 for success, 1 for any validation or usage failure, 2 for a no-data
outcome (nothing to score).  Every file-writing command also emits a run
manifest (<out>.manifest.json) naming the command, config digest, seed
(null for trace and replay, which draw nothing), tool version, and the
SHA-256 of each declared output; reruns with the same inputs reproduce
every output byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from contextlib import closing
from pathlib import Path
from typing import Sequence

from . import __version__
from .core import Category, DeviceId, SimClock, _contact_rows, _pool_map, _unreadable_text_is_invalid
from .errors import NoObservationsError, ProxTraceError, ValidationError
from .protocol import Registry, _read_events
from .risk import (
    DEFAULT_AREA_RADIUS_M,
    DEFAULT_PLACEMENT_REPEATS,
    DEFAULT_WEIGHTS,
    WeightConfig,
    assess_area,
    classify,
    risk_curve,
    risk_surface,
    write_curve_csv,
    write_surface_csv,
)
from .sim import DayStats, SimConfig, _replicas, replicate_compare, run
from .tracing import _two_hop_graph, trace_co_contacts

OK, FAILURE, NO_DATA = 0, 1, 2

SIM_CSV_HEADER = ("day", "new_infections", "cumulative", "quarantined", "susceptible", "arm")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ValidationError (exit 1)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ValidationError(message)


# =========================================================================
# Helpers
# =========================================================================

def _parse_weights(text: str) -> WeightConfig:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"weights must be comma-separated numbers: {text!r}") from exc
    return WeightConfig(values)


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(command: str, params: dict, seed: int | None, outputs: list[Path]) -> None:
    config_digest = hashlib.sha256(
        json.dumps(params, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()
    manifest = {
        "command": command,
        "config_digest": config_digest,
        "seed": seed,
        "tool_version": __version__,
        "outputs": [{"path": str(path), "sha256": _sha256_file(path)} for path in outputs],
    }
    manifest_path = Path(str(outputs[0]) + ".manifest.json")
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _path(text: str) -> str:
    """argparse type of every path option: no file name can hold a NUL byte."""
    if "\0" in text:
        raise argparse.ArgumentTypeError("path holds a NUL byte")
    return text


def _check_out(path: str) -> None:
    """Refuse an output path no file can be written at, before any work is done."""
    out = Path(path)
    if out.is_dir():
        raise ValidationError(f"--out {path}: is a directory")
    if not out.parent.is_dir():
        raise ValidationError(f"--out {path}: directory {out.parent} does not exist")


def _read_observation_rows(path: str) -> tuple[list[int], list[float]]:
    """Parse the rows; assess_area owns the range checks on what they hold."""
    categories: list[int] = []
    distances: list[float] = []
    with open(path, newline="") as handle, _unreadable_text_is_invalid(path):
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or (lineno == 1 and [c.strip().lower() for c in row] == ["category", "distance"]):
                continue
            try:
                if len(row) != 2:
                    raise ValidationError("expected exactly two fields (category, distance)")
                raw_cat = row[0].strip()
                if raw_cat.lstrip("+-").isdigit():
                    categories.append(int(raw_cat))
                else:
                    categories.append(int(Category.from_letter(raw_cat)))
                distances.append(float(row[1]))
            except (ValueError, ValidationError) as exc:
                raise ValidationError(f"line {lineno}: {exc}") from exc
    return categories, distances


# =========================================================================
# Subcommands
# =========================================================================

def _cmd_risk(args: argparse.Namespace) -> int:
    weights = _parse_weights(args.weights)
    categories, distances = _read_observation_rows(args.observations)
    if not categories:
        print("no observations: nothing to score", file=sys.stderr)
        return NO_DATA
    score = assess_area(categories, distances, weights, radius=args.radius)
    print(f"{score:.6f} {classify(score).name}")
    return OK


def _cmd_generate(args: argparse.Namespace) -> int:
    weights = _parse_weights(args.weights)
    placement = {
        "radius": args.radius, "placement": args.placement,
        "repeats": args.repeats, "seed": args.seed,
    }
    out = Path(args.out)
    if args.command == "curve":
        size: dict[str, int] = {"n": args.n, "k": args.k}
        rows: list = risk_curve(args.n, args.k, weights, jobs=args.jobs, **placement)
        write_curve_csv(rows, out, args.k)
        noun = "curve points"
    else:
        size = {"n_max": args.n_max}
        rows = risk_surface(args.n_max, weights, jobs=args.jobs, **placement)
        write_surface_csv(rows, out)
        noun = "surface cells"
    params = {**size, "weights": list(weights.weights), **placement}
    _write_manifest(args.command, params, args.seed, [out])
    print(f"wrote {len(rows)} {noun} to {out}")
    return OK


def _cmd_trace(args: argparse.Namespace) -> int:
    # A malformed graph row is reported ahead of a bad --case or --day.
    try:
        index_case = DeviceId.from_hex(args.case)
    except ValidationError:
        for _ in _contact_rows(args.graph):
            pass
        raise
    graph = _two_hop_graph(args.graph, index_case, args.day)
    traced = trace_co_contacts(index_case, graph, SimClock(args.day))
    lines = [device.hex for device in traced]
    if args.out:
        out = Path(args.out)
        out.write_text("".join(line + "\n" for line in lines))
        _write_manifest(
            "trace",
            {"graph": args.graph, "case": args.case, "day": args.day},
            None,
            [out],
        )
    else:
        for line in lines:
            print(line)
    return OK


def _load_sim_config(args: argparse.Namespace) -> SimConfig:
    values: dict[str, object] = {}
    field_types = {f.name: f.type for f in dataclasses.fields(SimConfig)}
    if args.config:
        with open(args.config) as handle, _unreadable_text_is_invalid(args.config):
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValidationError(f"line {lineno}: expected 'key = value'")
                key, _, value = (part.strip() for part in line.partition("="))
                if key not in field_types:
                    raise ValidationError(f"line {lineno}: unknown config field {key!r}")
                values[key] = _coerce_config_value(key, field_types[key], value)
    if args.seed is not None:
        values["seed"] = args.seed
    if args.population is not None:
        values["population"] = args.population
    if args.days is not None:
        values["max_days"] = args.days
    return SimConfig(**values)  # type: ignore[arg-type]


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in {"true", "1", "yes"}:
        return True
    if lowered in {"false", "0", "no"}:
        return False
    raise ValueError("expected a boolean")


# SimConfig field annotation (a string: sim.py postpones annotations) -> parser.
_CONFIG_PARSERS = {"int": int, "float": float, "float | None": float, "bool": _parse_bool}


def _coerce_config_value(key: str, annotation: str, text: str) -> object:
    parse = _CONFIG_PARSERS.get(annotation)
    if parse is None:
        raise ValidationError(f"config field {key!r} is not settable from a file")
    try:
        return parse(text)
    except ValueError as exc:
        raise ValidationError(f"config field {key!r}: {exc}") from exc


def _sim_rows(stats: list[DayStats], arm: str, seed: int | None) -> list[list[object]]:
    rows = []
    for s in stats:
        row: list[object] = [
            s.day, s.new_infections, s.cumulative_infections,
            s.quarantined_count, s.susceptible_count, arm,
        ]
        if seed is not None:
            row.append(seed)
        rows.append(row)
    return rows


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_sim_config(args)
    multi = args.replicates > 1
    rows: list[list[object]] = []
    summaries: list[str] = []
    if args.arm == "both":
        results = replicate_compare(config, args.replicates, jobs=args.jobs)
        for result in results:
            seed = result.summary.seed if multi else None
            rows.extend(_sim_rows(result.baseline, "baseline", seed))
            rows.extend(_sim_rows(result.app, "app", seed))
            s = result.summary
            summaries.append(
                f"seed {s.seed}: baseline {s.baseline_total}/{s.population} "
                f"(peak day {s.baseline_peak_day}), app {s.app_total}/{s.population} "
                f"(peak day {s.app_peak_day}), ratio {s.ratio:.3f}"
            )
    else:
        arm_config = dataclasses.replace(config, app_enabled=args.arm == "app")
        seeded_configs = _replicas(arm_config, args.replicates)
        for seeded, stats in zip(seeded_configs, _pool_map(run, seeded_configs, args.jobs)):
            rows.extend(_sim_rows(stats, args.arm, seeded.seed if multi else None))
            summaries.append(
                f"seed {seeded.seed}: {args.arm} {stats[-1].cumulative_infections}/{config.population}"
            )
    out = Path(args.out)
    with open(out, "w", newline="") as handle:
        writer = csv.writer(handle)
        header = list(SIM_CSV_HEADER) + (["seed"] if multi else [])
        writer.writerow(header)
        writer.writerows(rows)
    _write_manifest(
        "simulate",
        {
            "config": dataclasses.asdict(config), "arm": args.arm,
            "replicates": args.replicates,
        },
        config.seed,
        [out],
    )
    for line in summaries:
        print(line)
    return OK


def _cmd_replay(args: argparse.Namespace) -> int:
    # Each row is read, replayed and dropped, so the first malformed or
    # unreplayable row in file order is the one reported.
    with closing(_read_events(args.log)) as events:
        registry = Registry._rebuilt(events, ())
    digest = registry.state_digest()
    print(digest)
    if args.out:
        out = Path(args.out)
        out.write_text(digest + "\n")
        _write_manifest("replay", {"log": args.log}, None, [out])
    return OK


# =========================================================================
# Parser wiring
# =========================================================================

def _build_parser() -> _Parser:
    parser = _Parser(prog="proxtrace", description=__doc__)
    parser.add_argument("--version", action="version", version=f"proxtrace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_risk(p: _Parser) -> None:
        p.add_argument("--weights", default=",".join(str(w) for w in DEFAULT_WEIGHTS.weights),
                       help="comma-separated category weights, highest risk first")
        p.add_argument("--radius", type=float, default=DEFAULT_AREA_RADIUS_M)

    p_risk = sub.add_parser("risk", help="score one observation CSV (category,distance rows)")
    p_risk.add_argument("--observations", type=_path, required=True)
    add_common_risk(p_risk)
    p_risk.set_defaults(func=_cmd_risk)

    for name, extra in (("curve", ("--n", "--k")), ("surface", ("--n-max",))):
        p = sub.add_parser(name, help=f"generate the risk {name} CSV")
        if name == "curve":
            p.add_argument("--n", type=int, default=20)
            p.add_argument("--k", type=int, default=4)
        else:
            p.add_argument("--n-max", dest="n_max", type=int, default=20)
        add_common_risk(p)
        p.add_argument("--placement", choices=("uniform", "equal"), default="uniform")
        p.add_argument("--repeats", type=int, default=DEFAULT_PLACEMENT_REPEATS)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=int, default=1)
        p.add_argument("--out", type=_path, required=True)
        p.set_defaults(func=_cmd_generate)

    p_trace = sub.add_parser("trace", help="co-contact trace over a contact graph CSV")
    p_trace.add_argument("--graph", type=_path, required=True)
    p_trace.add_argument("--case", required=True, help="index case digest (hex)")
    p_trace.add_argument("--day", type=int, required=True)
    p_trace.add_argument("--out", type=_path)
    p_trace.set_defaults(func=_cmd_trace)

    p_sim = sub.add_parser("simulate", help="run the epidemic engine")
    p_sim.add_argument("--config", type=_path, help="key = value file of SimConfig fields")
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--population", type=int)
    p_sim.add_argument("--days", type=int, help="maximum simulated days")
    p_sim.add_argument("--arm", choices=("baseline", "app", "both"), default="both")
    p_sim.add_argument("--replicates", type=int, default=1)
    p_sim.add_argument("--jobs", type=int, default=1)
    p_sim.add_argument("--out", type=_path, required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_replay = sub.add_parser("replay", help="rebuild registry state from an event log")
    p_replay.add_argument("--log", type=_path, required=True)
    p_replay.add_argument(
        "--credential",
        help="optional and ignored: replay inserts each logged code, so it checks no staff credential",
    )
    p_replay.add_argument("--out", type=_path, help="also write the digest to this file, with a manifest")
    p_replay.set_defaults(func=_cmd_replay)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "out", None):
            _check_out(args.out)
        return args.func(args)
    except NoObservationsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NO_DATA
    except (ProxTraceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE
    except MemoryError as exc:
        # numpy's _ArrayMemoryError names the size it asked for; a bare one says nothing
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return FAILURE


if __name__ == "__main__":
    sys.exit(main())
