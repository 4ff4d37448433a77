"""Mutation check: every mutant below must make at least one of its tests fail.

Run from anywhere, with the test dependencies installed:

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # only these

Each mutant replaces one exact snippet, which must occur exactly once, in
one file of a fresh copy of src/ and tests/, and runs only its named tests
there with PYTHONPATH pointed at the copied src/.  It is killed when they
fail and survives when they pass.  A survivor means its tests are too blunt
to see the fault: sharpen them rather than drop the mutant.  A snippet that
no longer matches is an error, so a change that rewrites mutated code must
update its mutants.  Before any mutant runs, the named tests must pass on
the unmutated copy.  Exit status 0 only when every mutant is killed.

Stdlib only; the file name keeps it out of the pytest collection.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


# The pair search's oracle tests: brute force, and the edge cases of its grid.
PAIR_TESTS = tuple(f"tests/test_sim.py::test_pairs_within_{name}" for name in (
    "matches_brute_force",
    "keeps_lattice_neighbours_exactly_r_apart",
    "pairs_every_duplicate",
    "with_every_point_in_one_cell",
    "a_radius_past_the_span_keeps_every_pair",
    "an_arena_near_the_size_cap",
    "a_radius_whose_square_underflows",
))

# The contact store's seal: its direct test, its memory tests and the
# state machine's contact model.
SEAL_TESTS = (
    "tests/test_protocol.py::test_sealing_a_day_changes_no_read",
    "tests/test_protocol.py::test_a_sealed_day_s_size_follows_its_contacts_not_the_devices",
    "tests/test_protocol.py::test_a_sealed_day_holds_under_half_the_memory_its_booking_took",
    "tests/test_protocol.py::TestRegistryMachine::runTest",
)

# The exposure column's direct tests and the scan categories against the
# reference walk.
EXPOSURE_TESTS = tuple(f"tests/test_protocol.py::test_{name}" for name in (
    "a_past_day_read_after_a_clock_day_build",
    "a_scan_s_own_booking_makes_a_neighbour_category_b",
    "a_recovery_drops_a_neighbour_to_d",
    "a_registration_after_the_build",
    "the_longest_window_is_read_in_time",
    "a_column_read_for_a_later_day_is_dropped_at_the_seal",
    "categories_match_the_reference_on_random_graphs",
))

# A registry cascade against the trace oracle over the public contact graph.
CASCADE_TESTS = ("tests/test_protocol.py::test_cascade_agrees_with_trace_oracle",)

MUTANTS = (
    Mutant(
        "contact-lists-keyed-on-the-peer",
        "src/proxtrace/core.py",
        "records.setdefault(owner.digest, (owner, []))[1].append(record)",
        "records.setdefault(peer.digest, (peer, []))[1].append(record)",
        ("tests/test_core.py::test_contact_graph_csv_roundtrip",),
    ),
    Mutant(
        "two-hop-drops-the-case-s-rows-today",
        "src/proxtrace/tracing.py",
        "if day == lookback_day or day == today:",
        "if day == lookback_day:",
        ("tests/test_cli.py::test_trace_expands_a_self_row_through_the_case_s_own_rows_today",),
    ),
    Mutant(
        "digest-lines-unseparated",
        "src/proxtrace/protocol.py",
        'separator = "\\n"',
        'separator = ""',
        ("tests/test_protocol.py::test_digest_matches_its_reference_at_any_line_count",),
    ),
    Mutant(
        "contact-rows-peers-unsorted",
        "src/proxtrace/protocol.py",
        "for peer_hex, slot in sorted(zip(map(hexes.__getitem__, peers), slots)):",
        "for peer_hex, slot in zip(map(hexes.__getitem__, peers), slots):",
        ("tests/test_protocol.py::test_graph_writer_and_digest_match_their_references",),
    ),
    Mutant(
        "seal-drops-an-owner-s-contact-day",
        "src/proxtrace/protocol.py",
        "for owner in self._today:",
        "for owner in list(self._today)[1:]:",
        SEAL_TESTS,
    ),
    Mutant(
        "seal-on-a-same-day-advance",
        "src/proxtrace/protocol.py",
        "if clock.current_day > self._clock.current_day:",
        "if clock.current_day >= self._clock.current_day:",
        SEAL_TESTS,
    ),
    Mutant(
        "seal-keeps-the-clock-day-dicts",
        "src/proxtrace/protocol.py",
        "        self._today = {}\n        self._day_ends",
        "        self._day_ends",
        SEAL_TESTS,
    ),
    Mutant(
        "seal-sparse-row-range-off-by-one",
        "src/proxtrace/protocol.py",
        "starts = np.flatnonzero(owners[1:] != owners[:-1]) + 1",
        "starts = np.flatnonzero(owners[1:] != owners[:-1])",
        SEAL_TESTS,
    ),
    Mutant(
        "seal-dense-row-range-off-by-one",
        "src/proxtrace/protocol.py",
        "starts = np.searchsorted(owners, np.arange(devices + 1))",
        "starts = np.searchsorted(owners, np.arange(devices + 1), side=\"right\")",
        SEAL_TESTS,
    ),
    Mutant(
        "seal-only-left-endpoints",
        "src/proxtrace/protocol.py",
        "peers = handles[order ^ 1]",
        "peers = handles[order | 1]",
        SEAL_TESTS,
    ),
    Mutant(
        "sealed-absent-owner-reads-the-next-one",
        "src/proxtrace/protocol.py",
        "if row == len(owners) or owners[row] != owner:",
        "if row == len(owners):",
        SEAL_TESTS,
    ),
    Mutant(
        "seal-always-a-dense-index",
        "src/proxtrace/protocol.py",
        "if devices < ends.size:",
        "if True:",
        SEAL_TESTS,
    ),
    Mutant(
        "infected-flag-kept-on-recovery",
        "src/proxtrace/protocol.py",
        "self._infected[handle] = infected",
        "self._infected[handle] |= infected",
        ("tests/test_protocol.py::test_categories_match_the_reference_on_random_graphs",),
    ),
    Mutant(
        "exposure-catch-up-skipped",
        "src/proxtrace/protocol.py",
        "len(exposure) != len(self._ids):\n            self._catch_up()",
        "len(exposure) != len(self._ids):\n            pass",
        EXPOSURE_TESTS,
    ),
    Mutant(
        "exposure-flip-applied-before-catch-up",
        "src/proxtrace/protocol.py",
        "            self._catch_up()\n            self._shift(handle, 1 if infected else -1)\n",
        "            self._infected[handle] = infected\n"
        "            self._catch_up()\n            self._shift(handle, 1 if infected else -1)\n",
        EXPOSURE_TESTS,
    ),
    Mutant(
        "exposure-column-kept-across-a-seal",
        "src/proxtrace/protocol.py",
        "        self._day_ends = array(\"q\")\n        self._exposure = None\n",
        "        self._day_ends = array(\"q\")\n",
        EXPOSURE_TESTS,
    ),
    Mutant(
        "exposure-catch-up-counts-one-endpoint",
        "src/proxtrace/protocol.py",
        "                if infected[right]:\n                    exposure[left] += 1\n",
        "",
        EXPOSURE_TESTS,
    ),
    Mutant(
        "exposure-window-one-day-short",
        "src/proxtrace/protocol.py",
        "range(max(day - self._policy.contact_window_days, 0), day + 1)",
        "range(max(day - self._policy.contact_window_days + 1, 0), day + 1)",
        EXPOSURE_TESTS,
    ),
    Mutant(
        "record-window-start-off-by-one",
        "src/proxtrace/protocol.py",
        "Quarantine(end - self._policy.quarantine_days, end)",
        "Quarantine(end - self._policy.quarantine_days + 1, end)",
        ("tests/test_protocol.py::test_later_cascade_extends_quarantine",),
    ),
    Mutant(
        "mask-misses-a-window-s-first-day",
        "src/proxtrace/protocol.py",
        "(end <= int(day) + self._policy.quarantine_days)",
        "(end < int(day) + self._policy.quarantine_days)",
        ("tests/test_protocol.py::test_quarantine_mask_matches_each_record",),
    ),
    Mutant(
        "cascade-peers-in-insertion-order",
        "src/proxtrace/protocol.py",
        "return [self._ids[peer] for peer in sorted(peers, key=self._hexes.__getitem__)]",
        "return [self._ids[peer] for peer in peers]",
        CASCADE_TESTS,
    ),
    Mutant(
        "cascade-keeps-brief-contacts",
        "src/proxtrace/protocol.py",
        "if owner == brief_of:",
        "if False:",
        CASCADE_TESTS,
    ),
    Mutant(
        "cascade-drops-every-device-s-brief-contacts",
        "src/proxtrace/protocol.py",
        "if owner == brief_of:",
        "if True:",
        CASCADE_TESTS,
    ),
    Mutant(
        "cascade-drops-contacts-of-exactly-the-minimum",
        "src/proxtrace/protocol.py",
        "if durations[slot] >= least]",
        "if durations[slot] > least]",
        CASCADE_TESTS,
    ),
    Mutant(
        "trace-adds-a-peer-ahead-of-its-contacts",
        "src/proxtrace/tracing.py",
        "for device in (*peers_on(peer, today), peer):",
        "for device in (peer, *peers_on(peer, today)):",
        (
            "tests/test_tracing.py::test_two_hop_example",
            "tests/test_tracing.py::test_duplicates_collapse",
        ),
    ),
    Mutant(
        "registered-day-recorded-as-0",
        "src/proxtrace/protocol.py",
        "self._registered_day.append(self.clock.current_day)",
        "self._registered_day.append(0)",
        ("tests/test_registry_golden.py::test_scripted_registry_matches_pins",),
    ),
    Mutant(
        "owner-walk-lists-the-clock-day-twice",
        "src/proxtrace/protocol.py",
        "for day in (*self._contact_days[owner], self.clock.current_day):",
        "for day in (*self._contact_days[owner], self.clock.current_day, self.clock.current_day):",
        (
            "tests/test_protocol.py::test_digest_matches_its_reference_at_any_line_count",
            "tests/test_protocol.py::TestRegistryMachine::runTest",
        ),
    ),
    Mutant(
        "record-quarantine-end-inclusive",
        "src/proxtrace/protocol.py",
        "return self.quarantine is not None and self.quarantine.covers(day)",
        "return self.quarantine is not None"
        " and self.quarantine.start_day <= day <= self.quarantine.end_day",
        ("tests/test_protocol.py::test_quarantine_mask_matches_each_record",),
    ),
    Mutant(
        "notified-never-emptied",
        "src/proxtrace/protocol.py",
        "self._notified.clear()",
        "pass",
        ("tests/test_protocol.py::test_a_notice_is_suppressed_only_on_its_own_day",),
    ),
    Mutant(
        "clock-takes-any-day",
        "src/proxtrace/core.py",
        "if not _is_day(self.current_day):",
        "if False:",
        ("tests/test_core.py::test_a_clock_day_is_a_non_negative_integer",),
    ),
    Mutant(
        "classify-band-edge-excluded",
        "src/proxtrace/risk.py",
        "if value <= edge:",
        "if value < edge:",
        ("tests/test_risk.py::test_boundary_suite",),
    ),
    Mutant(
        "peak-day-last-of-ties",
        "src/proxtrace/sim.py",
        "max(series, key=lambda s: s.new_infections)",
        "max(reversed(series), key=lambda s: s.new_infections)",
        ("tests/test_sim.py::test_peak_day_is_the_first_of_tied_maxima",),
    ),
    Mutant(
        "pairs-strictly-within-r",
        "src/proxtrace/sim.py",
        "kept = np.flatnonzero(dx * dx + dy * dy <= r * r)",
        "kept = np.flatnonzero(dx * dx + dy * dy < r * r)",
        PAIR_TESTS,
    ),
    Mutant(
        "pairs-cell-without-margin",
        "src/proxtrace/sim.py",
        "cell = max(r * (1 + 2**-20), span / _GRID_CELLS, _MIN_CELL)",
        "cell = max(r, span / _GRID_CELLS, _MIN_CELL)",
        PAIR_TESTS,
    ),
    Mutant(
        "pairs-cell-without-span-term",
        "src/proxtrace/sim.py",
        "cell = max(r * (1 + 2**-20), span / _GRID_CELLS, _MIN_CELL)",
        "cell = max(r * (1 + 2**-20), _MIN_CELL)",
        PAIR_TESTS,
    ),
    Mutant(
        "pairs-cell-without-minimum",
        "src/proxtrace/sim.py",
        "cell = max(r * (1 + 2**-20), span / _GRID_CELLS, _MIN_CELL)",
        "cell = max(r * (1 + 2**-20), span / _GRID_CELLS)",
        PAIR_TESTS,
    ),
    Mutant(
        "pairs-grid-without-padding-row",
        "src/proxtrace/sim.py",
        "rows = int(row.max()) + 2",
        "rows = int(row.max()) + 1",
        PAIR_TESTS,
    ),
    Mutant(
        "pairs-own-run-misses-the-cell-above",
        "src/proxtrace/sim.py",
        "np.concatenate([key + 2, key + (rows - 1), key + (rows + 2)])",
        "np.concatenate([key + 1, key + (rows - 1), key + (rows + 2)])",
        PAIR_TESTS,
    ),
    Mutant(
        "pairs-next-column-run-starts-late",
        "src/proxtrace/sim.py",
        "np.concatenate([key + 2, key + (rows - 1), key + (rows + 2)])",
        "np.concatenate([key + 2, key + rows, key + (rows + 2)])",
        PAIR_TESTS,
    ),
    Mutant(
        "pairs-next-column-run-ends-early",
        "src/proxtrace/sim.py",
        "np.concatenate([key + 2, key + (rows - 1), key + (rows + 2)])",
        "np.concatenate([key + 2, key + (rows - 1), key + (rows + 1)])",
        PAIR_TESTS,
    ),
)


def _pytest(copy: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    """The named tests, run in `copy` against its src/; no bytecode is written,
    so an edited module is always compiled afresh."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True,
    )


def _copy_tree(copy: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"error: no mutant named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    for mutant in chosen:
        count = (ROOT / mutant.path).read_text().count(mutant.snippet)
        if count != 1:
            print(f"error: {mutant.name}: snippet occurs {count} times in {mutant.path}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        _copy_tree(copy)
        clean = _pytest(copy, tuple(dict.fromkeys(t for m in chosen for t in m.tests)))
        if clean.returncode != 0:
            print("error: the named tests fail without any mutant:", file=sys.stderr)
            print(clean.stdout + clean.stderr, file=sys.stderr)
            return 2
        survivors = []
        for mutant in chosen:
            target = copy / mutant.path
            original = target.read_text()
            target.write_text(original.replace(mutant.snippet, mutant.replacement))
            try:
                result = _pytest(copy, mutant.tests)
            finally:
                target.write_text(original)
            if result.returncode == 1:
                print(f"killed    {mutant.name}")
            elif result.returncode == 0:
                print(f"SURVIVED  {mutant.name}")
                survivors.append(mutant.name)
            else:
                print(f"error: {mutant.name}: pytest exited {result.returncode}", file=sys.stderr)
                print(result.stdout + result.stderr, file=sys.stderr)
                return 2
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
