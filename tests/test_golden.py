"""Golden outputs: `simulate --arm both` CSV bytes pinned by sha256.

The edge configs exercise quarantine bookkeeping that the default run
never reaches: a zero-day policy (notify only, no isolation window), a
start delay on top of a zero symptom-onset delay, and a two-day window
with near-certain transmission, where agents already in quarantine are
traced again and their window is replaced by a later one.  The zero-day
policy is pinned once more at 300 agents, where the outbreak is never
contained and every agent is reported and traced.
"""

import hashlib

import pytest

from proxtrace.cli import main

# name -> (population, max days or None for the default, config file text)
CONFIGS = {
    "default": (300, None, ""),
    "zero_day_quarantine": (40, 6, "quarantine_days = 0\n"),
    "zero_day_quarantine_300": (300, None, "quarantine_days = 0\n"),
    "start_delay": (60, 10, "symptom_onset_delay = 0\nquarantine_start_delay = 1\n"),
    "short_quarantine_retrace": (40, 8, "quarantine_days = 2\ninfection_probability = 0.9\n"),
}

PINS = {
    ("default", 0): "18f69dd494a3599f688f78c0df05e51269e256531c8210d4ff9090b5bc86c3a1",
    ("default", 1): "9cfe4eab9d12e671082b60ca9ed9478142e086b1cd59a2ea65457bef7d4c9c4e",
    ("default", 2): "2de727d3b494058d153fee9f05f5dcb9feb6a0cf51b830e8ca0b435d95644002",
    ("zero_day_quarantine", 0): "f455616c9c3306ffa183c67927ba9da8b62bb30988ea52ba5898619e2be0c278",
    ("zero_day_quarantine", 1): "cf6d664b9c1916be301feb5a1fbd26ff9a9ea803aeabaecc53794a07ee032329",
    ("zero_day_quarantine", 2): "c1a12005ada93ce517b03ada9772210c5769f8d22a8fd32c6fb07bc24593a58b",
    ("zero_day_quarantine_300", 0): "6964e1a11eb522f10981b9a6c9313810b6382eac49f77d5afb7d35ec08153bac",
    ("start_delay", 0): "4cc13f83bd012ace245a791bf7968ba1141277b73e6f8f71c676ab06f7dd6c2a",
    ("start_delay", 1): "77765dd8cd890721067d78cd016d834b6c7ea70c9217411794b2357d980dacef",
    ("start_delay", 2): "12511290bd5b4f0b9efcd88ea3e4efebc4ef74aa401d4c3ac242fe44138f2223",
    ("short_quarantine_retrace", 0): "aabf229008a22383891615281739efe01e4295d18f8061d60b851352271e9c09",
    ("short_quarantine_retrace", 1): "0d52ee00dd9b7d4637a9c12e3674de737d5fa86ff6f62a0e584c13d61d664ae8",
    ("short_quarantine_retrace", 2): "1d7141bc91d13a1b0ceb523b5e187dfde75056f166d560dd18e6045dc5d7a055",
}


@pytest.mark.parametrize("name, seed", sorted(PINS), ids=[f"{n}-{s}" for n, s in sorted(PINS)])
def test_simulate_csv_matches_pin(tmp_path, capsys, name, seed):
    population, days, text = CONFIGS[name]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--config", str(cfg), "--population", str(population),
            "--seed", str(seed), "--arm", "both", "--out", str(out)]
    if days is not None:
        argv += ["--days", str(days)]
    assert main(argv) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINS[name, seed]
