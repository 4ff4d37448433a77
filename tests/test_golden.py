"""Golden outputs: `simulate --arm both` CSV bytes pinned by sha256.

The edge configs exercise quarantine bookkeeping that the default run
never reaches: a zero-day policy (notify only, no isolation window), a
start delay on top of a zero symptom-onset delay, and a two-day window
with near-certain transmission, where agents already in quarantine are
traced again and their window is replaced by a later one.  The zero-day
policy is pinned once more at 300 agents, where the outbreak is never
contained and every agent is reported and traced.

`curve` and `surface` CSV bytes are pinned too, for both placements and
non-default weights, radius, repeats and seed, each at --jobs 1 and 2.
Two seeds span several 32-bit words: 2**64 + 1 is three, padded to the
four of SeedSequence's pool, and 2**128 + 1 is five, one past the pool.
Every config has at least 64 cells, so --jobs 2 runs the process pool.
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


GENERATOR_PINS = {
    "curve --n 8 --k 4":
        "91760dc199c05a86555c6adc7826cdd862115bd8228eea8e916cd299c306a32e",
    "curve --n 8 --k 4 --placement equal --repeats 3":
        "6e8cc98ab39714ee12e8fcd95ba3167ab7164364f767799cccf9cf0e68dc2620",
    "curve --n 8 --k 3 --weights 0.6,0.3,0.1 --radius 7.5 --repeats 7 --seed 5":
        "e7e680ace6439fde31a2f0b00e77ee8e550899737914d67042ac26245f9448c9",
    "curve --n 8 --k 4 --seed 18446744073709551617":
        "d07766301eb89acfd9e07587766465a6dcbb8d254661742444dbff76eac446f4",
    "surface --n-max 12":
        "1b7a40e3ee9036a41e713812304549069dfa51fa7a5c4d163995bba707efcecf",
    "surface --n-max 12 --placement equal":
        "10ee4534c5f79f2c7d68acead0ec4e0bc69766a94686f6c45e880e6a705bb21b",
    "surface --n-max 12 --weights 0.5,0.3 --radius 4 --repeats 9 --seed 3":
        "adab4173e62ed779bc4b95e979c6cf86445dd5d997a68afb4acd996f3e0227da",
    "surface --n-max 12 --seed 340282366920938463463374607431768211457":
        "92cb8e64968904e608d63351e68d65ff51d536788886cbc31c0e9ba86fb2e925",
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", sorted(GENERATOR_PINS))
def test_curve_and_surface_csv_match_pin(tmp_path, capsys, command, jobs):
    out = tmp_path / "out.csv"
    assert main(command.split() + ["--jobs", jobs, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GENERATOR_PINS[command]
