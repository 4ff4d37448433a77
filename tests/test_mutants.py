"""The mutation check's table and runner, checked in the tier-1 time budget.

`python3 tests/mutants.py` runs every mutant and takes minutes; these
tests catch a stale snippet or a broken runner without running them all.
"""

from collections import Counter

import mutants


def test_mutant_names_are_unique():
    counts = Counter(mutant.name for mutant in mutants.MUTANTS)
    assert [name for name, count in counts.items() if count > 1] == []


def test_each_snippet_occurs_once_in_its_file():
    stale = [
        mutant.name
        for mutant in mutants.MUTANTS
        if (mutants.ROOT / mutant.path).read_text().count(mutant.snippet) != 1
    ]
    assert stale == []


def test_one_mutant_runs_end_to_end_and_is_killed(capsys):
    # two pytest subprocesses, run one after the other: the clean copy, then the mutant
    assert mutants.main(["registered-day-recorded-as-0"]) == 0
    out = capsys.readouterr().out
    assert "killed    registered-day-recorded-as-0" in out
    assert "1 of 1 mutants killed" in out
