"""Every mutant of ``tests/mutants.py`` still applies to the source."""

import mutants
import pytest


@pytest.mark.parametrize(
    "file, old", [m[1:3] for m in mutants.MUTANTS], ids=[m[0] for m in mutants.MUTANTS]
)
def test_mutant_old_text_occurs_once(file, old):
    assert mutants.occurrences(file, old) == 1
