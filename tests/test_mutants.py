"""The mutant catalogue in ``tests/mutants.py`` still applies as written.

Running the mutants takes minutes, so Tier-1 checks only that each mutant's
old text occurs exactly once in its file and that each test it lists
exists; ``python tests/mutants.py`` runs them.
"""

import pytest
from mutants import MUTANTS, problems


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_applies(mutant):
    assert problems(mutant) == []
