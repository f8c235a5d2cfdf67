"""The mutation suite's entries still name code and tests that exist."""

import re

import pytest

from mutants import MUTANTS, ROOT, module_path


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_applies_once_and_names_its_killer(mutant):
    assert module_path(ROOT, mutant.module).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.reason
    path, function = mutant.killer.split("::")
    assert re.search(rf"^def {function}\(", (ROOT / path).read_text(), re.M)


def test_mutant_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
