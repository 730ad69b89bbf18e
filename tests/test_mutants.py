"""The mutants in tools/mutants.py still apply to the code they mutate.

Only the texts and the names of the tests are checked here; running every
mutant against its tests is `python3 tools/mutants.py`, a CI step of its own.
"""
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bluehop_mutants", ROOT / "tools" / "mutants.py")
mutants = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # for dataclasses
_spec.loader.exec_module(mutants)


def test_every_mutant_old_text_occurs_exactly_once():
    assert mutants.text_errors() == []


def test_mutants_have_unique_names_and_name_their_tests():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
    for m in mutants.MUTANTS:
        assert m.old != m.new and m.tests


def test_every_named_test_is_defined():
    assert mutants.missing_tests() == []
