"""The mutant table of ``tools/mutants.py`` still matches the source.

Each mutant's ``old`` strings must occur exactly once in its file, and its
test files must exist, or the mutant run stops before it starts.  This
file is listed by no mutant: the mutant runner copies ``src/`` and
``tests/`` alone, without ``tools/``.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_mutant_table_matches_the_source():
    mutants = _mutants()
    assert mutants.stale_edits(mutants.MUTANTS) == []
    listed = {t for m in mutants.MUTANTS for t in m.tests}
    assert [t for t in sorted(listed) if not (ROOT / t).is_file()] == []
    assert f"tests/{Path(__file__).name}" not in listed
