"""The mutation gate's own anchors: each mutant's text occurs exactly once.

``mutcheck/run.py`` refuses to run when an anchor is stale, but it takes
minutes; this check takes milliseconds, so a refactor that orphans a
mutant fails with the tier-1 suite.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location("mutcheck_run", Path(__file__).parents[1] / "mutcheck" / "run.py")
mutcheck = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = mutcheck  # its dataclass resolves annotations through here
_spec.loader.exec_module(mutcheck)


def test_every_mutant_anchor_occurs_exactly_once():
    assert mutcheck._stale(mutcheck.MUTANTS) == {}


def test_mutant_names_are_unique():
    names = [mutant.name for mutant in mutcheck.MUTANTS]
    assert len(names) == len(set(names))
