"""Checks that run around every test.

``RulesetParams.defaults`` hands every caller one shared object per ruleset,
so a test that changed one would change every later world; after each test
the shared defaults must still equal freshly made params.
"""

from __future__ import annotations

import pytest

from civutm.world import RULESET_VI, RULESETS, RulesetParams


@pytest.fixture(autouse=True)
def shared_default_params_unchanged():
    yield
    for ruleset in RULESETS:
        fresh = RulesetParams(ruleset=ruleset, state_region_tiles=23 if ruleset == RULESET_VI else 9)
        assert RulesetParams.defaults(ruleset) == fresh, f"the shared {ruleset} default params were changed"
