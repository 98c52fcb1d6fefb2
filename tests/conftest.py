"""Shared test settings.

Property tests run under one deterministic hypothesis profile, so Tier-1
draws the same examples on every run and its time stays bounded; the
opt-in "wide" profile is for occasional longer, randomized runs.
"""

from hypothesis import settings

settings.register_profile(
    "tier1", derandomize=True, deadline=None, max_examples=50, database=None
)
# occasional long runs draw fresh examples, many more of them; the float-range
# contract fuzzer takes this count in place of its 300:
#   pytest tests/test_cli.py -k contract --hypothesis-profile=wide
settings.register_profile("wide", deadline=None, max_examples=5000, database=None)
settings.load_profile("tier1")
