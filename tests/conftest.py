"""Shared test settings.

Property tests run under one deterministic hypothesis profile, so Tier-1
draws the same examples on every run and its time stays bounded.
"""

from hypothesis import settings

settings.register_profile(
    "tier1", derandomize=True, deadline=None, max_examples=50, database=None
)
settings.load_profile("tier1")
