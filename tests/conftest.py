"""Test-suite settings shared by every module."""

from hypothesis import settings

# Every run draws the same examples, so a Tier-1 result does not depend on
# the run; per-test @settings still set their own example counts.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
