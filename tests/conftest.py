"""Test-wide settings."""

from hypothesis import settings

# fixed examples per run: a tier-1 suite must not change from run to run
settings.register_profile("tier1", max_examples=40, deadline=None,
                          derandomize=True, database=None)
# the same fixed draws, 1000 a test: pick it with --hypothesis-profile deep
settings.register_profile("deep", max_examples=1000, deadline=None,
                          derandomize=True, database=None)
settings.load_profile("tier1")
