"""Hypothesis settings for the property tests: the same examples on every
run, and no per-example deadline, since wall time per example varies with
the load on the machine running the suite."""

from hypothesis import settings

settings.register_profile("quivermoduli", deadline=None, derandomize=True, max_examples=60)
settings.load_profile("quivermoduli")
