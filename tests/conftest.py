"""Shared test settings: one Hypothesis profile, loaded for every run.

Derandomized examples keep the suite deterministic, no deadline keeps
slow hosts from failing a correct search, and no example database means
no .hypothesis/ directory is written.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
