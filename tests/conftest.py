"""Shared test settings: one Hypothesis profile, loaded for every run.

Derandomized examples keep the suite deterministic, no deadline keeps
slow hosts from failing a correct search, and no example database means
no .hypothesis/ directory is written.  Commands the tests start as
``python -m expmean`` get this checkout's ``src`` on PYTHONPATH, as the
tests themselves get it from pyproject's pytest ``pythonpath``.
"""

import os
from pathlib import Path

from hypothesis import settings

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
