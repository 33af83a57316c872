"""Ensure the src layout is importable even without an editable install.

Also pins the property-based tests to one hypothesis profile: derandomized
examples, no example database and no per-example deadline, so two runs of
the suite execute the same examples and a loaded machine cannot fail a
test on timing alone.
"""

import sys
from pathlib import Path

from hypothesis import settings

SRC = Path(__file__).parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

settings.register_profile("repro", derandomize=True, database=None, deadline=None)
settings.load_profile("repro")
