"""Make the benchmark's flat modules and the engine importable.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests`` — the
parent ``benchmarks/conftest.py`` imports the engine before this file is
reached. Not part of the tier-1 suite (``testpaths = ["tests"]``).
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parents[1]
for path in (E2E, E2E.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
