"""Make the benchmark's modules and the package under test importable.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` from the
repository root; tier-1's ``testpaths`` stays ``tests``.
"""

import sys
from pathlib import Path

_E2E = Path(__file__).resolve().parents[1]
for path in (_E2E, _E2E.parents[1] / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
