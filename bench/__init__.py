"""The repository's benchmark: open-loop skewed ingest, cold and hot tenant
queries and mixed real-time traffic against the public ``repro.ESDB`` facade,
with an outside-in per-layer trace. See ``bench/README.md``.
"""

import sys
from pathlib import Path

# The program under test is the checkout this package sits in, never an
# installed copy.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
