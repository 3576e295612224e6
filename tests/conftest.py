"""Let child processes import the package from this checkout.

The CLI tests start ``python -m cascade_droop`` in a temporary working
directory, where a relative ``PYTHONPATH`` entry such as ``src`` no longer
resolves.  Every entry is made absolute, with this checkout's ``src`` first.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
_entries = [os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
os.environ["PYTHONPATH"] = os.pathsep.join([_SRC] + [p for p in _entries if p != _SRC])
