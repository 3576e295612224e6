"""Let child processes import the package from this checkout; the ``kernels`` fixture.

The CLI tests start ``python -m cascade_droop`` in a temporary working
directory, where a relative ``PYTHONPATH`` entry such as ``src`` no longer
resolves.  Every entry is made absolute, with this checkout's ``src`` first.
"""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
_entries = [os.path.abspath(p) for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
os.environ["PYTHONPATH"] = os.pathsep.join([_SRC] + [p for p in _entries if p != _SRC])


@pytest.fixture
def kernels():
    """Stand-ins for ``_native.kernel`` that pick each kernel: Python's, and C's where it builds.

    A test that loops over them runs its checks on both kernels.  Where no C
    compiler is on PATH only the Python kernel is listed;
    ``test_native.py`` fails where one is on PATH and the C kernel is not used.
    """
    from cascade_droop import _native

    found = _native.kernel(_native.MODULE_STEPS)
    choices = {"python": lambda module_steps: None}
    if found is not None:
        choices["c"] = lambda module_steps: found
    return choices
