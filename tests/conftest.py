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


# this process's C kernel (or None), kept by the first ``c_kernel`` or ``kernels`` call: later
# calls return it without asking ``_native.kernel``, which is ``c_kernel`` itself while a test
# has patched it in
_C_KERNEL = []


def python_kernel(module_steps):
    """A stand-in for ``_native.kernel`` that picks the Python kernel and the template writer."""
    return None


def c_kernel(module_steps):
    """A stand-in for ``_native.kernel`` that picks the C kernel and its row formatter.

    It is a module-level function, as every stand-in is, so that a pool
    worker started by ``spawn`` or ``forkserver`` can unpickle it as its
    initializer; there it builds that worker's own library.
    """
    if not _C_KERNEL:
        from cascade_droop import _native

        _C_KERNEL[:] = [_native.kernel(_native.MODULE_STEPS)]
    return _C_KERNEL[0]


@pytest.fixture
def kernels():
    """Stand-ins for ``_native.kernel`` that pick each kernel: Python's, and C's where it builds.

    A test that loops over them runs its checks on both kernels, and on both
    CSV writers.  Where no C compiler is on PATH only the Python kernel is
    listed; ``test_native.py`` fails where one is on PATH and the C kernel is
    not used.
    """
    from cascade_droop import _native

    found = _native.kernel(_native.MODULE_STEPS)
    choices = {"python": python_kernel}
    if found is not None:
        _C_KERNEL[:] = [found]
        choices["c"] = c_kernel
    return choices
