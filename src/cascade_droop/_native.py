"""The engine's RK4 kernel in C: one call runs a schedule stretch, bit for bit the Python kernel.

``kernel(module_steps)`` returns the C kernel when this process has built
it, and builds it first when the run has at least ``MODULE_STEPS``
module-steps (n x steps) and no build has been tried.  The build compiles
``_rk4.c`` with the C compiler that ``sysconfig`` names for this Python
(else ``cc``) into a private temporary directory, loads it with ``ctypes``
and removes the directory.  The loaded kernel then runs a fixed short
scenario (a dead start, the +/-pi seam, the clamp, every step recorded)
beside the Python kernel, and it is used only if the two tables and final
states agree to the bit.  A missing compiler, a build or load error and a
self-check mismatch are each logged once as a WARNING to the
``cascade_droop`` logger, and the Python kernel runs for the rest of the
process; nothing is retried.  A forked worker inherits its parent's kernel,
or its failure.  Nothing is built or loaded at import.
"""

from __future__ import annotations

import math
import os

# A run of at least this many module-steps builds the kernel when the process has none:
# the build took 0.20-0.24 s, about what the Python kernel takes for this much work.
MODULE_STEPS = 200_000
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-builtin")
_SOURCE = os.path.join(os.path.dirname(__file__), "_rk4.c")
_BUILD_TIMEOUT_S = 120.0

# ctypes, logging, subprocess and the rest are imported by the first build, not with this
# module: together they take about 20 ms, which a process that builds nothing never pays.
_kernel = None  # None: no build tried; False: the Python kernel runs in this process


class _Unavailable(Exception):
    """Why the C kernel is not used; the warning names it."""


def compiler() -> list[str] | None:
    """The C compiler: ``sysconfig``'s CC for this Python if it is on PATH, else ``cc``."""
    import shlex
    import shutil
    import sysconfig

    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if cc and shutil.which(cc[0]):
        return cc
    return ["cc"] if shutil.which("cc") else None


def kernel(module_steps: float):
    """The C kernel's stretch function, or None where the Python kernel runs."""
    global _kernel
    if _kernel is None and module_steps >= MODULE_STEPS:
        import logging

        _kernel = False
        try:
            _kernel = _checked(_build())
        except _Unavailable as exc:
            logging.getLogger("cascade_droop").warning(
                "cascade_droop: the C kernel is not used (%s); the Python kernel runs", exc)
    return _kernel or None


def _build():
    import ctypes
    import logging
    import shlex
    import shutil
    import subprocess
    import tempfile
    import time

    cc = compiler()
    if cc is None:
        raise _Unavailable("no compiler: neither sysconfig's CC nor cc is on PATH")
    started = time.perf_counter()
    tmp = tempfile.mkdtemp(prefix="cascade_droop-")
    try:
        library = os.path.join(tmp, "_rk4.so")
        try:
            proc = subprocess.run([*cc, *FLAGS, "-o", library, _SOURCE, "-lm"],
                                  capture_output=True, text=True, timeout=_BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as exc:
            raise _Unavailable(f"build error: {exc}") from None
        if proc.returncode != 0:
            detail = (proc.stderr.strip().splitlines() or ["no message"])[-1]
            raise _Unavailable(f"build error: {cc[0]} exited {proc.returncode}: {detail}")
        try:
            stretch = ctypes.CDLL(library).cd_rk4_stretch
        except (OSError, AttributeError) as exc:
            raise _Unavailable(f"load error: {exc}") from None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    doubles, i64 = ctypes.POINTER(ctypes.c_double), ctypes.c_int64
    stretch.argtypes = [doubles, i64, doubles, doubles, doubles, ctypes.POINTER(ctypes.c_int32),
                        i64, i64, i64, i64, doubles, i64, i64]
    stretch.restype = i64
    logging.getLogger("cascade_droop").debug("cascade_droop: built the C kernel with %s in %.3f s",
                                             shlex.join(cc), time.perf_counter() - started)
    return stretch


def run(stretch, constants: tuple, deltas: list[float], held, table, row: int, start: int,
        stop: int, steps: int, decim: int) -> tuple[list[float], int] | None:
    """Steps ``start`` .. ``stop`` - 1 of one config on the C kernel, recorded from ``row``.

    ``constants`` are ``engine._bind``'s and ``held`` an ``engine._Held``,
    which the stretch updates.  Returns the angles after the stretch and the
    next row, or None where CPython would raise or a value is not finite;
    the angles and ``held`` are then as they were, and the caller runs the
    stretch in Python.
    """
    import ctypes

    n = len(deltas)
    if len(held.angles) != n:
        raise ValueError(f"{len(held.angles)} held angles for {n} modules")
    if not (table.dtype == "float64" and table.flags.c_contiguous and table.flags.writeable
            and table.shape[1:] == (1 + 4 * n,)):
        raise ValueError(f"a trace table is a writeable C-contiguous float64 (rows, {1 + 4 * n}) "
                         f"array, got {table.dtype} {table.shape}")
    v_star, w_star, m, phi_star, w_lo, w_hi, z, drive, dead_band, half, dt, sixth = constants
    values = (ctypes.c_double * 14)(v_star, w_star, m, phi_star, w_lo, w_hi, z.real, z.imag,
                                    drive.real, drive.imag, dead_band, half, dt, sixth)
    xs = (ctypes.c_double * n)(*deltas)
    hv = (ctypes.c_double * n)(*held.angles)
    arg = ctypes.c_double(0.0 if held.arg is None else held.arg)
    live = ctypes.c_int32(held.arg is not None)
    # a decimation past the run records only its ends, and fits in the C int64 as given
    end = stretch(values, n, xs, hv, ctypes.byref(arg), ctypes.byref(live), start, stop, steps,
                  min(decim, steps + 1), table.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
                  table.shape[0], row)
    if end < 0:
        return None
    held.angles = list(hv)
    held.arg = arg.value if live.value else None
    return list(xs), end


def _probe():
    """A short run through a dead start, the +/-pi seam, the clamp and each event kind.

    The islanded string starts on a polygon that carries no current.  At
    step 2 all four modules are reset to angle 0 (the first to -0.0) and
    phi* to -pi: the purely resistive circuit then has arg I = 0, so each
    droop error is exactly pi, the gain drives every module into the clamp,
    and the first module holds the measurement -0.0.  Every step is recorded.
    """
    from .droop import DroopParams
    from .engine import (Mode, Scenario, SetInitialDelta, SetLine, SetLoad, SetMode, SetPfRef,
                         SystemConfig, TimedEvent)
    from .phasors import Impedance

    config = SystemConfig(n=4, droop=DroopParams(50.0, 10.0, 0.3, 40.0, (49.9, 50.1)),
                          grid_voltage=30.0, grid_angle=0.1, line=Impedance(0.5, 0.0),
                          load=Impedance(8.0, 0.0), mode=Mode.ISLANDED)
    resets = [TimedEvent(0.002, SetInitialDelta(i, 0.0 if i > 1 else -0.0)) for i in range(1, 5)]
    events = (*resets, TimedEvent(0.002, SetPfRef(-math.pi)),
              TimedEvent(0.004, SetInitialDelta(2, 1.0)), TimedEvent(0.004, SetPfRef(0.3)),
              TimedEvent(0.005, SetLoad(Impedance(8.0, 0.4))),
              TimedEvent(0.006, SetMode(Mode.GRID_CONNECTED)),
              TimedEvent(0.007, SetLine(Impedance(0.5, 1.2))))
    return Scenario(config=config, initial_deltas=(0.0, math.pi / 2, math.pi, 3 * math.pi / 2),
                    events=events, duration=0.009, dt=1e-3, record_decimation=1)


def _checked(stretch):
    """``stretch``, once the probe runs on it bit for bit as on the Python kernel."""
    from .engine import _run

    declined = []

    def strict(*args):  # the probe's values are finite, so no stretch may return -1
        end = stretch(*args)
        declined.append(end < 0)
        return end

    scenario = _probe()
    python, native = ([(s.delta.hex(), s.pf_angle.hex()) for s in result.final_states]
                      + [result.trace.table.tobytes()]
                      for result in (_run(scenario, None, lambda module_steps, k=k: k)
                                     for k in (None, strict)))
    if any(declined) or native != python:
        raise _Unavailable("self-check mismatch: the probe run differs from the Python kernel's")
    return stretch
