"""The engine's RK4 kernel and the trace CSV's row formatter in C, each bit for bit Python's.

``kernel(module_steps)`` returns the C kernel when this process has built
it, and builds it first when the run has at least ``MODULE_STEPS``
module-steps (n x steps) and no build has been tried.  The build compiles
``_rk4.c`` and ``_csv.c`` in one command, with the C compiler that
``sysconfig`` names for this Python (else ``cc``), into one library in a
private temporary directory, loads it with ``ctypes`` and removes the
directory.  The library is then checked twice.  Its kernel runs a fixed
short scenario (a dead start, the +/-pi seam, the clamp, every step
recorded) beside the Python kernel, and the two tables and final states
must agree to the bit.  Its row formatter prints that table and the values
of ``_csv_edges`` (ties, carries, powers of ten and the ends of its exact
range), and the bytes must equal the ``%.9g`` template's.  A missing
compiler, a build or load error and a self-check mismatch are each logged
once as a WARNING to the ``cascade_droop`` logger, and the Python kernel and
the template run for the rest of the process; nothing is retried.  A forked
worker inherits its parent's library, or its failure.  Nothing is built or
loaded at import.

``csv_rows()`` is the row formatter wherever ``kernel(0)`` (which never
builds) returns a kernel, so a loader that picks the Python kernel picks the
template writer too.  The formatter prints each value of the exact range,
+-0 and 2^-79 <= |x| < 2^120, from its exact 9-digit rounding in 128-bit
integers (see ``_csv.c``).  It declines any other value, and every value
where the compiler has no 128-bit integer; ``reports`` prints a row that
holds a declined value with the template.
"""

from __future__ import annotations

import math
import os

# A run of at least this many module-steps builds the kernel when the process has none:
# the build took 0.20-0.24 s, about what the Python kernel takes for this much work.
MODULE_STEPS = 200_000
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-builtin")
_SOURCES = tuple(os.path.join(os.path.dirname(__file__), name) for name in ("_rk4.c", "_csv.c"))
# Most bytes the row formatter writes per value: "-1.23456789e+36" and its separator.
VALUE_BYTES = 16
_BUILD_TIMEOUT_S = 120.0

# ctypes, logging, subprocess and the rest are imported by the first build, not with this
# module: together they take about 20 ms, which a process that builds nothing never pays.
# None: no build tried; False: the Python kernel runs in this process; else the library's
# (stretch, rows) functions
_kernel = None


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
            _kernel = _checked(*_build())
        except _Unavailable as exc:
            logging.getLogger("cascade_droop").warning(
                "cascade_droop: the C kernel is not used (%s); the Python kernel runs", exc)
    return _kernel[0] if _kernel else None


def csv_rows():
    """The C row formatter where ``kernel(0)`` returns a kernel, else None; it never builds."""
    return _kernel[1] if _kernel and kernel(0) is not None else None


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
            proc = subprocess.run([*cc, *FLAGS, "-o", library, *_SOURCES, "-lm"],
                                  capture_output=True, text=True, timeout=_BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as exc:
            raise _Unavailable(f"build error: {exc}") from None
        if proc.returncode != 0:
            detail = (proc.stderr.strip().splitlines() or ["no message"])[-1]
            raise _Unavailable(f"build error: {cc[0]} exited {proc.returncode}: {detail}")
        try:
            loaded = ctypes.CDLL(library)
            stretch, rows = loaded.cd_rk4_stretch, loaded.cd_csv_rows
        except (OSError, AttributeError) as exc:
            raise _Unavailable(f"load error: {exc}") from None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    doubles, i64 = ctypes.POINTER(ctypes.c_double), ctypes.c_int64
    stretch.argtypes = [doubles, i64, doubles, doubles, i64, i64, i64, i64, doubles, i64, i64]
    stretch.restype = i64
    rows.argtypes = [ctypes.c_void_p, i64, ctypes.POINTER(i64), i64, ctypes.c_void_p]
    rows.restype = i64
    logging.getLogger("cascade_droop").debug("cascade_droop: built the C kernel with %s in %.3f s",
                                             shlex.join(cc), time.perf_counter() - started)
    return stretch, rows


def run(stretch, constants: tuple, deltas: list[float], held: list[float], table, row: int,
        start: int, stop: int, steps: int,
        decim: int) -> tuple[list[float], list[float], int] | None:
    """``engine._stretch`` on the C kernel ``stretch``: the same arguments and results.

    Runs steps ``start`` .. ``stop`` - 1 of one config from ``engine._bind``'s
    ``constants``, recorded from ``row``, and returns the angles, the held
    values and the next row; None where CPython would raise or a value is
    not finite, and the caller then runs the stretch in Python.  Neither
    ``deltas`` nor ``held`` is written.
    """
    import ctypes

    n = len(deltas)
    if len(held) != n:
        raise ValueError(f"{len(held)} held values for {n} modules")
    if not (table.dtype == "float64" and table.flags.c_contiguous and table.flags.writeable
            and table.shape[1:] == (1 + 4 * n,)):
        raise ValueError(f"a trace table is a writeable C-contiguous float64 (rows, {1 + 4 * n}) "
                         f"array, got {table.dtype} {table.shape}")
    v_star, w_star, m, phi_star, w_lo, w_hi, z, drive, dead_band, half, dt, sixth = constants
    values = (ctypes.c_double * 14)(v_star, w_star, m, phi_star, w_lo, w_hi, z.real, z.imag,
                                    drive.real, drive.imag, dead_band, half, dt, sixth)
    xs = (ctypes.c_double * n)(*deltas)
    hv = (ctypes.c_double * n)(*held)
    # a decimation past the run records only its ends, and fits in the C int64 as given
    end = stretch(values, n, xs, hv, start, stop, steps, min(decim, steps + 1),
                  table.ctypes.data_as(ctypes.POINTER(ctypes.c_double)), table.shape[0], row)
    if end < 0:
        return None
    return list(xs), list(hv), end


def write_rows(rows, table, chunk: int, out, template: str) -> bool:
    """Writes the rows of ``table`` to the binary file ``out`` through the C formatter ``rows``.

    Each call formats up to ``chunk`` rows from the table's base pointer and
    a row offset into one reused buffer, which is written as it is.  A row
    that holds a value the formatter declines is written as
    ``template % row`` instead.  Returns False, having written nothing, where
    ``table`` is not a C-contiguous float64 matrix.
    """
    import ctypes

    if not (table.dtype == "float64" and table.flags.c_contiguous and table.ndim == 2):
        return False
    total, width = table.shape
    text = ctypes.create_string_buffer(VALUE_BYTES * width * chunk)
    view = memoryview(text)
    base = table.ctypes.data
    row = ctypes.c_int64(0)
    at = ctypes.byref(row)
    while row.value < total:
        stop = min(row.value + chunk, total)
        out.write(view[:rows(base, width, at, stop, text)])
        if row.value < stop:  # stopped before a row with a declined value
            out.write((template % tuple(table[row.value].tolist())).encode())
            row.value += 1
    return True


def _csv_edges() -> list[float]:
    """Values at the edges of the row formatter's rounding and of its exact range, each signed.

    The 10-digit ties (a 5 in the tenth digit, exact in binary) on both
    paths of ``scaled``, values next to the carry at 999,999,999.5 x 10^j,
    each power of ten from 1e-24 to 1e36 and 3 ulps on each side, 1 to 9
    digits in each style of ``%g``, 0, the smallest and largest magnitudes
    it prints, and the declined values next to them.
    """
    edges = [0.0, 2.0 ** -79, math.nextafter(2.0 ** 120, 0.0),
             math.nextafter(2.0 ** -79, 0.0), 2.0 ** 120, 2.2250738585072014e-308, 5e-324,
             math.inf, math.nan]
    for count in range(1, 10):
        edges += [float(f"{'123456789'[:count]}e{j}") for j in (-30, -9, -3, 0, 8, 30)]
    for digits in (100_000_000, 123_456_788, 123_456_789, 999_999_999):
        edges += [(10 * digits + 5) * 10.0 ** j for j in range(6)]
    # the ties below 1e9, odd / 2^(q + 1) in [10^(8 - q), 10^(9 - q)): the first two of each
    # range, whose 9-digit roundings are 5^q apart, so one is odd and one even
    for q in range(14):
        scale = 2 ** (q + 1)
        first = -(-10 ** 8 * scale // 10 ** q) | 1
        edges += [odd / scale for odd in (first, first + 2) if odd * 10 ** q < 10 ** 9 * scale]
    for j in range(-24, 27):
        carry = 999_999_999.5 * 10.0 ** j
        edges += [math.nextafter(carry, 0.0), carry, math.nextafter(carry, math.inf)]
    for j in range(-24, 37):
        power = float(f"1e{j}")
        for _ in range(3):
            power = math.nextafter(power, 0.0)
        for _ in range(7):
            edges.append(power)
            power = math.nextafter(power, math.inf)
    return edges + [-x for x in edges]


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


def _checked(stretch, rows):
    """The library's ``(stretch, rows)``, once both print the probe as Python does.

    The probe runs on ``stretch`` bit for bit as on the Python kernel, and its
    table and the column of ``_csv_edges`` print through ``rows`` in the
    template's bytes.
    """
    import io

    import numpy as np

    from .engine import _run
    from .reports import _write_rows

    declined = []

    def strict(*args):  # the probe's values are finite, so no stretch may return -1
        end = stretch(*args)
        declined.append(end < 0)
        return end

    def bits(result):
        return ([(s.delta.hex(), s.pf_angle.hex()) for s in result.final_states]
                + [result.trace.table.tobytes()])

    def text(table, formatter):
        out = io.BytesIO()
        _write_rows(table, out, formatter)
        return out.getvalue()

    scenario = _probe()
    python, native = (_run(scenario, None, lambda module_steps, k=k: k) for k in (None, strict))
    if any(declined) or bits(native) != bits(python):
        raise _Unavailable("self-check mismatch: the probe run differs from the Python kernel's")
    for table in (native.trace.table, np.array(_csv_edges()).reshape(-1, 1)):
        if text(table, rows) != text(table, None):
            raise _Unavailable("self-check mismatch: the C rows of the probe or of the edge values "
                               "differ from the %.9g template's")
    return stretch, rows
